//go:build fullsweep

package network

import "testing"

// TestPerHopMatchesSingleEngineFull is the whole differential sweep: 16
// (K, ρ, F, R_u) cells × six disciplines × three seeds, 288 configurations.
// Run it with `make differential`.
func TestPerHopMatchesSingleEngineFull(t *testing.T) {
	var ties int
	for cell := 0; cell < 16; cell++ {
		for _, kind := range diffKinds {
			for seed := uint64(1); seed <= 3; seed++ {
				ties += matchSingleEngine(t, diffConfig(cell, kind, seed, 3, 5))
			}
		}
	}
	if ties == 0 {
		t.Error("no replayed departure tied with an event of its hop")
	}
	t.Logf("288 configurations, %d ties ordered", ties)
}
