package network

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pdds/internal/core"
)

// diffKinds are the disciplines the differential sweep runs on every hop.
var diffKinds = []core.Kind{core.KindWTP, core.KindBPR, core.KindPAD, core.KindHPD, core.KindStrict, core.KindFCFS}

// diffConfig is one cell of the differential sweep over K ∈ {1,2,4,8},
// ρ ∈ {0.85,0.95} and (F, R_u) ∈ {(10,50),(100,200)}: cell indexes those
// three axes in that order, 0 ≤ cell < 16.
func diffConfig(cell int, kind core.Kind, seed uint64, warmup float64, experiments int) Config {
	flows := [][2]float64{{10, 50}, {100, 200}}[cell%2]
	return Config{
		Hops:        []int{1, 2, 4, 8}[cell/4],
		Rho:         []float64{0.85, 0.95}[cell/2%2],
		SDP:         []float64{1, 2, 4, 8},
		Scheduler:   kind,
		FlowPackets: int(flows[0]),
		FlowKbps:    flows[1],
		Experiments: experiments,
		WarmupSec:   warmup,
		Seed:        seed,
	}
}

// matchSingleEngine runs cfg on the per-hop runtime and on the single-engine
// reference, fails t unless every reported figure is bit-identical, and
// returns the number of same-instant ties the per-hop run ordered.
func matchSingleEngine(t *testing.T, cfg Config) int {
	t.Helper()
	want, err := runSingleEngine(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	pa, err := newPath(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	got, err := pa.run()
	if err != nil {
		t.Fatalf("per-hop: %v", err)
	}
	if d := diffResults(got, want); d != "" {
		t.Errorf("K=%d rho=%g F=%d Ru=%g %s seed %d: %s", cfg.Hops, cfg.Rho, cfg.FlowPackets, cfg.FlowKbps, cfg.Scheduler, cfg.Seed, d)
	}
	return pa.ties
}

// diffResults names the first figure on which got and want differ in any
// bit, or returns "".
func diffResults(got, want *Result) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.CrossPackets != want.CrossPackets:
		return fmt.Sprintf("CrossPackets %d, want %d", got.CrossPackets, want.CrossPackets)
	case !same(got.RD, want.RD):
		return fmt.Sprintf("RD %v, want %v", got.RD, want.RD)
	case !same(got.Utilization, want.Utilization):
		return fmt.Sprintf("Utilization %v, want %v", got.Utilization, want.Utilization)
	case got.Inconsistent != want.Inconsistent || got.InconsistentMaterial != want.InconsistentMaterial ||
		got.InconsistentExperiments != want.InconsistentExperiments:
		return "inconsistency counts differ"
	}
	for c := range want.MeanE2E {
		if !same(got.MeanE2E[c], want.MeanE2E[c]) {
			return fmt.Sprintf("MeanE2E[%d] %v, want %v", c, got.MeanE2E[c], want.MeanE2E[c])
		}
	}
	for m := range want.Flows {
		for c, fs := range want.Flows[m] {
			g, w := got.Flows[m][c].Delays.Values(), fs.Delays.Values()
			if len(g) != len(w) {
				return fmt.Sprintf("flow %d/%d holds %d delays, want %d", m, c, len(g), len(w))
			}
			for i := range w {
				if !same(g[i], w[i]) {
					return fmt.Sprintf("flow %d/%d delay %d: %v, want %v", m, c, i, g[i], w[i])
				}
			}
		}
	}
	for h := range want.PerHopUtilization {
		if !same(got.PerHopUtilization[h], want.PerHopUtilization[h]) {
			return fmt.Sprintf("hop %d utilization %v, want %v", h, got.PerHopUtilization[h], want.PerHopUtilization[h])
		}
		for c := range want.PerHopMeanDelay[h] {
			if !same(got.PerHopMeanDelay[h][c], want.PerHopMeanDelay[h][c]) {
				return fmt.Sprintf("hop %d class %d mean delay %v, want %v", h, c, got.PerHopMeanDelay[h][c], want.PerHopMeanDelay[h][c])
			}
		}
	}
	return ""
}

// TestPerHopMatchesSingleEngine is the tier-1 slice of the differential
// sweep: every (discipline, K) pair once, the ρ and (F, R_u) axes and the
// seed rotating with it. The full sweep is TestPerHopMatchesSingleEngineFull
// (make differential). It also requires at least one replayed departure to
// have tied with an event of its receiving hop, so the tie rule is
// exercised, not only stated.
func TestPerHopMatchesSingleEngine(t *testing.T) {
	var ties int
	for ki, kind := range diffKinds {
		for k := 0; k < 4; k++ {
			cell := 4*k + (ki+k)%4
			ties += matchSingleEngine(t, diffConfig(cell, kind, uint64(1+(ki+k)%3), 0.5, 2))
		}
	}
	if ties == 0 {
		t.Error("no replayed departure tied with an event of its hop: the tie rule went unexercised")
	}
	t.Logf("%d ties ordered", ties)
}

// TestPerHopMatchesSingleEngineBenchCell pins the benchmark's Study B cell
// shape (K 8, ρ 0.95, F 100, R_u 200) at its default seed, shortened.
func TestPerHopMatchesSingleEngineBenchCell(t *testing.T) {
	if ties := matchSingleEngine(t, diffConfig(15, core.KindWTP, 1999, 1, 2)); ties == 0 {
		t.Error("no tie ordered on an 8-hop path at rho 0.95")
	}
}

// TestReplayRefusesTieWithLocalArrival injects an upstream departure at the
// instant one of the hop's own cross sources emitted: the single-engine
// order of the two is unknown, so the run must fail rather than pick one.
func TestReplayRefusesTieWithLocalArrival(t *testing.T) {
	pa, err := newPath(quickConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	h := pa.hops[1]
	if !h.engine.Step() || h.lastLocal != h.engine.Now() {
		t.Fatal("the hop's first event was not a cross emission")
	}
	err = h.replay([]departure{{at: h.lastLocal, id: 7, flow: 1, chain: 99, size: 500}})
	if err == nil || !strings.Contains(err.Error(), "unknown order") {
		t.Fatalf("replay at a cross emission instant: err %v, want the tie guard", err)
	}
}

// TestReplayRefusesTieOutsideLockstep injects an upstream departure at the
// instant the hop ended a transmission in a busy period its own cross
// traffic started: the two belong to different chains, and nothing orders
// them.
func TestReplayRefusesTieOutsideLockstep(t *testing.T) {
	pa, err := newPath(quickConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	h := pa.hops[1]
	for h.engine.Step() && h.lastFinish != h.engine.Now() {
	}
	if h.lastFinish == 0 {
		t.Fatal("no transmission ended")
	}
	err = h.replay([]departure{{at: h.lastFinish, id: 7, flow: 1, chain: 99, size: 500}})
	if err == nil || !strings.Contains(err.Error(), "unknown order") {
		t.Fatalf("replay at a transmission end: err %v, want the tie guard", err)
	}
}
