//go:build fullsweep

package traffic

import "testing"

// TestParetoNextMatchesPowFull is TestParetoNextMatchesPow at 50M draws a
// shape. Run it with `make differential`.
func TestParetoNextMatchesPowFull(t *testing.T) { checkParetoMatchesPow(t, 50_000_000) }
