package network

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

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
// returns the per-hop run's path (its ties count the same-instant ties it
// ordered).
func matchSingleEngine(t *testing.T, cfg Config) *path {
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
	return pa
}

// extended reports whether pa's run went past its first horizon, that is,
// through Run's extend loop.
func extended(pa *path) bool {
	for _, h := range pa.hops {
		if h.engine.Now() > pa.draw.horizon {
			return true
		}
	}
	return false
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
// exercised, not only stated. One more configuration is slow enough that
// its last user packets leave after the first horizon, so its run goes
// through the extend loop and the slabs past that horizon are compared too.
func TestPerHopMatchesSingleEngine(t *testing.T) {
	var ties int
	for ki, kind := range diffKinds {
		for k := 0; k < 4; k++ {
			cell := 4*k + (ki+k)%4
			ties += matchSingleEngine(t, diffConfig(cell, kind, uint64(1+(ki+k)%3), 0.5, 2)).ties
		}
	}
	// 16 hops of a 10 kbit/s link take 16 × 0.4 s to cross, more than the
	// 5 s (and one 40 ms packet gap) the first horizon leaves the last flow.
	slow := Config{
		Hops: 16, Rho: 0.95, SDP: []float64{1, 2}, LinkBps: 10000,
		FlowPackets: 1, FlowKbps: 100, Experiments: 2, Seed: 1,
	}
	if pa := matchSingleEngine(t, slow); !extended(pa) {
		t.Error("the slow path was delivered by its first horizon: the extend loop went unexercised")
	} else {
		ties += pa.ties
	}
	if ties == 0 {
		t.Error("no replayed departure tied with an event of its hop: the tie rule went unexercised")
	}
	t.Logf("%d ties ordered", ties)
}

// TestPerHopMatchesSingleEngineBenchCell pins the benchmark's Study B cell
// shape (K 8, ρ 0.95, F 100, R_u 200) at its default seed, shortened.
func TestPerHopMatchesSingleEngineBenchCell(t *testing.T) {
	if pa := matchSingleEngine(t, diffConfig(15, core.KindWTP, 1999, 1, 2)); pa.ties == 0 {
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
	loadSlab(pa, h)
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
	loadSlab(pa, h)
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

// TestRunEndsDrawer checks that the drawing goroutine has ended whenever
// run returns: after a delivered run, after a replay the tie guard refuses,
// and after a path whose deliveries fall short.
func TestRunEndsDrawer(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(*path)
		wantErr string
	}{
		{"delivered", func(*path) {}, ""},
		{"refused", func(pa *path) {
			// Hop 0 logs each user departure twice, the copy in a chain of
			// its own, so hop 1 meets the copy at the instant it replayed
			// the original: an order the guard refuses.
			h := pa.hops[0]
			h.link.OnDepart = func(p *core.Packet) {
				h.depart(p)
				if p.Flow != 0 {
					d := (*h.out)[len(*h.out)-1]
					d.chain = math.MaxUint64
					*h.out = append(*h.out, d)
				}
			}
		}, "unknown order"},
		{"saturated", func(pa *path) { pa.expected++ }, "path saturated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := quickConfig()
			cfg.LinkBps = 1e6 // few cross packets: the saturated case runs every extension
			pa, err := newPath(cfg.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			tc.prepare(pa)
			_, err = pa.run()
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("run: err %v, want %q", err, tc.wantErr)
			}
			// stop has waited for the goroutine's last deferred call; let
			// it finish returning.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after run, %d before", n, before)
			}
		})
	}
}

// TestDrainedRefusesInexactWindows shortens and lengthens a source's
// window of a slab's draws: the source meets an emission without a draw,
// or leaves one unused, and either is an error.
func TestDrainedRefusesInexactWindows(t *testing.T) {
	cases := []struct {
		name string
		edit func(*drawSet)
		want string
	}{
		{"exact", func(*drawSet) {}, ""},
		{"short", func(s *drawSet) { s.off[1]-- }, "emitted past its draws"},
		{"long", func(s *drawSet) {
			s.inter, s.class = append(s.inter, 1), append(s.class, 0)
			s.off[len(s.off)-1]++
		}, "left 1 draws"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pa, err := newPath(quickConfig().withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			h := pa.hops[1]
			set := new(drawSet)
			pa.draw.fill(set, h.index, slabSec)
			tc.edit(set)
			h.load(set)
			h.engine.RunUntil(slabSec)
			err = h.drained(slabSec)
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("drained: err %v, want %q", err, tc.want)
			}
		})
	}
}

// loadSlab draws h's cross traffic for the first slab on the caller's
// goroutine and hands it to h's sources, as runSlab does with the drawer's.
func loadSlab(pa *path, h *hop) {
	set := new(drawSet)
	pa.draw.fill(set, h.index, slabSec)
	h.load(set)
}
