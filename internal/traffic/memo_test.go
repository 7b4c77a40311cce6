package traffic_test

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/sim"
	"pdds/internal/stats"
	"pdds/internal/traffic"
)

// departure is one departed packet, every time field as its bits.
type departure struct {
	id                        uint64
	class                     int
	size                      int64
	arrival, start, departure uint64
}

// outcome is what a single-link run produced, bit for bit.
type outcome struct {
	deps                []departure
	util                uint64
	generated, departed uint64
}

func record(deps *[]departure) func(*core.Packet) {
	return func(p *core.Packet) {
		*deps = append(*deps, departure{p.ID, p.Class, p.Size,
			math.Float64bits(p.Arrival), math.Float64bits(p.Start), math.Float64bits(p.Departure)})
	}
}

// reference runs cfg through the wiring link.Run used before the memo:
// Build, StartAll and link.New on a fresh heap engine, every arrival drawn
// live.
func reference(t testing.TB, cfg link.RunConfig) outcome {
	t.Helper()
	return referenceOn(t, sim.NewEngine(), cfg)
}

// referenceOn is reference on the given fresh engine.
func referenceOn(t testing.TB, engine *sim.Engine, cfg link.RunConfig) outcome {
	t.Helper()
	sched, err := core.New(cfg.Kind, cfg.SDP, cfg.LinkRate)
	if err != nil {
		t.Fatal(err)
	}
	l := link.New(engine, cfg.LinkRate, sched)
	pool := core.NewPacketPool()
	l.Pool = pool
	var out outcome
	delays := stats.NewClassDelays(len(cfg.SDP))
	obs := record(&out.deps)
	l.OnDepart = func(p *core.Packet) {
		if p.Departure >= cfg.Warmup {
			delays.Observe(p)
		}
		obs(p)
	}
	sources, err := cfg.Load.Build(cfg.LinkRate, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sources {
		s.Pool = pool
	}
	traffic.StartAll(engine, sources, func(p *core.Packet) {
		out.generated++
		l.Arrive(p)
	})
	engine.RunUntil(cfg.Horizon)
	out.util = math.Float64bits(l.Utilization())
	out.departed = l.Departed()
	return out
}

// runLink is link.Run with every departure recorded.
func runLink(cfg link.RunConfig) (outcome, error) {
	var out outcome
	cfg.Observers = []func(*core.Packet){record(&out.deps)}
	res, err := link.Run(cfg)
	if err != nil {
		return out, err
	}
	out.util = math.Float64bits(res.Utilization)
	out.generated, out.departed = res.Generated, res.Departed
	return out, nil
}

func run(t testing.TB, cfg link.RunConfig) outcome {
	t.Helper()
	out, err := runLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameOutcome(t testing.TB, what string, got, want outcome) {
	t.Helper()
	if got.generated != want.generated || got.departed != want.departed || got.util != want.util {
		t.Fatalf("%s: generated/departed/utilization %d/%d/%x, want %d/%d/%x",
			what, got.generated, got.departed, got.util, want.generated, want.departed, want.util)
	}
	if len(got.deps) != len(want.deps) {
		t.Fatalf("%s: %d departures, want %d", what, len(got.deps), len(want.deps))
	}
	for i := range got.deps {
		if got.deps[i] != want.deps[i] {
			t.Fatalf("%s: departure %d is %+v, want %+v", what, i, got.deps[i], want.deps[i])
		}
	}
}

func holds(cfg link.RunConfig) bool {
	return traffic.MemoHolds(cfg.Load, cfg.LinkRate, cfg.Horizon, cfg.Seed)
}

// Every discipline sees, cold and warm, exactly the departures the live
// Build + StartAll wiring produces, bit for bit.
func TestRunMatchesLiveWiring(t *testing.T) {
	sdp := []float64{1, 2, 4, 8}
	poisson := traffic.PaperLoad(0.9)
	poisson.Poisson = true
	fixed := traffic.PaperLoad(0.95)
	fixed.Sizes = traffic.NewFixedSize(441)
	zero := traffic.PaperLoad(0.95)
	zero.Fractions = []float64{0.5, 0, 0.3, 0.2}
	cases := []struct {
		name    string
		load    traffic.LoadSpec
		horizon float64
	}{
		{"pareto", traffic.PaperLoad(0.95), 3e4},
		{"poisson", poisson, 3e4},
		{"fixed size", fixed, 3e4},
		{"zero-fraction class", zero, 3e4},
		// Shorter than some sources' first interarrival: their streams
		// end before they begin.
		{"early end", traffic.PaperLoad(0.95), 25},
	}
	for _, tc := range cases {
		for _, kind := range core.Kinds() {
			cfg := link.RunConfig{Kind: kind, SDP: sdp, Load: tc.load, LinkRate: link.PaperLinkRate,
				Horizon: tc.horizon, Warmup: tc.horizon / 10, Seed: 4242}
			want := reference(t, cfg)
			traffic.ResetMemo()
			sameOutcome(t, tc.name+" cold "+string(kind), run(t, cfg), want)
			if !holds(cfg) {
				t.Fatalf("%s: a cold run left nothing to replay", tc.name)
			}
			sameOutcome(t, tc.name+" warm "+string(kind), run(t, cfg), want)
		}
	}
}

// The calendar-queue engine orders every discipline's workload exactly as
// the heap does.
func TestReferenceOnCalendarEngine(t *testing.T) {
	for _, kind := range core.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := link.RunConfig{Kind: kind, SDP: []float64{1, 2, 4, 8}, Load: traffic.PaperLoad(0.95),
				LinkRate: link.PaperLinkRate, Horizon: 3e4, Warmup: 3e3, Seed: 4242}
			sameOutcome(t, "calendar", referenceOn(t, sim.NewEngineCalendar(), cfg), reference(t, cfg))
		})
	}
}

// A run drawing more than MemoCap arrivals finishes live, exactly, and is
// not memoised.
func TestRunPastMemoCap(t *testing.T) {
	load := traffic.PaperLoad(0.95)
	lambda := load.Rho * link.PaperLinkRate / load.Sizes.Mean()
	cfg := link.RunConfig{Kind: core.KindWTP, SDP: []float64{1, 2, 4, 8}, Load: load,
		LinkRate: link.PaperLinkRate, Horizon: 1.1 * traffic.MemoCap / lambda, Seed: 11}
	want := reference(t, cfg)
	if want.generated <= traffic.MemoCap {
		t.Fatalf("%d arrivals do not pass the cap of %d", want.generated, traffic.MemoCap)
	}
	sameOutcome(t, "past the cap", run(t, cfg), want)
	if holds(cfg) {
		t.Fatal("a run past the cap was memoised")
	}
}

// Recording stops at the cap, so what a run past it allocates does not
// grow with its horizon.
func TestFeedPastCapAllocatesBoundedMemory(t *testing.T) {
	load := traffic.PaperLoad(0.95)
	lambda := load.Rho * link.PaperLinkRate / load.Sizes.Mean()
	allocated := func(horizon float64) uint64 {
		pool := core.NewPacketPool()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := traffic.Feed(sim.NewEngine(), load, link.PaperLinkRate, horizon, 12, pool, pool.Put)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	short := allocated(1.2 * traffic.MemoCap / lambda)
	long := allocated(2.4 * traffic.MemoCap / lambda)
	const arrivalBytes = 12
	if limit := uint64(2 * arrivalBytes * traffic.MemoCap); short > limit || long > limit {
		t.Fatalf("past the cap, runs allocated %d and %d bytes; the cap allows %d", short, long, limit)
	}
	if float64(long) > 1.25*float64(short) {
		t.Fatalf("twice the horizon past the cap allocated %d bytes against %d", long, short)
	}
}

// The key covers the size distribution's contents and a private copy of
// the class fractions.
func TestMemoKeyIsExact(t *testing.T) {
	sdp := []float64{1, 2, 4, 8}
	base := link.RunConfig{Kind: core.KindWTP, SDP: sdp, LinkRate: link.PaperLinkRate,
		Horizon: 3e4, Warmup: 1e3, Seed: 5150}

	// Same mean, so the same rates and interarrivals; different sizes.
	a, b := base, base
	a.Load = traffic.PaperLoad(0.9)
	a.Load.Sizes = traffic.NewDiscrete([]int64{100, 300}, []float64{0.5, 0.5})
	b.Load = traffic.PaperLoad(0.9)
	b.Load.Sizes = traffic.NewDiscrete([]int64{200}, []float64{1})
	run(t, a)
	sameOutcome(t, "same-mean sizes", run(t, b), reference(t, b))

	// Mutating the caller's fractions after a run must not replay the
	// arrivals recorded under the old ones.
	c := base
	c.Load = traffic.PaperLoad(0.9)
	c.Load.Fractions = []float64{0.4, 0.3, 0.2, 0.1}
	run(t, c)
	c.Load.Fractions[0], c.Load.Fractions[1] = 0.3, 0.4
	sameOutcome(t, "mutated fractions", run(t, c), reference(t, c))

	// A caller-defined size distribution, or sizes past a stream's 4
	// bytes, are drawn live, never recorded.
	for _, sizes := range []traffic.SizeDist{callerSizes{}, traffic.NewFixedSize(1 << 40)} {
		d := base
		d.Load = traffic.PaperLoad(0.9)
		d.Load.Sizes = sizes
		want := reference(t, d)
		for i := 0; i < 2; i++ {
			sameOutcome(t, sizes.String(), run(t, d), want)
			if holds(d) {
				t.Fatalf("%s was memoised", sizes)
			}
		}
	}
}

// callerSizes is a SizeDist the traffic package does not own.
type callerSizes struct{}

func (callerSizes) Next(rng *rand.Rand) int64 { return 40 + rng.Int64N(1000) }
func (callerSizes) Mean() float64             { return 539.5 }
func (callerSizes) String() string            { return "caller" }

// Concurrent runs on the same and on different keys, as experiments.ForEach
// makes them, each match a serial run.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	cfgs := make([]link.RunConfig, 2)
	want := make([]outcome, len(cfgs))
	for i := range cfgs {
		cfgs[i] = link.RunConfig{Kind: core.Kinds()[i], SDP: []float64{1, 2, 4, 8}, Load: traffic.PaperLoad(0.95),
			LinkRate: link.PaperLinkRate, Horizon: 2e4, Warmup: 1e3, Seed: uint64(900 + i)}
		want[i] = reference(t, cfgs[i])
	}
	var wg sync.WaitGroup
	got := make([][]outcome, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				out, err := runLink(cfgs[(g+r/3)%len(cfgs)])
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], out)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := range got {
		for r, out := range got[g] {
			sameOutcome(t, "concurrent", out, want[(g+r/3)%len(cfgs)])
		}
	}
}

// Replayed arrivals, in the order the engine delivers them, are the trace
// Record draws on its own engine.
func TestFeedReplayMatchesRecord(t *testing.T) {
	load := traffic.PaperLoad(0.95)
	const horizon, seed = 5e4, 31337
	tr, err := traffic.Record(load, link.PaperLinkRate, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	traffic.ResetMemo()
	for _, warm := range []bool{false, true} {
		var got []traffic.Arrival
		err := traffic.Feed(sim.NewEngine(), load, link.PaperLinkRate, horizon, seed, nil, func(p *core.Packet) {
			got = append(got, traffic.Arrival{Class: p.Class, Size: p.Size, Time: p.Arrival})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !traffic.MemoHolds(load, link.PaperLinkRate, horizon, seed) {
			t.Fatalf("warm=%v: the memo does not hold the feed's arrivals", warm)
		}
		if len(got) != len(tr.Arrivals) {
			t.Fatalf("warm=%v: %d arrivals, Record drew %d", warm, len(got), len(tr.Arrivals))
		}
		for i := range got {
			if got[i] != tr.Arrivals[i] {
				t.Fatalf("warm=%v: arrival %d is %+v, Record drew %+v", warm, i, got[i], tr.Arrivals[i])
			}
		}
	}
}
