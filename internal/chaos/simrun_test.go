package chaos

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/traffic"
)

const testHorizon = 20000.0 // ~1.7k packets at rho 0.95: fast but non-trivial

func quickPlan(kind core.Kind, tl Timeline) SimPlan {
	return SimPlan{
		Name:     "quick-" + tl.Name,
		Kind:     kind,
		SDP:      []float64{1, 2, 4, 8},
		Load:     traffic.PaperLoad(0.95),
		Horizon:  testHorizon,
		Warmup:   0.1 * testHorizon,
		Seed:     7,
		Timeline: tl,
	}
}

func TestSimPlanValidate(t *testing.T) {
	good := quickPlan(core.KindWTP, Timeline{Name: "none"})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*SimPlan)
	}{
		{"no name", func(p *SimPlan) { p.Name = "" }},
		{"sdp mismatch", func(p *SimPlan) { p.SDP = []float64{1, 2} }},
		{"zero horizon", func(p *SimPlan) { p.Horizon = 0 }},
		{"warmup past horizon", func(p *SimPlan) { p.Warmup = testHorizon }},
		{"bad action", func(p *SimPlan) { p.Timeline.Actions = []Action{{At: 1}} }},
		{"bad load", func(p *SimPlan) { p.Load.Rho = 0 }},
	}
	for _, tc := range bad {
		p := quickPlan(core.KindWTP, Timeline{Name: "none"})
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the plan", tc.name)
		}
	}
}

// TestRunSimMatchesLinkRun pins the golden-trace-safety property at the
// harness level: a chaos run with an empty timeline must produce exactly
// the statistics of the plain link.Run harness on the same configuration —
// the chaos layer's scheduled snapshots and ticks are pure observers.
func TestRunSimMatchesLinkRun(t *testing.T) {
	plan := quickPlan(core.KindWTP, Timeline{Name: "none"})
	res, err := RunSim(plan)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := link.Run(link.RunConfig{
		Kind: plan.Kind, SDP: plan.SDP, Load: plan.Load,
		Horizon: plan.Horizon, Warmup: plan.Warmup, Seed: plan.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != ref.Generated || res.Departed != ref.Departed || res.Dropped != ref.Dropped {
		t.Errorf("counts diverge: chaos gen/dep/drop %d/%d/%d vs link.Run %d/%d/%d",
			res.Generated, res.Departed, res.Dropped, ref.Generated, ref.Departed, ref.Dropped)
	}
	// Utilization divides the same busy time by engine.Now(), and the
	// chaos ticker parks the clock exactly on the horizon while link.Run's
	// last packet event falls just short — a denominator gap of less than
	// one interarrival, not a trace difference.
	if math.Abs(res.Utilization-ref.Utilization) > 1e-3*ref.Utilization {
		t.Errorf("utilization diverges: %v vs %v", res.Utilization, ref.Utilization)
	}
	refRatios := ref.Delays.SuccessiveRatios()
	for i, r := range res.Ratios {
		if r != refRatios[i] {
			t.Errorf("ratio %d diverges: %v vs %v", i, r, refRatios[i])
		}
	}
	if !res.Ok() {
		t.Errorf("control run has violations: %v", res.Violations)
	}
}

// TestRunSimDeterministic: same plan, same seed, byte-identical JSON.
func TestRunSimDeterministic(t *testing.T) {
	tl := Timeline{Name: "mix", Actions: []Action{
		{At: 0.3 * testHorizon, Op: OpScaleLoad, Factor: 1.2},
		{At: 0.5 * testHorizon, Op: OpBurst, Class: 2, Count: 50, Size: 1500},
		{At: 0.6 * testHorizon, Op: OpSetLinkRate, Factor: 0.8},
	}}
	run := func() []byte {
		res, err := RunSim(quickPlan(core.KindWTP, tl))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Errorf("same plan+seed produced different JSON:\n%s\n%s", a, b)
	}

	res, err := RunSim(quickPlan(core.KindWTP, Timeline{Name: "none"}))
	if err != nil {
		t.Fatal(err)
	}
	other := quickPlan(core.KindWTP, Timeline{Name: "none"})
	other.Seed = 8
	res2, err := RunSim(other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == res2.Generated && res.Ratios[0] == res2.Ratios[0] {
		t.Error("different seeds produced identical runs")
	}
}

// TestRunSimCatalogInvariants runs the full standard catalog for WTP and
// FCFS at a small horizon: every perturbation, with conservation,
// pool-leak, monotonicity and telemetry-agreement checks live.
func TestRunSimCatalogInvariants(t *testing.T) {
	for _, kind := range []core.Kind{core.KindWTP, core.KindFCFS} {
		for _, plan := range Plans(kind, testHorizon, 1000) {
			res, err := RunSim(plan)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, plan.Name, err)
			}
			if !res.Ok() {
				t.Errorf("%s/%s: violations: %v", kind, plan.Name, res.Violations)
			}
			if res.Generated == 0 || res.Departed == 0 {
				t.Errorf("%s/%s: empty run (gen=%d dep=%d)", kind, plan.Name, res.Generated, res.Departed)
			}
		}
	}
}

// TestRunSimJudgesSegments uses a longer horizon and a low departure gate
// so the steady-heavy control actually gets judged — and passes for WTP.
func TestRunSimJudgesSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("longer horizon")
	}
	plan := quickPlan(core.KindWTP, Timeline{Name: "none"})
	plan.Horizon = 1e5
	plan.Warmup = 1e4
	plan.Expect.MinDepartures = 100
	res, err := RunSim(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 {
		t.Fatalf("got %d segments, want 1: %+v", len(res.Segments), res.Segments)
	}
	seg := res.Segments[0]
	if !seg.Judged {
		t.Fatalf("steady-heavy segment not judged: %+v", seg)
	}
	if !seg.Ok || !res.Ok() {
		t.Errorf("WTP failed its own window: %+v, violations %v", seg, res.Violations)
	}
	if math.Abs(seg.RhoEff-0.95) > 1e-9 {
		t.Errorf("RhoEff = %g, want 0.95", seg.RhoEff)
	}
}

// TestRunSimSourceChurnDrains: pausing a class stops its arrivals, and the
// paused stretch conserves packets; resuming restores arrivals.
func TestRunSimSourceChurn(t *testing.T) {
	tl := Timeline{Name: "churn", Actions: Toggle(3, 0.3*testHorizon, 0.2*testHorizon, 0.8*testHorizon)}
	res, err := RunSim(quickPlan(core.KindWTP, tl))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Errorf("churn run violations: %v", res.Violations)
	}
	// The churned class must still have departures (it was on 0–30%,
	// 50–70%, and 80–100% of the run).
	ctrl, err := RunSim(quickPlan(core.KindWTP, Timeline{Name: "none"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated >= ctrl.Generated {
		t.Errorf("pausing a class did not reduce arrivals: churn %d vs control %d",
			res.Generated, ctrl.Generated)
	}
}

// TestRunSimBurstConservation: injected bursts enter the generated count
// and the pool-leak identity.
func TestRunSimBurst(t *testing.T) {
	tl := Timeline{Name: "burst", Actions: []Action{
		{At: 0.5 * testHorizon, Op: OpBurst, Class: 0, Count: 200, Size: 1500},
	}}
	res, err := RunSim(quickPlan(core.KindWTP, tl))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Errorf("burst run violations: %v", res.Violations)
	}
	ctrl, err := RunSim(quickPlan(core.KindWTP, Timeline{Name: "none"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != ctrl.Generated+200 {
		t.Errorf("burst generated %d, control %d: want exactly +200", res.Generated, ctrl.Generated)
	}
}

func TestPlansCatalogShape(t *testing.T) {
	plans := Plans(core.KindWTP, 1e6, 77)
	if len(plans) < 6 {
		t.Fatalf("catalog has %d plans, want >= 6", len(plans))
	}
	names := map[string]bool{}
	for i, p := range plans {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %q invalid: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate plan name %q", p.Name)
		}
		names[p.Name] = true
		if p.Seed != 77+uint64(i) {
			t.Errorf("plan %q seed %d, want %d", p.Name, p.Seed, 77+uint64(i))
		}
		for _, a := range p.Timeline.Actions {
			if a.At >= p.Horizon {
				t.Errorf("plan %q action at %g beyond horizon %g", p.Name, a.At, p.Horizon)
			}
		}
	}
	for _, p := range Plans(core.KindFCFS, 1e6, 0) {
		if !p.Expect.Flat {
			t.Errorf("FCFS plan %q not marked flat", p.Name)
		}
	}
}

func TestRunSimRejectsBadPlan(t *testing.T) {
	p := quickPlan(core.KindWTP, Timeline{Name: "none"})
	p.Name = ""
	if _, err := RunSim(p); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("RunSim accepted a nameless plan (err=%v)", err)
	}
	p = quickPlan(core.Kind("nope"), Timeline{Name: "none"})
	if _, err := RunSim(p); err == nil {
		t.Error("RunSim accepted an unknown scheduler kind")
	}
}
