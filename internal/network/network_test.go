package network

import (
	"math"
	"testing"

	"pdds/internal/core"
)

func quickConfig() Config {
	return Config{
		Hops:        2,
		Rho:         0.85,
		SDP:         []float64{1, 2, 4, 8},
		FlowPackets: 10,
		FlowKbps:    50,
		Experiments: 5,
		WarmupSec:   3,
		Seed:        1,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := quickConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Hops = 0 },
		func(c *Config) { c.Rho = 0 },
		func(c *Config) { c.Rho = 1 },
		func(c *Config) { c.SDP = []float64{1} },
		func(c *Config) { c.FlowPackets = 0 },
		func(c *Config) { c.FlowKbps = 0 },
		func(c *Config) { c.Experiments = 0 },
		func(c *Config) { c.WarmupSec = -1 },
	}
	for i, mutate := range mutations {
		c := quickConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunDeliversAllFlows(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 5 {
		t.Fatalf("experiments = %d, want 5", len(res.Flows))
	}
	for m, exp := range res.Flows {
		for c, fs := range exp {
			if fs.Delays.Len() != 10 {
				t.Fatalf("experiment %d class %d delivered %d packets, want 10",
					m, c, fs.Delays.Len())
			}
			if fs.Class != c || fs.Experiment != m {
				t.Fatal("flow metadata wrong")
			}
		}
	}
	if res.CrossPackets == 0 {
		t.Fatal("no cross traffic served")
	}
	if math.Abs(res.Utilization-0.85) > 0.12 {
		t.Fatalf("utilization = %g, want ~0.85", res.Utilization)
	}
	// Higher classes should see lower mean end-to-end delay.
	for c := 0; c+1 < 4; c++ {
		if !(res.MeanE2E[c] > res.MeanE2E[c+1]) {
			t.Fatalf("mean E2E not ordered: %v", res.MeanE2E)
		}
	}
	if res.RD <= 1 {
		t.Fatalf("RD = %g, want > 1", res.RD)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.RD != b.RD || a.CrossPackets != b.CrossPackets || a.Inconsistent != b.Inconsistent {
		t.Fatal("same-seed Study B runs diverged")
	}
}

func TestRunStrictSchedulerOption(t *testing.T) {
	cfg := quickConfig()
	cfg.Scheduler = core.KindStrict
	cfg.Experiments = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Strict priority gives consistent ordering too, just uncontrolled
	// spacing; delivery must still complete.
	if len(res.Flows) != 2 {
		t.Fatal("strict run incomplete")
	}
}

func TestRunRejectsOverload(t *testing.T) {
	cfg := quickConfig()
	cfg.LinkBps = 1e5 // 100 kbps: user flows alone exceed rho
	if _, err := Run(cfg); err == nil {
		t.Fatal("overloaded config accepted")
	}
}

func TestCumulativeMix(t *testing.T) {
	four := cumulativeMix(4)
	want := []float64{0.40, 0.70, 0.90, 1.0}
	for i := range want {
		if math.Abs(four[i]-want[i]) > 1e-12 {
			t.Fatalf("4-class mix = %v", four)
		}
	}
	three := cumulativeMix(3)
	if three[2] != 1 {
		t.Fatal("3-class mix not normalized")
	}
	// Geometric halving: p0 = 4/7, p1 = 2/7, p2 = 1/7.
	if math.Abs(three[0]-4.0/7.0) > 1e-12 {
		t.Fatalf("3-class mix = %v", three)
	}
}

func TestMetricsConsistencyDetection(t *testing.T) {
	// Hand-build a result with an inconsistent experiment: class 1
	// slower than class 0.
	r := &Result{MeanE2E: make([]float64, 2)}
	mkFlow := func(exp, class int, base float64) *FlowStats {
		fs := &FlowStats{Experiment: exp, Class: class}
		for i := 0; i < 10; i++ {
			fs.Delays.Add(base + float64(i))
		}
		return fs
	}
	r.Flows = [][]*FlowStats{
		{mkFlow(0, 0, 100), mkFlow(0, 1, 50)}, // consistent
		{mkFlow(1, 0, 50), mkFlow(1, 1, 100)}, // inconsistent
	}
	r.computeMetrics(2)
	if r.InconsistentExperiments != 1 {
		t.Fatalf("InconsistentExperiments = %d, want 1", r.InconsistentExperiments)
	}
	if r.Inconsistent == 0 {
		t.Fatal("no inconsistent comparisons counted")
	}
	if r.MeanE2E[0] <= 0 || r.RD <= 0 {
		t.Fatal("metrics not computed")
	}
}

func TestPerHopStats(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerHopUtilization) != 2 || len(res.PerHopMeanDelay) != 2 {
		t.Fatalf("per-hop stats missing: %d/%d", len(res.PerHopUtilization), len(res.PerHopMeanDelay))
	}
	for h := 0; h < 2; h++ {
		if res.PerHopUtilization[h] < 0.6 {
			t.Fatalf("hop %d utilization %.2f", h, res.PerHopUtilization[h])
		}
		// Each hop individually differentiates: class 1 slower than
		// class 4.
		if !(res.PerHopMeanDelay[h][0] > res.PerHopMeanDelay[h][3]) {
			t.Fatalf("hop %d per-class delays not ordered: %v", h, res.PerHopMeanDelay[h])
		}
	}
}
