package chaos

import (
	"pdds/internal/core"
	"pdds/internal/traffic"
)

// Plans returns the standard stress-plan catalog for one scheduler,
// parameterized by horizon (time units) and a base seed. Action times are
// fractions of the horizon, so the same catalog scales from a quick CI
// smoke to a multi-million-packet soak without editing the scripts. Plan
// i runs with seed base+i, so the full matrix is reproducible from one
// number.
//
// The catalog covers the perturbation axes of §5.4's dynamics argument:
// stationary heavy load (control), load steps and ramps across the
// moderate→heavy boundary, a class-mix shift at constant total load,
// source on/off churn, link-capacity flaps (including a transient
// overload) and packet burst trains.
func Plans(kind core.Kind, horizon float64, seed uint64) []SimPlan {
	warm := 0.1 * horizon
	flat := kind == core.KindFCFS
	std := func(i int, name string, rho float64, tl Timeline) SimPlan {
		return SimPlan{
			Name:     name,
			Kind:     kind,
			SDP:      []float64{1, 2, 4, 8},
			Load:     traffic.PaperLoad(rho),
			Horizon:  horizon,
			Warmup:   warm,
			Seed:     seed + uint64(i),
			Timeline: tl,
			Expect:   Expectation{Flat: flat},
		}
	}

	// steady-heavy: the stationary ρ=0.95 control. Any invariant breach
	// here is a harness or scheduler bug, not a perturbation effect.
	steady := std(0, "steady-heavy", 0.95, Timeline{Name: "none"})

	// steady-poisson: same control under exponential interarrivals,
	// separating heavy-tail variance effects from scheduler effects.
	poisson := std(1, "steady-poisson", 0.95, Timeline{Name: "none"})
	poisson.Load.Poisson = true

	// load-step: moderate load jumps to heavy at 40% of the run — the
	// regime boundary where the paper says WTP's ratio tracking switches
	// from loose to tight.
	step := std(2, "load-step", 0.75, Timeline{Name: "step-0.75-to-0.95", Actions: []Action{
		{At: 0.4 * horizon, Op: OpScaleLoad, Factor: 0.95 / 0.75},
	}})

	// load-ramp: a staircase ramp ρ 0.70→0.95 across the middle of the
	// run; every stair is its own judged segment.
	ramp := std(3, "load-ramp", 0.70, Timeline{
		Name:    "ramp-0.70-to-0.95",
		Actions: Ramp(0.3*horizon, 0.7*horizon, 8, 1.0, 0.95/0.70),
	})

	// class-shift: at constant total load, half of the lowest class's
	// traffic migrates to the highest class — the "ratios independent of
	// the class load distribution" claim, directly.
	shift := std(4, "class-shift", 0.90, Timeline{Name: "mix-shift", Actions: []Action{
		{At: 0.4 * horizon, Op: OpScaleClass, Class: 0, Factor: 0.5},
		{At: 0.4 * horizon, Op: OpScaleClass, Class: 3, Factor: 3.0},
	}})

	// source-churn: the highest class blinks off and on through the middle
	// of the run, emptying its queue mid-busy-period repeatedly.
	churn := std(5, "source-churn", 0.90, Timeline{
		Name:    "class3-on-off",
		Actions: Toggle(3, 0.35*horizon, 0.1*horizon, 0.75*horizon),
	})

	// link-flap: capacity drops to 75% for 30% of the run, pushing the
	// offered load transiently past 1 (ρ_eff ≈ 1.13), then recovers.
	flap := std(6, "link-flap", 0.85, Timeline{Name: "rate-dip", Actions: []Action{
		{At: 0.35 * horizon, Op: OpSetLinkRate, Factor: 0.75},
		{At: 0.65 * horizon, Op: OpSetLinkRate, Factor: 1.0},
	}})

	// burst-train: three 300-packet MTU bursts land in the highest
	// (lowest-delay) class on top of ρ=0.90 background traffic. A train
	// queueing behind itself inflates that class's own mean delay beyond
	// what any work-conserving scheduler can differentiate away, so this
	// plan stresses conservation and pool integrity, not the windows.
	burst := std(7, "burst-train", 0.90, Timeline{Name: "class3-bursts", Actions: []Action{
		{At: 0.4 * horizon, Op: OpBurst, Class: 3, Count: 300, Size: 1500},
		{At: 0.5 * horizon, Op: OpBurst, Class: 3, Count: 300, Size: 1500},
		{At: 0.6 * horizon, Op: OpBurst, Class: 3, Count: 300, Size: 1500},
	}})
	burst.Expect.SkipRatios = true

	return []SimPlan{steady, poisson, step, ramp, shift, churn, flap, burst}
}

// NetPlans returns the standard live-forwarder fault catalog. Each plan
// gets its own FaultPlan instance (they carry per-run counters), so call
// this once per stress run.
func NetPlans() []NetPlan {
	return []NetPlan{
		{
			Name:            "wire-corrupt",
			Fault:           &FaultPlan{Name: "wire-corrupt", CorruptEvery: 7, TruncateEvery: 11},
			ExpectForwarded: true,
		},
		{
			Name:            "wire-dup-reorder",
			Fault:           &FaultPlan{Name: "wire-dup-reorder", DupEvery: 5, ReorderEvery: 9},
			ExpectForwarded: true,
		},
		{
			Name:            "transient-errors",
			Fault:           &FaultPlan{Name: "transient-errors", TransientEvery: 4, TransientFails: 2},
			ExpectForwarded: true,
		},
		{
			Name: "seeded-mixture",
			Fault: &FaultPlan{
				Name: "seeded-mixture", Seed: 0xC0FFEE,
				CorruptEvery: 16, DupEvery: 16, ReorderEvery: 16,
				TransientEvery: 16, TransientFails: 1,
			},
			ExpectForwarded: true,
		},
		{
			Name:             "persistent-outage",
			Fault:            &FaultPlan{Name: "persistent-outage", FailFrom: 0, FailTo: 1 << 62},
			ExpectAllDropped: true,
		},
		// Sharded variants: the same wire faults with the ingress split
		// across SO_REUSEPORT shards, so the fault path is exercised
		// against the SPSC rings and the stamp-merged egress. The
		// conservation oracle is shard-count-independent.
		{
			Name:            "wire-corrupt-sharded",
			Fault:           &FaultPlan{Name: "wire-corrupt-sharded", CorruptEvery: 7, TruncateEvery: 11},
			Shards:          4,
			ExpectForwarded: true,
		},
		{
			Name: "seeded-mixture-sharded",
			Fault: &FaultPlan{
				Name: "seeded-mixture-sharded", Seed: 0xC0FFEE,
				CorruptEvery: 16, DupEvery: 16, ReorderEvery: 16,
				TransientEvery: 16, TransientFails: 1,
			},
			Shards:          4,
			ExpectForwarded: true,
		},
		{
			Name:             "persistent-outage-sharded",
			Fault:            &FaultPlan{Name: "persistent-outage-sharded", FailFrom: 0, FailTo: 1 << 62},
			Shards:           8,
			ExpectAllDropped: true,
		},
	}
}
