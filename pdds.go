// Package pdds is a Go implementation of Proportional Differentiated
// Services: the relative-differentiation model and the packet schedulers of
// Dovrolis, Stiliadis and Ramanathan, "Proportional Differentiated
// Services: Delay Differentiation and Packet Scheduling" (SIGCOMM 1999).
//
// The package offers five entry points:
//
//   - SimulateLink runs the paper's single-link model (Study A): N classes
//     of bursty Pareto traffic through a WTP, BPR or baseline scheduler,
//     returning per-class queueing-delay statistics and the
//     successive-class delay ratios the proportional model controls.
//
//   - SimulatePath runs the multi-hop model (Study B): per-class user
//     flows across K congested WTP hops with cross-traffic, returning the
//     end-to-end differentiation metrics of Table 1.
//
//   - CheckFeasibility evaluates the Coffman–Mitrani conditions (Eq. 7)
//     to decide whether a set of delay differentiation parameters is
//     achievable at an operating point, before any scheduler is deployed.
//
//   - PlanClasses answers the operator question of §7: derive the
//     scheduler parameters from a per-class delay requirement profile and
//     report whether the plan is achievable.
//
//   - SimulateAdaptation runs the end-system adaptation scenario of §1:
//     users with absolute delay targets dynamically selecting classes.
//
// StartForwarder additionally runs the per-hop behaviour on live UDP
// sockets: a class-marking forwarder whose egress is scheduled by WTP.
//
// NewTelemetry provides live observability for all of the above: lock-free
// per-class counters and delay histograms, streaming adjacent-class delay
// ratios judged against the DDP targets, and an HTTP /metrics endpoint.
// Attach one via LinkConfig.Telemetry, PathConfig.Telemetry or
// ForwarderConfig.MetricsAddr.
//
// All simulation randomness is seeded: equal configurations produce
// bit-identical results.
package pdds

import (
	"fmt"

	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/model"
	"pdds/internal/network"
	"pdds/internal/stats"
	"pdds/internal/traffic"
)

// SchedulerKind names a queueing discipline.
type SchedulerKind string

// Supported scheduler kinds.
const (
	WTP      SchedulerKind = "wtp"      // Waiting-Time Priority (§4.2)
	BPR      SchedulerKind = "bpr"      // Backlog-Proportional Rate (§4.1)
	FCFS     SchedulerKind = "fcfs"     // shared FIFO reference
	Strict   SchedulerKind = "strict"   // strict prioritization
	WFQ      SchedulerKind = "wfq"      // static-weight fair queueing
	Additive SchedulerKind = "additive" // additive differentiation (Eq. 3)
	PAD      SchedulerKind = "pad"      // proportional average delay (§7 follow-up)
	HPD      SchedulerKind = "hpd"      // hybrid WTP/PAD (§7 follow-up)
	DRR      SchedulerKind = "drr"      // deficit round robin
	IWRR     SchedulerKind = "iwrr"     // interleaved weighted round robin
	PF       SchedulerKind = "pf"       // EWMA proportional fair
)

// SchedulerKinds lists every supported kind.
func SchedulerKinds() []SchedulerKind {
	out := make([]SchedulerKind, 0, len(core.Kinds()))
	for _, k := range core.Kinds() {
		out = append(out, SchedulerKind(k))
	}
	return out
}

// PUnit is the paper's packet-time unit for Study A: the mean packet
// transmission time, 11.2 simulation time units.
const PUnit = link.PUnit

// LinkConfig configures SimulateLink. Zero values take the paper's
// defaults where one exists.
type LinkConfig struct {
	// Scheduler is the discipline (default WTP).
	Scheduler SchedulerKind
	// SDP are the scheduler differentiation parameters, one per class,
	// nondecreasing (default 1,2,4,8).
	SDP []float64
	// Utilization is the offered load ρ in (0,1] (default 0.95).
	Utilization float64
	// ClassFractions splits the load across classes, summing to 1
	// (default 0.40,0.30,0.20,0.10). Length must match SDP.
	ClassFractions []float64
	// Poisson switches interarrivals from Pareto(Alpha) to exponential.
	Poisson bool
	// Alpha is the Pareto shape (default 1.9).
	Alpha float64
	// Horizon and Warmup are in time units (defaults 1e6 and 5e4).
	Horizon, Warmup float64
	// Seed drives all randomness (default 1).
	Seed uint64
	// Telemetry, if set, observes the link live: per-class counters,
	// delay histograms and streaming DDP-ratio tracking, including
	// during the run (e.g. from the HTTP endpoint; see NewTelemetry).
	// Unlike the post-run LinkReport, telemetry sees warm-up traffic
	// too.
	Telemetry *Telemetry
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.Scheduler == "" {
		c.Scheduler = WTP
	}
	if len(c.SDP) == 0 {
		c.SDP = []float64{1, 2, 4, 8}
	}
	if c.Utilization == 0 {
		c.Utilization = 0.95
	}
	if len(c.ClassFractions) == 0 && len(c.SDP) == 4 {
		c.ClassFractions = []float64{0.40, 0.30, 0.20, 0.10}
	}
	if c.Alpha == 0 {
		c.Alpha = 1.9
	}
	if c.Horizon == 0 {
		c.Horizon = 1e6
	}
	if c.Warmup == 0 && c.Horizon > 1e5 {
		c.Warmup = 5e4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ClassStat summarizes one class's queueing delays over a run.
type ClassStat struct {
	// Packets is the number of departures measured (post warm-up).
	Packets uint64
	// MeanDelay and StdDelay are in simulation time units.
	MeanDelay, StdDelay float64
	// P50Delay and P95Delay are the median and 95th-percentile delays
	// in simulation time units (0 when the class saw no packets).
	P50Delay, P95Delay float64
	// MeanDelayPUnits is MeanDelay expressed in mean packet
	// transmission times.
	MeanDelayPUnits float64
}

// LinkReport is SimulateLink's result.
type LinkReport struct {
	// Scheduler echoes the discipline that ran.
	Scheduler string
	// Utilization is the realized link utilization.
	Utilization float64
	// Classes holds per-class statistics, index 0 = lowest class.
	Classes []ClassStat
	// DelayRatios[i] is MeanDelay(class i)/MeanDelay(class i+1) — under
	// the proportional model with WTP in heavy load this tends to
	// SDP[i+1]/SDP[i].
	DelayRatios []float64
	// Dropped counts buffer losses (zero in the default lossless
	// model).
	Dropped uint64
}

// SimulateLink runs the single-link model of Study A.
func SimulateLink(cfg LinkConfig) (*LinkReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.ClassFractions) != len(cfg.SDP) {
		return nil, fmt.Errorf("pdds: %d class fractions for %d SDPs", len(cfg.ClassFractions), len(cfg.SDP))
	}
	samples := make([]stats.Sample, len(cfg.SDP))
	warmup := cfg.Warmup
	res, err := link.Run(link.RunConfig{
		Kind: core.Kind(cfg.Scheduler),
		SDP:  cfg.SDP,
		Load: traffic.LoadSpec{
			Rho:       cfg.Utilization,
			Fractions: cfg.ClassFractions,
			Sizes:     traffic.PaperSizes(),
			Alpha:     cfg.Alpha,
			Poisson:   cfg.Poisson,
		},
		Horizon:   cfg.Horizon,
		Warmup:    cfg.Warmup,
		Seed:      cfg.Seed,
		Telemetry: cfg.Telemetry.registry(),
		Observers: []func(*core.Packet){func(p *core.Packet) {
			if p.Departure >= warmup {
				samples[p.Class].Add(p.Wait())
			}
		}},
	})
	if err != nil {
		return nil, err
	}
	rep := &LinkReport{
		Scheduler:   res.SchedulerName,
		Utilization: res.Utilization,
		DelayRatios: res.Delays.SuccessiveRatios(),
		Dropped:     res.Dropped,
	}
	for c := 0; c < len(cfg.SDP); c++ {
		w := res.Delays.Class(c)
		cs := ClassStat{
			Packets:         w.Count(),
			MeanDelay:       w.Mean(),
			StdDelay:        w.Std(),
			MeanDelayPUnits: w.Mean() / link.PUnit,
		}
		if samples[c].Len() > 0 {
			cs.P50Delay = samples[c].Quantile(0.50)
			cs.P95Delay = samples[c].Quantile(0.95)
		}
		rep.Classes = append(rep.Classes, cs)
	}
	return rep, nil
}

// PathConfig configures SimulatePath (Study B). Zero values take the
// paper's defaults.
type PathConfig struct {
	// Hops is the number of congested links K (default 4).
	Hops int
	// Utilization is the per-link load ρ (default 0.95).
	Utilization float64
	// SDP are the per-hop scheduler parameters (default 1,2,4,8).
	SDP []float64
	// Scheduler selects the per-hop discipline (default WTP, the
	// paper's choice "since it performs better than BPR").
	Scheduler SchedulerKind
	// FlowPackets (F, default 10) and FlowKbps (R_u, default 50)
	// describe the user flows.
	FlowPackets int
	FlowKbps    float64
	// Experiments is the number of per-second user experiments M
	// (default 100).
	Experiments int
	// WarmupSec warms the path before the first experiment
	// (default 100).
	WarmupSec float64
	// Seed drives all randomness (default 1).
	Seed uint64
	// Telemetry, if set, observes every hop live, aggregated across the
	// path (see NewTelemetry). The hops are simulated one after another,
	// so a live reader sees them finish in path order, and a delay sum
	// may differ in its last bits from one taken in event order.
	Telemetry *Telemetry
}

// PathReport is SimulatePath's result.
type PathReport struct {
	// RD is the end-to-end delay ratio between successive classes
	// averaged over class pairs, experiments and percentiles — 2.0
	// under ideal proportional differentiation with the default SDPs.
	RD float64
	// Inconsistent counts percentile comparisons where a higher class
	// did worse than a lower one (the paper's headline: zero).
	Inconsistent int
	// InconsistentExperiments counts experiments with at least one
	// inconsistency.
	InconsistentExperiments int
	// MeanE2E is the mean end-to-end queueing delay per class, seconds.
	MeanE2E []float64
	// Utilization is the realized per-link utilization (average).
	Utilization float64
}

// SimulatePath runs the multi-hop model of Study B.
func SimulatePath(cfg PathConfig) (*PathReport, error) {
	if cfg.Hops == 0 {
		cfg.Hops = 4
	}
	if cfg.Utilization == 0 {
		cfg.Utilization = 0.95
	}
	if len(cfg.SDP) == 0 {
		cfg.SDP = []float64{1, 2, 4, 8}
	}
	if cfg.FlowPackets == 0 {
		cfg.FlowPackets = 10
	}
	if cfg.FlowKbps == 0 {
		cfg.FlowKbps = 50
	}
	if cfg.Experiments == 0 {
		cfg.Experiments = 100
	}
	if cfg.WarmupSec == 0 {
		cfg.WarmupSec = 100
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	res, err := network.Run(network.Config{
		Hops:        cfg.Hops,
		Rho:         cfg.Utilization,
		SDP:         cfg.SDP,
		Scheduler:   core.Kind(cfg.Scheduler),
		FlowPackets: cfg.FlowPackets,
		FlowKbps:    cfg.FlowKbps,
		Experiments: cfg.Experiments,
		WarmupSec:   cfg.WarmupSec,
		Seed:        cfg.Seed,
		Telemetry:   cfg.Telemetry.registry(),
	})
	if err != nil {
		return nil, err
	}
	return &PathReport{
		RD:                      res.RD,
		Inconsistent:            res.Inconsistent,
		InconsistentExperiments: res.InconsistentExperiments,
		MeanE2E:                 res.MeanE2E,
		Utilization:             res.Utilization,
	}, nil
}

// FeasibilityConfig configures CheckFeasibility.
type FeasibilityConfig struct {
	// SDP are the scheduler parameters whose induced DDPs (inverse
	// ratios) are checked (default 1,2,4,8).
	SDP []float64
	// Utilization and ClassFractions define the operating point
	// (defaults 0.95 and 0.40/0.30/0.20/0.10).
	Utilization    float64
	ClassFractions []float64
	// Horizon is the trace length used for the FCFS sub-simulations
	// (default 5e5 time units).
	Horizon float64
	// Seed drives the trace (default 1).
	Seed uint64
}

// FeasibilityResult is CheckFeasibility's verdict.
type FeasibilityResult struct {
	// Feasible reports whether some work-conserving scheduler could
	// realize the proportional model at this operating point.
	Feasible bool
	// WorstSlack is the tightest Eq. (7) inequality's relative margin
	// (negative = violated).
	WorstSlack float64
	// PredictedDelays are the Eq. (6) per-class average delays, in time
	// units.
	PredictedDelays []float64
	// AggregateDelay is the measured FCFS aggregate delay d̄(λ).
	AggregateDelay float64
}

// CheckFeasibility records a trace at the operating point and evaluates
// the Eq. (7) feasibility of proportional differentiation with the given
// SDPs.
func CheckFeasibility(cfg FeasibilityConfig) (*FeasibilityResult, error) {
	if len(cfg.SDP) == 0 {
		cfg.SDP = []float64{1, 2, 4, 8}
	}
	if cfg.Utilization == 0 {
		cfg.Utilization = 0.95
	}
	if len(cfg.ClassFractions) == 0 && len(cfg.SDP) == 4 {
		cfg.ClassFractions = []float64{0.40, 0.30, 0.20, 0.10}
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 5e5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	tr, err := traffic.Record(traffic.LoadSpec{
		Rho:       cfg.Utilization,
		Fractions: cfg.ClassFractions,
		Sizes:     traffic.PaperSizes(),
		Alpha:     1.9,
	}, link.PaperLinkRate, cfg.Horizon, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep, err := model.CheckDDPs(tr, link.PaperLinkRate, model.DDPsFromSDPs(cfg.SDP))
	if err != nil {
		return nil, err
	}
	return &FeasibilityResult{
		Feasible:        rep.Feasible(),
		WorstSlack:      rep.WorstSlack(),
		PredictedDelays: rep.Delays,
		AggregateDelay:  rep.AggregateDelay,
	}, nil
}
