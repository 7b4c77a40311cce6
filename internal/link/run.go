package link

import (
	"fmt"
	"math"

	"pdds/internal/core"
	"pdds/internal/sim"
	"pdds/internal/stats"
	"pdds/internal/telemetry"
	"pdds/internal/traffic"
)

// PaperLinkRate is the Study A link rate in bytes per time unit, chosen so
// the mean 441-byte packet takes one "p-unit" of 11.2 time units (§5).
const PaperLinkRate = 441.0 / 11.2

// PUnit is the average packet transmission time of Study A in time units.
const PUnit = 11.2

// RunConfig describes one single-link simulation run.
type RunConfig struct {
	// Kind selects the scheduler; SDP are its differentiation
	// parameters (one per class).
	Kind core.Kind
	SDP  []float64
	// Load is the offered workload.
	Load traffic.LoadSpec
	// LinkRate is the link speed in bytes per time unit
	// (default PaperLinkRate).
	LinkRate float64
	// Horizon is the simulated duration in time units.
	Horizon float64
	// Warmup discards packets departing before this time from the
	// result statistics (observers still see them).
	Warmup float64
	// Seed drives all randomness in the run.
	Seed uint64
	// Observers see every departing packet (before warm-up filtering);
	// used for interval trackers and series capture. Observers must copy
	// out any fields they need and must not retain the *Packet: the run
	// recycles packets through a per-run free list as soon as every
	// observer has returned (see core.PacketPool).
	Observers []func(*core.Packet)
	// MaxPackets and Dropper configure the finite-buffer extension;
	// zero/nil reproduces the paper's lossless model.
	MaxPackets int
	Dropper    core.DropPolicy
	// Telemetry, if set, is attached to the link for live per-class
	// observability (counters, delay histograms, streaming ratios).
	Telemetry *telemetry.Registry
}

func (c *RunConfig) withDefaults() RunConfig {
	out := *c
	if out.LinkRate == 0 {
		out.LinkRate = PaperLinkRate
	}
	return out
}

// Validate checks the configuration.
func (c *RunConfig) Validate() error {
	cc := c.withDefaults()
	if len(cc.SDP) == 0 {
		return fmt.Errorf("link: no SDPs")
	}
	if len(cc.SDP) != len(cc.Load.Fractions) {
		return fmt.Errorf("link: %d SDPs but %d class fractions", len(cc.SDP), len(cc.Load.Fractions))
	}
	if !(cc.Horizon > 0) || math.IsInf(cc.Horizon, 1) {
		return fmt.Errorf("link: horizon %g must be finite and > 0", cc.Horizon)
	}
	if !(cc.Warmup >= 0) || cc.Warmup >= cc.Horizon {
		return fmt.Errorf("link: warmup %g outside [0, horizon)", cc.Warmup)
	}
	return cc.Load.Validate()
}

// Result summarizes a single-link run.
type Result struct {
	// Delays holds post-warm-up per-class queueing delays.
	Delays *stats.ClassDelays
	// Utilization is the realized link utilization over the run.
	Utilization float64
	// Generated and Departed count packets over the whole run
	// (including warm-up); Dropped counts buffer losses.
	Generated uint64
	Departed  uint64
	Dropped   uint64
	// SchedulerName echoes the discipline that ran.
	SchedulerName string
}

// MeanDelayPUnits returns class i's mean delay in p-units.
func (r *Result) MeanDelayPUnits(i int) float64 { return r.Delays.Mean(i) / PUnit }

// Run executes one single-link simulation and returns its statistics. A
// run that repeats the previous run's load, link rate, horizon and seed
// replays that run's recorded arrivals instead of drawing them again (see
// traffic.Feed); the results are bit-identical either way.
func Run(cfg RunConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	sched, err := core.New(c.Kind, c.SDP, c.LinkRate)
	if err != nil {
		return nil, err
	}
	return runWith(sched, c)
}

// RunWithScheduler executes one single-link simulation with a pre-built
// scheduler — for disciplines needing non-default construction (e.g. HPD
// with a specific mixing factor). cfg.Kind is ignored.
func RunWithScheduler(sched core.Scheduler, cfg RunConfig) (*Result, error) {
	if sched == nil {
		return nil, fmt.Errorf("link: nil scheduler")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched.NumClasses() != len(cfg.SDP) {
		return nil, fmt.Errorf("link: scheduler has %d classes, config %d", sched.NumClasses(), len(cfg.SDP))
	}
	return runWith(sched, cfg.withDefaults())
}

func runWith(sched core.Scheduler, cfg RunConfig) (*Result, error) {
	engine := sim.NewEngine()
	l := New(engine, cfg.LinkRate, sched)
	l.MaxPackets = cfg.MaxPackets
	l.Dropper = cfg.Dropper
	l.Telemetry = cfg.Telemetry
	// Per-run free list: the link is the terminal hop, so every departed
	// or dropped packet is recycled back to the sources.
	pool := core.NewPacketPool()
	l.Pool = pool

	delays := stats.NewClassDelays(len(cfg.SDP))
	l.OnDepart = func(p *core.Packet) {
		if p.Departure >= cfg.Warmup {
			delays.Observe(p)
		}
		for _, ob := range cfg.Observers {
			ob(p)
		}
	}

	var generated uint64
	err := traffic.Feed(engine, cfg.Load, cfg.LinkRate, cfg.Horizon, cfg.Seed, pool, func(p *core.Packet) {
		generated++
		l.Arrive(p)
	})
	if err != nil {
		return nil, err
	}

	return &Result{
		Delays:        delays,
		Utilization:   l.Utilization(),
		Generated:     generated,
		Departed:      l.Departed(),
		Dropped:       l.Dropped(),
		SchedulerName: sched.Name(),
	}, nil
}
