package conformance

import (
	"fmt"
	"io"

	"pdds/internal/core"
	"pdds/internal/link"
)

// Checker wraps a core.Scheduler, mirrors its contents in a State, and
// verifies the structural invariants — work conservation, intra-class FIFO
// order, packet conservation and Len/Bytes accounting — on every call. It
// implements core.Scheduler, so it can stand in for the real scheduler
// anywhere (a link, a multi-hop path, a hand-driven test).
type Checker struct {
	inner core.Scheduler
	st    *State
	obs   []Observer
	rec   *recorder

	seen   map[uint64]float64 // packet ID -> enqueue time
	served map[uint64]float64 // packet ID -> dequeue time
}

// NewChecker wraps sched, attaching the given invariant observers.
func NewChecker(sched core.Scheduler, obs ...Observer) *Checker {
	return &Checker{
		inner:  sched,
		st:     newState(sched.NumClasses()),
		obs:    obs,
		rec:    newRecorder(),
		seen:   make(map[uint64]float64),
		served: make(map[uint64]float64),
	}
}

// Name implements core.Scheduler.
func (c *Checker) Name() string { return c.inner.Name() }

// NumClasses implements core.Scheduler.
func (c *Checker) NumClasses() int { return c.inner.NumClasses() }

// Backlogged implements core.Scheduler.
func (c *Checker) Backlogged() bool { return c.inner.Backlogged() }

// Len implements core.Scheduler.
func (c *Checker) Len(i int) int { return c.inner.Len(i) }

// Bytes implements core.Scheduler.
func (c *Checker) Bytes(i int) int64 { return c.inner.Bytes(i) }

// State returns the mirror state (for hand-driven tests).
func (c *Checker) State() *State { return c.st }

// Enqueue implements core.Scheduler.
func (c *Checker) Enqueue(p *core.Packet, now float64) {
	if _, dup := c.seen[p.ID]; dup {
		c.rec.addf("conservation", now, "packet id=%d enqueued twice", p.ID)
	}
	c.seen[p.ID] = now
	c.inner.Enqueue(p, now)
	c.st.push(p)
	c.checkAccounting(now)
	for _, ob := range c.obs {
		ob.OnEnqueue(now, p, c.st)
	}
}

// Dequeue implements core.Scheduler.
func (c *Checker) Dequeue(now float64) *core.Packet {
	p := c.inner.Dequeue(now)
	if p == nil {
		if c.st.total > 0 {
			c.rec.addf("work-conservation", now,
				"Dequeue returned nil with %d packets backlogged", c.st.total)
		}
		return nil
	}
	if c.st.total == 0 {
		c.rec.addf("conservation", now, "packet id=%d served from an empty scheduler", p.ID)
		return p
	}
	if t, dup := c.served[p.ID]; dup {
		c.rec.addf("conservation", now, "packet id=%d served twice (first at t=%g)", p.ID, t)
	}
	if w := now - p.Arrival; w < 0 {
		c.rec.addf("causality", now, "packet id=%d served %g before its arrival", p.ID, -w)
	}

	// Locate p in the mirror: it must be the head of its own class queue.
	pos := -1
	if p.Class >= 0 && p.Class < len(c.st.q) {
		pos = c.st.find(p.Class, p)
	}
	switch {
	case pos < 0:
		c.rec.addf("conservation", now,
			"served packet id=%d class=%d is not in the mirror state", p.ID, p.Class)
	case pos > 0:
		c.rec.addf("fifo", now,
			"class %d served id=%d ahead of %d earlier packets (head id=%d)",
			p.Class, p.ID, pos, c.st.Head(p.Class).ID)
	}

	// Observers see the pre-removal state (what the scheduler chose from).
	for _, ob := range c.obs {
		ob.OnDequeue(now, p, c.st)
	}
	if pos >= 0 {
		c.st.remove(p.Class, pos)
	}
	c.served[p.ID] = now
	c.checkAccounting(now)
	return p
}

// checkAccounting cross-checks the scheduler's own Len/Bytes/Backlogged
// bookkeeping against the mirror after every mutation.
func (c *Checker) checkAccounting(now float64) {
	if got, want := c.inner.Backlogged(), c.st.total > 0; got != want {
		c.rec.addf("accounting", now, "Backlogged()=%v with %d mirrored packets", got, c.st.total)
	}
	for i := 0; i < c.st.NumClasses(); i++ {
		if got, want := c.inner.Len(i), c.st.Len(i); got != want {
			c.rec.addf("accounting", now, "Len(%d)=%d, mirror has %d", i, got, want)
		}
		if got, want := c.inner.Bytes(i), c.st.Bytes(i); got != want {
			c.rec.addf("accounting", now, "Bytes(%d)=%d, mirror has %d", i, got, want)
		}
	}
}

// finish runs end-of-run checks and collects violations from every
// observer.
func (c *Checker) finish() []Violation {
	if got := uint64(len(c.served)); c.st.enqueued != got+uint64(c.st.total) {
		c.rec.addf("conservation", 0,
			"enqueued %d != served %d + backlogged %d", c.st.enqueued, got, c.st.total)
	}
	out := append([]Violation(nil), c.rec.violations...)
	for _, ob := range c.obs {
		ob.Done(c.st)
		out = append(out, ob.Violations()...)
	}
	return out
}

// Violations returns everything found so far (built-in checks plus
// observers), without running the end-of-run checks. Use Result.Violations
// after Run for the complete list.
func (c *Checker) Violations() []Violation {
	out := append([]Violation(nil), c.rec.violations...)
	for _, ob := range c.obs {
		out = append(out, ob.Violations()...)
	}
	return out
}

// Result summarizes one conformance run.
type Result struct {
	// Scheduler and Scenario echo what ran.
	Scheduler string
	Scenario  string
	// Generated counts packets offered to the link; Dequeued counts
	// scheduler service selections; Departed counts completed
	// transmissions (at most one behind Dequeued — the packet on the
	// wire at the horizon); Backlogged is what remained queued.
	Generated  uint64
	Dequeued   uint64
	Departed   uint64
	Backlogged int
	// Utilization is the realized link utilization.
	Utilization float64
	// Violations holds every invariant breach observed (empty = pass).
	Violations []Violation
}

// Ok reports whether the run satisfied every invariant.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// Summary renders a one-line human summary.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s/%s: generated=%d departed=%d backlog=%d util=%.3f violations=%d",
		r.Scheduler, r.Scenario, r.Generated, r.Departed, r.Backlogged, r.Utilization,
		len(r.Violations))
}

// Opts configures a conformance Run beyond the scenario itself.
type Opts struct {
	// Observers are additional invariant checks (the structural checks of
	// Checker always run).
	Observers []Observer
	// TraceWriter, if set, receives the compact deterministic event trace
	// of the run (see traceRecorder for the format).
	TraceWriter io.Writer
}

// Run drives a freshly built scheduler of the given kind through the
// scenario on a simulated link, checking invariants on every event. The
// returned Result lists all violations; err reports setup problems only.
func Run(kind core.Kind, sc Scenario, opts Opts) (*Result, error) {
	sched, err := core.New(kind, sc.SDP, sc.linkRate())
	if err != nil {
		return nil, err
	}
	return RunScheduler(sched, sc, opts)
}

// RunScheduler is Run for a pre-built scheduler (e.g. HPD with a custom
// mixing factor). The scheduler runs, wrapped in a Checker, through
// link.RunWithScheduler — the code every experiment ships, arrival memo
// and pooled packets included — so the golden traces pin that code.
func RunScheduler(sched core.Scheduler, sc Scenario, opts Opts) (*Result, error) {
	if sc.Name == "" {
		return nil, fmt.Errorf("conformance: scenario has no name")
	}
	cfg := link.RunConfig{SDP: sc.SDP, Load: sc.Load, LinkRate: sc.linkRate(),
		Horizon: sc.Horizon, Seed: sc.Seed}
	obs := opts.Observers
	var tr *traceRecorder
	if opts.TraceWriter != nil {
		// Arrivals are traced as the link enqueues them, which it does
		// for every arrival of a lossless link; departures as they leave.
		tr = newTraceRecorder(opts.TraceWriter)
		if err := tr.header(sched.Name(), sc); err != nil {
			return nil, err
		}
		obs = append(obs[:len(obs):len(obs)], tr)
		cfg.Observers = []func(*core.Packet){tr.depart}
	}
	checker := NewChecker(sched, obs...)
	res, err := link.RunWithScheduler(checker, cfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.flush(); err != nil {
			return nil, err
		}
	}
	return &Result{
		Scheduler:   sched.Name(),
		Scenario:    sc.Name,
		Generated:   res.Generated,
		Dequeued:    checker.st.dequeued,
		Departed:    res.Departed,
		Backlogged:  checker.st.total,
		Utilization: res.Utilization,
		Violations:  checker.finish(),
	}, nil
}
