package chaos

import (
	"fmt"
	"sort"

	"pdds/internal/control"
	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/sim"
	"pdds/internal/stats"
	"pdds/internal/telemetry"
	"pdds/internal/traffic"
)

// SimPlan describes one long-horizon stress simulation: a seeded workload,
// a scheduler, a perturbation timeline and the expectations the run is
// judged against. Everything derives from Seed, so a plan identifies a
// bit-exact run — a failing (plan, seed) pair reproduces exactly.
type SimPlan struct {
	Name string
	Kind core.Kind
	SDP  []float64
	Load traffic.LoadSpec
	// LinkRate is the base link rate in bytes per time unit
	// (default link.PaperLinkRate).
	LinkRate float64
	// Horizon and Warmup bound the run; packets departing before Warmup
	// are excluded from ratio statistics.
	Horizon float64
	Warmup  float64
	Seed    uint64
	// Timeline is the perturbation script (empty = stationary control).
	Timeline Timeline
	// SamplePeriod is the telemetry monotonicity sampling period
	// (default Horizon/200).
	SamplePeriod float64
	// Control, when non-nil, closes the DDP loop during the run: a
	// controller observes the link's telemetry every ControlInterval and
	// retunes the scheduler through the core.Retuner seam on out-of-band
	// windows. The config's SDP and Kind default to the plan's. Nil runs
	// exactly the uncontrolled harness.
	Control *control.Config
	// ControlInterval is the controller's observation window in
	// simulation time units (default Horizon/40; only used with Control).
	ControlInterval float64
	Expect          Expectation
}

// Expectation parameterizes how a run's delay ratios are judged.
type Expectation struct {
	// Flat expects adjacent delay ratios near 1 (FCFS's absence of
	// differentiation) instead of the SDP targets.
	Flat bool
	// MinDepartures is the per-class departure count a segment needs
	// before its ratios are judged (default 500): short or starved
	// segments are reported but not held to a window.
	MinDepartures uint64
	// SkipRatios disables ratio-window judging entirely (segments are
	// still reported). Used by plans whose perturbation legitimately
	// destroys the ratios — e.g. a packet train injected into one class
	// queues behind itself and inflates that class's mean delay by an
	// amount no work-conserving scheduler can differentiate away. Such
	// plans stress conservation and pool integrity, not differentiation.
	SkipRatios bool
	// SegmentWarmup is the fraction of each segment excluded from the
	// judged ratio window at the segment's start (default 0.15, negative
	// disables). Every segment boundary is a perturbation — a load step,
	// a mix shift, or a controller retune — and judging the whole-segment
	// average lets the boundary transient mask a steady-state violation
	// (and vice versa); the verdict must come from the settled tail.
	SegmentWarmup float64
}

func (p SimPlan) withDefaults() SimPlan {
	if p.LinkRate == 0 {
		p.LinkRate = link.PaperLinkRate
	}
	if p.SamplePeriod == 0 {
		p.SamplePeriod = p.Horizon / 200
	}
	if p.Expect.MinDepartures == 0 {
		p.Expect.MinDepartures = 500
	}
	if p.Expect.SegmentWarmup == 0 {
		p.Expect.SegmentWarmup = 0.15
	}
	if p.Expect.SegmentWarmup < 0 {
		p.Expect.SegmentWarmup = 0
	}
	if p.Control != nil {
		if p.ControlInterval == 0 {
			p.ControlInterval = p.Horizon / 40
		}
		cc := *p.Control
		if cc.SDP == nil {
			cc.SDP = p.SDP
		}
		if cc.Kind == "" {
			cc.Kind = p.Kind
		}
		p.Control = &cc
	}
	return p
}

// Validate checks the plan.
func (p SimPlan) Validate() error {
	pp := p.withDefaults()
	if pp.Name == "" {
		return fmt.Errorf("chaos: plan has no name")
	}
	if len(pp.SDP) != len(pp.Load.Fractions) {
		return fmt.Errorf("chaos: plan %q: %d SDPs but %d class fractions",
			pp.Name, len(pp.SDP), len(pp.Load.Fractions))
	}
	if !(pp.Horizon > 0) || pp.Warmup < 0 || pp.Warmup >= pp.Horizon {
		return fmt.Errorf("chaos: plan %q: bad horizon %g / warmup %g", pp.Name, pp.Horizon, pp.Warmup)
	}
	if err := pp.Timeline.Validate(len(pp.SDP)); err != nil {
		return fmt.Errorf("chaos: plan %q: %w", pp.Name, err)
	}
	if pp.Expect.SegmentWarmup >= 1 {
		return fmt.Errorf("chaos: plan %q: segment warmup %g must be < 1", pp.Name, pp.Expect.SegmentWarmup)
	}
	if pp.Control != nil {
		if err := pp.Control.Validate(); err != nil {
			return fmt.Errorf("chaos: plan %q: %w", pp.Name, err)
		}
		if !(pp.ControlInterval > 0) || pp.ControlInterval >= pp.Horizon {
			return fmt.Errorf("chaos: plan %q: control interval %g out of (0,horizon)", pp.Name, pp.ControlInterval)
		}
	}
	return pp.Load.Validate()
}

// Segment is the judged slice of a run between two timeline boundaries —
// one load regime. Ratios are the observed adjacent mean-delay ratios over
// the segment only (from interval telemetry, see telemetry.Snapshot.Sub).
type Segment struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	RhoEff float64 `json:"rho_eff"`
	// JudgedFrom is where the judged window actually starts: Start plus
	// the segment warm-up exclusion (equal to Start when the exclusion
	// is disabled). Ratios and Departures cover [JudgedFrom, End).
	JudgedFrom float64 `json:"judged_from,omitempty"`
	// Departures is the minimum per-class departure count in the segment
	// (the judging gate).
	Departures uint64    `json:"departures"`
	Ratios     []float64 `json:"ratios"`
	// WindowLo/WindowHi bound ratio/target (or the raw ratio when the
	// expectation is Flat). Zero when the segment was not judged.
	WindowLo float64 `json:"window_lo"`
	WindowHi float64 `json:"window_hi"`
	Judged   bool    `json:"judged"`
	Ok       bool    `json:"ok"`
}

// SimResult is the outcome of one stress run. Violations empty = pass.
type SimResult struct {
	Plan      string `json:"plan"`
	Scheduler string `json:"scheduler"`
	Seed      uint64 `json:"seed"`

	Generated  uint64 `json:"generated"`
	Departed   uint64 `json:"departed"`
	Dropped    uint64 `json:"dropped"`
	Backlogged int    `json:"backlogged"`
	InFlight   int    `json:"in_flight"`

	Utilization  float64   `json:"utilization"`
	Ratios       []float64 `json:"ratios"` // whole post-warmup run
	TargetRatios []float64 `json:"target_ratios"`

	Segments []Segment `json:"segments"`

	// PoolLeaked is allocated − (free + backlogged + in-flight) at the
	// horizon; any nonzero value means a packet escaped the free list.
	PoolLeaked int64 `json:"pool_leaked"`

	// Retunes is the number of controller decisions applied through the
	// retune seam (Control plans only).
	Retunes uint64 `json:"retunes,omitempty"`
	// ControlParams is the controller's final parameter vector (Control
	// plans only).
	ControlParams []float64 `json:"control_params,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// Ok reports whether every invariant and window held.
func (r *SimResult) Ok() bool { return len(r.Violations) == 0 }

// ratioWindow maps a segment's effective utilization to the allowed
// observed/target band (observed/1 when flat). The bands encode the
// paper's own findings: WTP/BPR track the DDPs tightly in heavy load and
// undershoot in moderate load (§5.2, Fig. 4), so moderate-load windows are
// wide and one-sided-ish, and light-load segments are not judged at all
// (delays there are dominated by transmission time, not queueing).
func ratioWindow(rhoEff float64, flat bool) (lo, hi float64, judged bool) {
	if flat {
		// FCFS serves all classes from one queue: ratios hug 1 at any
		// load where queueing happens at all.
		if rhoEff < 0.6 {
			return 0, 0, false
		}
		return 0.70, 1.45, true
	}
	switch {
	case rhoEff >= 0.9:
		return 0.50, 1.50, true
	case rhoEff >= 0.7:
		return 0.25, 1.60, true
	default:
		return 0, 0, false
	}
}

// regime is the arithmetically tracked load state used to precompute each
// segment's effective utilization (no RNG involved, so it is derived from
// the timeline alone).
type regime struct {
	loadScale  float64
	classScale []float64
	active     []bool
	linkScale  float64
}

func newRegime(classes int) *regime {
	r := &regime{loadScale: 1, linkScale: 1,
		classScale: make([]float64, classes), active: make([]bool, classes)}
	for i := range r.classScale {
		r.classScale[i] = 1
		r.active[i] = true
	}
	return r
}

// apply folds a into the tracked load state. OpBurst is deliberately
// ignored: it does not change the sustained arrival-rate regime a
// segment's ratio window is chosen from.
func (r *regime) apply(a Action) {
	switch a.Op {
	case OpScaleLoad:
		r.loadScale *= a.Factor
	case OpScaleClass:
		r.classScale[a.Class] *= a.Factor
	case OpSetLinkRate:
		r.linkScale = a.Factor
	case OpSourceOff:
		r.active[a.Class] = false
	case OpSourceOn:
		r.active[a.Class] = true
	}
}

// rhoEff returns the offered utilization under the current regime:
// scaled per-class byte arrival rate over scaled capacity.
func (r *regime) rhoEff(baseRates []float64, meanSize, baseLinkRate float64) float64 {
	var byteRate float64
	for i, lambda := range baseRates {
		if !r.active[i] {
			continue
		}
		byteRate += lambda * r.classScale[i] * r.loadScale * meanSize
	}
	return byteRate / (baseLinkRate * r.linkScale)
}

// simState binds a timeline to one live run; boundAction is the
// closure-free AtFunc argument for a scheduled action.
type simState struct {
	engine   *sim.Engine
	link     *link.Link
	spec     traffic.LoadSpec
	base     []float64 // per-class base arrival rates (pkt/tu)
	regime   *regime
	sources  map[int]*traffic.Source
	baseRate float64 // base link rate (bytes/tu)
	pool     *core.PacketPool
	sink     traffic.Sink
	burstID  uint64
}

type boundAction struct {
	st *simState
	a  Action
}

func chaosApply(arg any) {
	b := arg.(*boundAction)
	b.st.applyAction(b.a)
}

func (st *simState) applyAction(a Action) {
	st.regime.apply(a)
	switch a.Op {
	case OpScaleLoad:
		for class, src := range st.sources {
			st.retune(class, src)
		}
	case OpScaleClass:
		if src, ok := st.sources[a.Class]; ok {
			st.retune(a.Class, src)
		}
	case OpSetLinkRate:
		st.link.SetRate(a.Factor * st.baseRate)
	case OpSourceOff:
		if src, ok := st.sources[a.Class]; ok {
			src.Pause()
		}
	case OpSourceOn:
		if src, ok := st.sources[a.Class]; ok {
			src.Resume()
		}
	case OpBurst:
		now := st.engine.Now()
		for j := 0; j < a.Count; j++ {
			p := st.pool.Get()
			st.burstID++
			p.ID = uint64(0xB)<<56 + st.burstID
			p.Class = a.Class
			p.Size = a.Size
			p.Arrival = now
			p.Birth = now
			st.sink(p)
		}
	}
}

// retune rebuilds class's interarrival distribution at its current scaled
// rate (effective immediately; see Source.SetInter).
func (st *simState) retune(class int, src *traffic.Source) {
	rate := st.base[class] * st.regime.classScale[class] * st.regime.loadScale
	src.SetInter(st.spec.Inter(rate))
}

// controlRec drives the closed-loop controller from the engine clock:
// every tick it hands the controller the registry's cumulative snapshot
// and pushes any decision through the scheduler's retune seam.
type controlRec struct {
	reg     *telemetry.Registry
	ctl     *control.Controller
	sched   core.Scheduler
	retunes uint64
	errs    []string
}

func controlTick(arg any) bool {
	cr := arg.(*controlRec)
	did, err := cr.ctl.Apply(cr.sched, cr.reg.Snapshot())
	if err != nil {
		cr.errs = append(cr.errs, err.Error())
		return false // a broken seam would repeat every tick; stop once
	}
	if did {
		cr.retunes++
	}
	return true
}

// boundaryRec collects telemetry snapshots at segment boundaries.
type boundaryRec struct {
	reg   *telemetry.Registry
	snaps []telemetry.Snapshot
}

func boundarySnap(arg any) {
	b := arg.(*boundaryRec)
	b.snaps = append(b.snaps, b.reg.Snapshot())
}

// monoRec checks telemetry counter monotonicity at every sample tick.
type monoRec struct {
	reg        *telemetry.Registry
	prev       telemetry.Snapshot
	violations []string
}

func monoTick(arg any) bool {
	m := arg.(*monoRec)
	cur := m.reg.Snapshot()
	m.violations = append(m.violations, cur.DecreasedFrom(m.prev)...)
	m.prev = cur
	return true
}

// RunSim executes one stress plan and returns its judged result; err
// reports setup problems only — invariant breaches land in
// SimResult.Violations.
func RunSim(plan SimPlan) (*SimResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	p := plan.withDefaults()

	sched, err := core.New(p.Kind, p.SDP, p.LinkRate)
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine()
	l := link.New(engine, p.LinkRate, sched)
	reg := telemetry.NewWithSDP(p.SDP)
	l.Telemetry = reg
	pool := core.NewPacketPool()
	l.Pool = pool

	delays := stats.NewClassDelays(len(p.SDP))
	l.OnDepart = func(pk *core.Packet) {
		if pk.Departure >= p.Warmup {
			delays.Observe(pk)
		}
	}

	sources, err := p.Load.Build(p.LinkRate, p.Seed)
	if err != nil {
		return nil, err
	}
	for _, s := range sources {
		s.Pool = pool
	}
	var generated uint64
	sink := func(pk *core.Packet) {
		generated++
		l.Arrive(pk)
	}
	traffic.StartAll(engine, sources, sink)

	st := &simState{
		engine:   engine,
		link:     l,
		spec:     p.Load,
		base:     p.Load.Rates(p.LinkRate),
		regime:   newRegime(len(p.SDP)),
		sources:  make(map[int]*traffic.Source, len(sources)),
		baseRate: p.LinkRate,
		pool:     pool,
		sink:     sink,
	}
	for _, s := range sources {
		st.sources[s.Class] = s
	}
	for _, a := range p.Timeline.Actions {
		engine.AtFunc(a.At, chaosApply, &boundAction{st: st, a: a})
	}

	var ctl *controlRec
	if p.Control != nil {
		c, cerr := control.New(*p.Control)
		if cerr != nil {
			return nil, cerr
		}
		if _, ok := sched.(core.Retuner); !ok {
			return nil, fmt.Errorf("chaos: plan %q: %s is not retunable", p.Name, p.Kind)
		}
		ctl = &controlRec{reg: reg, ctl: c, sched: sched}
		engine.Every(p.ControlInterval, p.ControlInterval, controlTick, ctl)
	}

	// Segment boundaries: warmup, every action instant inside the judged
	// window, and the horizon. Boundary snapshots are scheduled after the
	// actions above, so at equal times the snapshot observes the
	// pre-perturbation counters last (insertion order breaks ties).
	bounds := segmentBounds(p)
	rec := &boundaryRec{reg: reg}
	for _, t := range bounds {
		engine.AtFunc(t, boundarySnap, rec)
	}
	// Interior warm points: one snapshot per segment at the end of its
	// warm-up exclusion, so judging can start from the settled part.
	warmRec := &boundaryRec{reg: reg}
	if frac := p.Expect.SegmentWarmup; frac > 0 {
		for i := 0; i+1 < len(bounds); i++ {
			engine.AtFunc(bounds[i]+frac*(bounds[i+1]-bounds[i]), boundarySnap, warmRec)
		}
	}

	mono := &monoRec{reg: reg}
	engine.Every(p.SamplePeriod, p.SamplePeriod, monoTick, mono)

	engine.RunUntil(p.Horizon)

	res := &SimResult{
		Plan:         p.Name,
		Scheduler:    sched.Name(),
		Seed:         p.Seed,
		Generated:    generated,
		Departed:     l.Departed(),
		Dropped:      l.Dropped(),
		Utilization:  l.Utilization(),
		TargetRatios: reg.TargetRatios(),
		Ratios:       delays.SuccessiveRatios(),
	}
	for i := 0; i < sched.NumClasses(); i++ {
		res.Backlogged += sched.Len(i)
	}
	if l.Busy() {
		res.InFlight = 1
	}

	// Invariant: exact conservation — every generated packet is departed,
	// dropped, backlogged, or on the wire.
	if got := res.Departed + res.Dropped + uint64(res.Backlogged) + uint64(res.InFlight); got != res.Generated {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"conservation: generated=%d != departed=%d + dropped=%d + backlog=%d + inflight=%d",
			res.Generated, res.Departed, res.Dropped, res.Backlogged, res.InFlight))
	}
	// Invariant: zero pool leaks — every allocated packet is either back
	// in the free list or still owned by the scheduler/link.
	res.PoolLeaked = int64(pool.Allocated()) - int64(pool.Free()) - int64(res.Backlogged) - int64(res.InFlight)
	if res.PoolLeaked != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"pool: %d packets leaked (allocated=%d free=%d backlog=%d inflight=%d)",
			res.PoolLeaked, pool.Allocated(), pool.Free(), res.Backlogged, res.InFlight))
	}
	// Invariant: telemetry counters only ever grew.
	for _, v := range mono.violations {
		res.Violations = append(res.Violations, "monotonicity: "+v)
	}
	// Controller outcome: seam errors are violations, not silent stops.
	if ctl != nil {
		res.Retunes = ctl.retunes
		res.ControlParams = ctl.ctl.Params()
		for _, e := range ctl.errs {
			res.Violations = append(res.Violations, "control: "+e)
		}
	}
	// Telemetry must agree with the link's own accounting.
	arr, dep, drops := reg.Snapshot().Totals()
	if arr != res.Generated || dep != res.Departed || drops != res.Dropped {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"telemetry: counters (arr=%d dep=%d drop=%d) disagree with link (gen=%d dep=%d drop=%d)",
			arr, dep, drops, res.Generated, res.Departed, res.Dropped))
	}

	res.Segments = judgeSegments(p, bounds, rec.snaps, warmRec.snaps)
	for _, seg := range res.Segments {
		if seg.Judged && !seg.Ok {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"ratio-window: segment [%g,%g) rho_eff=%.3f ratios=%v outside [%.2f,%.2f]×target",
				seg.Start, seg.End, seg.RhoEff, seg.Ratios, seg.WindowLo, seg.WindowHi))
		}
	}
	return res, nil
}

// segmentBounds returns the sorted, deduplicated segment boundary times:
// warmup, each distinct action time in (warmup, horizon), and the horizon.
func segmentBounds(p SimPlan) []float64 {
	set := map[float64]bool{p.Warmup: true, p.Horizon: true}
	for _, a := range p.Timeline.Actions {
		if a.At > p.Warmup && a.At < p.Horizon {
			set[a.At] = true
		}
	}
	out := make([]float64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}

// judgeSegments computes each segment's interval ratios from the boundary
// snapshots and judges them against the load-regime window. When the
// plan's segment warm-up exclusion is active, warmSnaps carries one
// interior snapshot per segment (taken at Start + warmup·(End−Start)) and
// the judged interval is [warm point, End) — the settled tail — instead
// of the whole segment, whose boundary transient can average a
// steady-state violation away.
func judgeSegments(p SimPlan, bounds []float64, snaps, warmSnaps []telemetry.Snapshot) []Segment {
	if len(snaps) != len(bounds) || len(snaps) < 2 {
		return nil
	}
	frac := p.Expect.SegmentWarmup
	useWarm := frac > 0 && len(warmSnaps) == len(bounds)-1
	// Replay the timeline arithmetically to know each segment's regime.
	acts := append([]Action(nil), p.Timeline.Actions...)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
	reg := newRegime(len(p.SDP))
	meanSize := p.Load.Sizes.Mean()
	baseRates := p.Load.Rates(p.LinkRate)
	next := 0

	var out []Segment
	for i := 0; i+1 < len(bounds); i++ {
		start, end := bounds[i], bounds[i+1]
		for next < len(acts) && acts[next].At <= start {
			reg.apply(acts[next])
			next++
		}
		base, judgedFrom := snaps[i], start
		if useWarm {
			base = warmSnaps[i]
			judgedFrom = start + frac*(end-start)
		}
		iv := snaps[i+1].Sub(base)
		seg := Segment{
			Start:      start,
			End:        end,
			JudgedFrom: judgedFrom,
			RhoEff:     reg.rhoEff(baseRates, meanSize, p.LinkRate),
			Ratios:     iv.Ratios,
		}
		// The judging gate is the scarcest class's departure count.
		seg.Departures = ^uint64(0)
		for _, c := range iv.Classes {
			if c.Departures < seg.Departures {
				seg.Departures = c.Departures
			}
		}
		lo, hi, judged := ratioWindow(seg.RhoEff, p.Expect.Flat)
		if judged && !p.Expect.SkipRatios && seg.Departures >= p.Expect.MinDepartures {
			seg.Judged, seg.Ok = true, true
			seg.WindowLo, seg.WindowHi = lo, hi
			for k, ratio := range seg.Ratios {
				target := 1.0
				if !p.Expect.Flat && k < len(snaps[0].TargetRatios) {
					target = snaps[0].TargetRatios[k]
				}
				if ratio == 0 || target == 0 {
					continue
				}
				if q := ratio / target; q < lo || q > hi {
					seg.Ok = false
				}
			}
		}
		out = append(out, seg)
	}
	return out
}
