// Package network implements Simulation Study B (§6): a K-hop congested
// path (Figure 6) whose links each run a WTP scheduler, loaded with
// per-hop Pareto cross-traffic, traversed by per-class user flows whose
// end-to-end queueing-delay percentiles quantify whether local class-based
// differentiation yields consistent end-to-end flow-based differentiation.
package network

import (
	"fmt"
	"math"
	"math/rand/v2"

	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/sim"
	"pdds/internal/stats"
	"pdds/internal/telemetry"
	"pdds/internal/traffic"
)

// Config describes one Study B simulation. Times are in seconds, rates in
// bits per second unless noted.
type Config struct {
	// Hops is the number of congested links K (paper: 4 or 8).
	Hops int
	// Rho is the per-link utilization (paper: 0.85 or 0.95).
	Rho float64
	// SDP are the WTP parameters at every hop (paper: 1,2,4,8).
	SDP []float64
	// Scheduler selects the per-hop discipline (default WTP — the paper
	// uses WTP "since it performs better than BPR").
	Scheduler core.Kind
	// LinkBps is each link's rate (default 25 Mbps).
	LinkBps float64
	// CrossSources is the number of cross-traffic sources per hop
	// (default 8).
	CrossSources int
	// PacketBytes is the packet size for both user flows and
	// cross-traffic (default 500).
	PacketBytes int64
	// FlowPackets is F, the user-flow length in packets (paper: 10 or
	// 100).
	FlowPackets int
	// FlowKbps is R_u, the user flow's average rate (paper: 50 or 200).
	FlowKbps float64
	// Experiments is M, the number of user experiments, one per second
	// (paper: 100).
	Experiments int
	// WarmupSec warms the network before the first experiment
	// (paper: 100).
	WarmupSec float64
	// Alpha is the Pareto shape of cross-traffic interarrivals
	// (default 1.9).
	Alpha float64
	// Seed drives all randomness.
	Seed uint64
	// Telemetry, if set, is attached to every hop's link: it aggregates
	// arrivals, departures, drops and queueing delays per class across
	// the whole path (live observability; see internal/telemetry). The
	// hops take turns a slab of simulated time at a time (see Run), so a
	// live observer sees hop 0 reach the end of each slab before hop 1
	// enters it, and a histogram's float Sum may differ in its last bits
	// from a recording in event order; every counter and bucket is exact.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Scheduler == "" {
		c.Scheduler = core.KindWTP
	}
	if c.LinkBps == 0 {
		c.LinkBps = 25e6
	}
	if c.CrossSources == 0 {
		c.CrossSources = 8
	}
	if c.PacketBytes == 0 {
		c.PacketBytes = 500
	}
	if c.Alpha == 0 {
		c.Alpha = 1.9
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if cc.Hops < 1 {
		return fmt.Errorf("network: hops %d must be >= 1", cc.Hops)
	}
	if !(cc.Rho > 0 && cc.Rho < 1) {
		return fmt.Errorf("network: rho %g must be in (0,1)", cc.Rho)
	}
	if len(cc.SDP) < 2 || len(cc.SDP) > math.MaxUint8+1 {
		return fmt.Errorf("network: %d classes, need 2 to %d", len(cc.SDP), math.MaxUint8+1)
	}
	if cc.FlowPackets < 1 || !(cc.FlowKbps > 0) {
		return fmt.Errorf("network: bad flow spec F=%d Ru=%g", cc.FlowPackets, cc.FlowKbps)
	}
	if cc.Experiments < 1 {
		return fmt.Errorf("network: experiments %d must be >= 1", cc.Experiments)
	}
	if cc.WarmupSec < 0 {
		return fmt.Errorf("network: negative warmup")
	}
	return nil
}

// ClassMix is the cross-traffic class distribution (paper: 40/30/20/10
// starting from class 1, i.e. index 0).
var ClassMix = []float64{0.40, 0.30, 0.20, 0.10}

// FlowStats holds one user flow's end-to-end queueing delays.
type FlowStats struct {
	Experiment int
	Class      int
	// Delays are per-packet end-to-end queueing delays, in seconds.
	Delays stats.Sample
}

// Result summarizes a Study B run.
type Result struct {
	// Flows holds every user flow's delay sample, indexed
	// [experiment][class].
	Flows [][]*FlowStats
	// Inconsistent counts (experiment, percentile, class-pair) triples
	// where a higher class saw a larger delay percentile than a lower
	// class — the paper's headline metric is that this is zero.
	Inconsistent int
	// InconsistentMaterial counts the subset of Inconsistent where the
	// higher class was more than 5% worse — inversions a user could
	// actually notice, as opposed to near-tie percentile noise.
	InconsistentMaterial int
	// InconsistentExperiments counts experiments with >= 1 inconsistent
	// percentile comparison.
	InconsistentExperiments int
	// RD is the end-to-end delay ratio between successive classes
	// averaged over class pairs, experiments, and the ten percentiles —
	// the Table 1 metric.
	RD float64
	// MeanE2E is the mean end-to-end queueing delay per class, seconds.
	MeanE2E []float64
	// Utilization is the realized utilization averaged over links.
	Utilization float64
	// PerHopUtilization is each link's realized utilization, hop order.
	PerHopUtilization []float64
	// PerHopMeanDelay[h][c] is the mean per-hop queueing delay of
	// class c at hop h (seconds), over all traffic including
	// cross-traffic.
	PerHopMeanDelay [][]float64
	// CrossPackets counts cross-traffic packets served over all hops.
	CrossPackets uint64
}

// Run executes the Study B simulation.
//
// The path is feed-forward: cross-traffic leaves after its one hop and user
// packets only move downstream. So each hop runs on its own engine, and the
// hops take turns in path order, one slab of slabSec simulated seconds at a
// time: hop h+1 replays hop h's recorded user departures of the slab into
// its link (see hop.replay for why the result is exactly that of one engine
// holding every hop). The cross traffic of each (hop, slab) is drawn one
// such job ahead on a goroutine of its own (see drawer); the simulation
// itself stays on the caller's goroutine.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pa, err := newPath(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return pa.run()
}

const (
	// slabSec is the simulated time each hop advances before the next hop
	// takes its turn: Study B's experiment period.
	slabSec = 1.0
	// Run's extend loop pushes an undelivered run's horizon extendSec on,
	// at most maxExtends times.
	extendSec  = 10.0
	maxExtends = 20
)

// departure is a user packet leaving a hop that is not the last: what the
// next hop needs to re-create it. The rest of a Packet is hop-local.
type departure struct {
	at, birth, queueing float64
	id, flow            uint64
	// chain is the chain of the busy period the packet left (see hop).
	chain uint64
	size  int64
	class int32
	hops  int32
}

// path is one Study B run: its hops and what their exits record.
type path struct {
	cfg  Config
	hops []*hop
	pool *core.PacketPool
	// draw owns every cross source's draw state (see drawer).
	draw drawer
	// bufs alternate as hop h's departure log (bufs[h%2]) and hop h+1's
	// input, so handing a user packet downstream allocates nothing.
	bufs [2][]departure

	flowIndex           map[uint64]*FlowStats
	delivered, expected int
	crossServed         uint64
	// chains numbers the chains of busy periods (see hop) path-wide.
	chains uint64
	// ties counts replayed departures that met an event of the receiving
	// hop at the same instant (the case hop.replay orders).
	ties int
}

// hop is one link of the path on its own engine.
type hop struct {
	path   *path
	index  int
	engine *sim.Engine
	link   *link.Link
	delays *stats.ClassDelays
	cross  []crossSource
	// overrun is set when a cross source meets an emission its window
	// holds no draw for (see drained).
	overrun bool
	// out is the log the next hop replays; nil at the last hop, whose user
	// departures are deliveries.
	out *[]departure
	// next is the departure replayArrive re-creates.
	next *departure

	// Guard state for replay. A chain is a set of busy periods: one that
	// a local arrival started, on any hop, and every busy period that a
	// departure from a member started on the next hop. chain is the
	// current busy period's chain. lastLocal and lastFinish are the
	// instants of the latest local arrival and transmission end.
	chain                 uint64
	lastLocal, lastFinish float64
}

// newPath wires a run: one engine, link and set of cross sources per hop,
// and the user flows entering hop 0. Nothing runs yet.
func newPath(cfg Config) (*path, error) {
	n := len(cfg.SDP)
	linkBytesPerSec := cfg.LinkBps / 8

	// Offered load accounting: the M experiments inject N flows of
	// F packets each second, every packet crossing every hop.
	userBytesPerSec := float64(n) * float64(cfg.FlowPackets) * float64(cfg.PacketBytes)
	crossBytesPerSec := cfg.Rho*linkBytesPerSec - userBytesPerSec
	if crossBytesPerSec <= 0 {
		return nil, fmt.Errorf("network: user flows alone exceed rho=%g", cfg.Rho)
	}

	// One free list for the run. Every departure is the end of that
	// packet object: cross traffic exits after its hop, and a user packet
	// continues downstream as a departure record, so each link recycles.
	flowRateBytes := cfg.FlowKbps * 1000 / 8
	flowDuration := float64(cfg.FlowPackets) * float64(cfg.PacketBytes) / flowRateBytes
	pa := &path{
		cfg:       cfg,
		hops:      make([]*hop, cfg.Hops),
		pool:      core.NewPacketPool(),
		flowIndex: make(map[uint64]*FlowStats, n*cfg.Experiments),
	}
	// A log holds one slab's departures: those of the flows the slab
	// overlaps, give or take queueing. A longer one grows once, then is
	// reused.
	flowsPerSlab := n * int(min(float64(cfg.Experiments), math.Ceil(flowDuration/slabSec)+1))
	for b := 0; b < min(cfg.Hops-1, len(pa.bufs)); b++ {
		pa.bufs[b] = make([]departure, 0, flowsPerSlab*cfg.FlowPackets)
	}
	for i := range pa.hops {
		sched, err := core.New(cfg.Scheduler, cfg.SDP, linkBytesPerSec)
		if err != nil {
			return nil, err
		}
		h := &hop{path: pa, index: i, engine: sim.NewEngine(), delays: stats.NewClassDelays(n)}
		h.link = link.New(h.engine, linkBytesPerSec, sched)
		h.link.Telemetry = cfg.Telemetry
		h.link.Pool = pa.pool
		h.link.OnDepart = h.depart
		if i+1 < cfg.Hops {
			h.out = &pa.bufs[i%2]
		}
		pa.hops[i] = h
	}

	// Cross-traffic: C sources per hop, Pareto interarrivals, class
	// drawn per packet from ClassMix. Each source's first interarrival is
	// drawn here; the drawer draws the rest.
	perSourceBytes := crossBytesPerSec / float64(cfg.CrossSources)
	meanInter := float64(cfg.PacketBytes) / perSourceBytes
	pa.draw = drawer{
		srcs:    make([][]crossDraw, cfg.Hops),
		mix:     cumulativeMix(n),
		horizon: cfg.WarmupSec + float64(cfg.Experiments) + flowDuration + 5,
		// A slab's draws for one hop, presized a quarter above their mean.
		setCap: int(min(1.25*slabSec*crossBytesPerSec/float64(cfg.PacketBytes), 1<<20)),
	}
	for i, h := range pa.hops {
		srcs := make([]crossDraw, cfg.CrossSources)
		h.cross = make([]crossSource, cfg.CrossSources)
		for s := range srcs {
			d := &srcs[s]
			d.rng = traffic.NewRNG(cfg.Seed, uint64(i*1000+s+1))
			d.inter = traffic.NewPareto(cfg.Alpha, meanInter)
			d.next = d.inter.Next(d.rng)
			src := &h.cross[s]
			src.hop, src.id = h, uint64(i*cfg.CrossSources+s+1)<<40
			h.engine.AtFunc(d.next, crossEmit, src)
		}
		pa.draw.srcs[i] = srcs
	}

	// User experiments: every second starting after warm-up, one flow
	// per class, entering hop 0.
	entry := pa.hops[0]
	sink := entry.arriveLocal
	for m := 0; m < cfg.Experiments; m++ {
		start := cfg.WarmupSec + float64(m)
		for c := 0; c < n; c++ {
			flowID := uint64(m*n+c) + 1
			pa.flowIndex[flowID] = &FlowStats{Experiment: m, Class: c}
			spec := traffic.FlowSpec{
				Class:   c,
				Packets: cfg.FlowPackets,
				Size:    cfg.PacketBytes,
				Rate:    flowRateBytes,
			}
			if err := traffic.ScheduleFlowPool(entry.engine, spec, start, flowID, sink, pa.pool); err != nil {
				return nil, err
			}
			pa.expected += cfg.FlowPackets
		}
	}
	return pa, nil
}

// run simulates the path and summarizes it.
func (pa *path) run() (*Result, error) {
	cfg := pa.cfg
	n := len(cfg.SDP)

	pa.draw.start()
	defer pa.draw.stop()
	// Run until every user packet is delivered (plus slack for queue
	// drain). The first horizon is where the last flow, starting at
	// warmup+M-1 and lasting F·gap seconds, has had 5 s more; delays are
	// far below a second per hop at these loads, but the loop extends the
	// horizon if needed.
	sl := slabs{horizon: pa.draw.horizon}
	for extend := 0; extend < maxExtends && pa.delivered < pa.expected; extend++ {
		for last := false; !last; {
			var end float64
			end, last = sl.next()
			if err := pa.runSlab(end); err != nil {
				return nil, err
			}
		}
	}
	if pa.delivered < pa.expected {
		return nil, fmt.Errorf("network: only %d of %d user packets delivered; path saturated", pa.delivered, pa.expected)
	}

	res := &Result{MeanE2E: make([]float64, n), CrossPackets: pa.crossServed}
	res.Flows = make([][]*FlowStats, cfg.Experiments)
	for m := 0; m < cfg.Experiments; m++ {
		res.Flows[m] = make([]*FlowStats, n)
		for c := 0; c < n; c++ {
			res.Flows[m][c] = pa.flowIndex[uint64(m*n+c)+1]
		}
	}
	// Utilization is measured against one end instant for every hop: the
	// latest event on any hop, which is where one engine holding the
	// whole path would have stopped its clock.
	var end float64
	for _, h := range pa.hops {
		end = max(end, h.engine.Now())
	}
	var util float64
	res.PerHopMeanDelay = make([][]float64, cfg.Hops)
	for i, h := range pa.hops {
		var u float64
		if end > 0 {
			u = h.link.BusyTimeAt(end) / end
		}
		res.PerHopUtilization = append(res.PerHopUtilization, u)
		util += u
		res.PerHopMeanDelay[i] = make([]float64, n)
		for c := 0; c < n; c++ {
			res.PerHopMeanDelay[i][c] = h.delays.Mean(c)
		}
	}
	res.Utilization = util / float64(cfg.Hops)

	res.computeMetrics(n)
	return res, nil
}

// slabs walks the ends of Run's slabs: each whole multiple of slabSec
// before a horizon, then the horizon, which then moves extendSec on. The
// simulation and the drawer each walk a copy, so both cut the run at the
// same instants. Running an engine to a slab's end and then on to the
// horizon executes the events that running it to the horizon at once
// would, in the same order.
type slabs struct{ from, horizon float64 }

// next returns the next slab's end, and whether it is a horizon.
func (s *slabs) next() (end float64, horizon bool) {
	end = min((math.Floor(s.from/slabSec)+1)*slabSec, s.horizon)
	s.from = end
	if end == s.horizon {
		s.horizon += extendSec
		return end, true
	}
	return end, false
}

// runSlab advances every hop through end, in path order: each hop takes
// its cross draws for the slab, replays what its upstream hop logged in
// it, and must use its draws exactly.
func (pa *path) runSlab(end float64) error {
	for i, h := range pa.hops {
		set := <-pa.draw.ready
		h.load(set)
		if h.out != nil {
			*h.out = (*h.out)[:0]
		}
		if i > 0 {
			if err := h.replay(pa.bufs[(i-1)%2]); err != nil {
				return err
			}
		}
		h.engine.RunUntil(end)
		if err := h.drained(end); err != nil {
			return err
		}
		pa.draw.free <- set
	}
	return nil
}

// arriveLocal admits a packet from one of the hop's own sources.
func (h *hop) arriveLocal(p *core.Packet) {
	h.lastLocal = h.engine.Now()
	if !h.link.Busy() {
		h.path.chains++
		h.chain = h.path.chains
	}
	h.link.Arrive(p)
}

// depart is the link's OnDepart: record the hop's delay, then let the
// packet exit (cross traffic), move on as a departure record, or be
// delivered (last hop). The link recycles the packet afterwards.
func (h *hop) depart(p *core.Packet) {
	h.lastFinish = p.Departure
	pa := h.path
	if p.Departure >= pa.cfg.WarmupSec {
		h.delays.Observe(p)
	}
	switch {
	case p.Flow == 0:
		pa.crossServed++
	case h.out != nil:
		*h.out = append(*h.out, departure{
			at: p.Departure, birth: p.Birth, queueing: p.QueueingDelay,
			id: p.ID, flow: p.Flow, chain: h.chain,
			size: p.Size, class: int32(p.Class), hops: int32(p.Hops),
		})
	default:
		if fs := pa.flowIndex[p.Flow]; fs != nil {
			fs.Delays.Add(p.QueueingDelay)
			pa.delivered++
		}
	}
}

// replay feeds the upstream hop's departures into h, in order, each at its
// own instant.
//
// A departure at instant t arrives after every event of h at t. On one
// engine holding the whole path the upstream hop's transmission end hands
// the packet over, so the order there is the order in which the two events
// were scheduled. Every transmission takes the same time tx (one LinkBps,
// one PacketBytes), so every transmission of a chain (see hop) ends on one
// grid a, a+tx, (a+tx)+tx, … from the instant a its first busy period
// began, and an event of h lands exactly on an upstream departure only
// when both belong to one chain. At each grid instant a chain's
// transmission ends run downstream first: at a, one busy period; and if
// they ran so at instant s, each scheduled its hop's end at s+tx in that
// order too, because an end hands its packet downstream, which may start
// the next hop's busy period and schedule its end, before it schedules its
// own. So h's event comes first. Any other tie (a local arrival at t, or
// two chains meeting on one instant) has no known order, and replay
// returns an error rather than guess one.
func (h *hop) replay(in []departure) error {
	for i := range in {
		d := &in[i]
		h.engine.RunUntil(d.at)
		if h.engine.Now() == d.at {
			if h.lastLocal == d.at || h.lastFinish != d.at || h.chain != d.chain {
				return fmt.Errorf("network: hop %d: packet %d arrives at %v with a local event of unknown order",
					h.index, d.id, d.at)
			}
			h.path.ties++
		}
		h.next = d
		h.engine.AtFunc(d.at, replayArrive, h)
		h.engine.Step()
	}
	return nil
}

// replayArrive is the closure-free event body that re-creates h.next as a
// packet arriving at h.
func replayArrive(arg any) {
	h := arg.(*hop)
	d := h.next
	p := h.path.pool.Get()
	p.ID, p.Flow, p.Size, p.Class = d.id, d.flow, d.size, int(d.class)
	p.Birth, p.QueueingDelay, p.Hops = d.birth, d.queueing, int(d.hops)
	if !h.link.Busy() {
		h.chain = d.chain
	}
	h.link.Arrive(p)
}

// computeMetrics fills Inconsistent, RD and MeanE2E from Flows.
func (r *Result) computeMetrics(n int) {
	var rdSum float64
	var rdCount int
	meanSum := make([]float64, n)
	meanCnt := make([]float64, n)
	for _, exp := range r.Flows {
		// Per-class percentile vectors for this experiment.
		pct := make([][]float64, n)
		for c := 0; c < n; c++ {
			pct[c] = exp[c].Delays.Quantiles(stats.StudyBPercentiles...)
			meanSum[c] += exp[c].Delays.Mean()
			meanCnt[c]++
		}
		bad := false
		for k := range stats.StudyBPercentiles {
			// Consistency: every higher class at most the lower
			// class, for every pair (the paper checks "any of
			// these percentiles" across class pairs).
			for lo := 0; lo < n; lo++ {
				for hi := lo + 1; hi < n; hi++ {
					if pct[hi][k] > pct[lo][k]*(1+1e-12) {
						r.Inconsistent++
						bad = true
						if pct[hi][k] > pct[lo][k]*1.05 {
							r.InconsistentMaterial++
						}
					}
				}
			}
			// R_D over successive pairs.
			for c := 0; c+1 < n; c++ {
				if pct[c+1][k] > 0 {
					rdSum += pct[c][k] / pct[c+1][k]
					rdCount++
				}
			}
		}
		if bad {
			r.InconsistentExperiments++
		}
	}
	if rdCount > 0 {
		r.RD = rdSum / float64(rdCount)
	}
	for c := 0; c < n; c++ {
		if meanCnt[c] > 0 {
			r.MeanE2E[c] = meanSum[c] / meanCnt[c]
		}
	}
}

// drawer draws the run's cross traffic on a goroutine of its own, one
// (hop, slab) job ahead of the simulation and in its order: slab by slab,
// each slab hop by hop. Two sets circulate between them, so the simulation
// runs a job over one while the drawer fills the next; each set moves over
// a channel, which orders every access to it.
//
// The draws are pure functions of (seed, hop, source) and the slab ends,
// never of the simulation, so drawing them elsewhere changes no result.
// Once start runs, srcs belongs to the drawer's goroutine alone.
type drawer struct {
	srcs [][]crossDraw // [hop][source]
	// mix is the cumulative class mix, shared by every source.
	mix []float64
	// horizon is Run's first horizon.
	horizon float64
	setCap  int

	ready, free  chan *drawSet
	done, exited chan struct{}
}

// crossDraw is one cross source's draw state: its RNG stream, its Pareto
// interarrivals, and next, the instant of its next emission.
type crossDraw struct {
	rng   *rand.Rand
	inter traffic.Pareto
	next  float64
}

// drawSet is one (hop, slab) job's cross traffic: for each emission of
// the slab, source by source and in emission order, the packet's class and
// the interarrival to the source's next emission. Source s's window is
// [off[s], off[s+1]).
type drawSet struct {
	inter []float64
	class []uint8
	off   []int
}

// start launches the drawing goroutine. stop must follow.
func (d *drawer) start() {
	d.ready = make(chan *drawSet)
	d.free = make(chan *drawSet, 2)
	d.done = make(chan struct{})
	d.exited = make(chan struct{})
	for range 2 {
		d.free <- &drawSet{
			inter: make([]float64, 0, d.setCap),
			class: make([]uint8, 0, d.setCap),
			off:   make([]int, 0, len(d.srcs[0])+1),
		}
	}
	go d.loop()
}

// stop ends the drawing goroutine and waits until it has.
func (d *drawer) stop() {
	close(d.done)
	<-d.exited
}

func (d *drawer) loop() {
	defer close(d.exited)
	sl := slabs{horizon: d.horizon}
	for {
		end, _ := sl.next()
		for hop := range d.srcs {
			var set *drawSet
			select {
			case set = <-d.free:
			case <-d.done:
				return
			}
			d.fill(set, hop, end)
			select {
			case d.ready <- set:
			case <-d.done:
				return
			}
		}
	}
}

// fill draws hop's cross traffic through end into set. A source's
// emission instants are the ones its engine fires: next += inter here is
// the float operation of now + inter in crossSource.emit.
func (d *drawer) fill(set *drawSet, hop int, end float64) {
	set.inter, set.class, set.off = set.inter[:0], set.class[:0], set.off[:0]
	srcs := d.srcs[hop]
	for i := range srcs {
		s := &srcs[i]
		set.off = append(set.off, len(set.inter))
		for s.next <= end {
			// An emission draws its class, then the interarrival to the
			// next one.
			u := s.rng.Float64()
			class := len(d.mix) - 1
			for c, cum := range d.mix {
				if u < cum {
					class = c
					break
				}
			}
			inter := s.inter.Next(s.rng)
			set.inter = append(set.inter, inter)
			set.class = append(set.class, uint8(class))
			s.next += inter
		}
	}
	set.off = append(set.off, len(set.inter))
}

// crossSource emits one of a hop's cross sources: fixed-size packets whose
// classes and interarrivals it reads from its window of the slab's draws.
// Packets come from the run's free list and scheduling uses the
// closure-free AtFunc path, so steady-state emission allocates nothing.
type crossSource struct {
	hop *hop
	// inter and class are the window: the draws of the emissions left in
	// the slab.
	inter []float64
	class []uint8
	id    uint64
	seq   uint64
}

// crossEmit is the shared closure-free event body for cross-traffic.
func crossEmit(arg any) { arg.(*crossSource).emit() }

func (s *crossSource) emit() {
	h := s.hop
	if len(s.inter) == 0 {
		h.overrun = true
		return
	}
	now := h.engine.Now()
	s.seq++
	p := h.path.pool.Get()
	p.ID = s.id + s.seq
	p.Class = int(s.class[0])
	p.Size = h.path.cfg.PacketBytes
	p.Arrival = now
	p.Birth = now
	h.arriveLocal(p)
	h.engine.AtFunc(now+s.inter[0], crossEmit, s)
	s.inter, s.class = s.inter[1:], s.class[1:]
}

// load points each of h's cross sources at its window of set.
func (h *hop) load(set *drawSet) {
	for i := range h.cross {
		lo, hi := set.off[i], set.off[i+1]
		h.cross[i].inter, h.cross[i].class = set.inter[lo:hi], set.class[lo:hi]
	}
}

// drained returns an error unless h's cross sources used their windows
// for the slab ending at end exactly: every draw, and no emission without
// one.
func (h *hop) drained(end float64) error {
	if h.overrun {
		return fmt.Errorf("network: hop %d: a cross source emitted past its draws for the slab ending at %v", h.index, end)
	}
	for i := range h.cross {
		if n := len(h.cross[i].inter); n > 0 {
			return fmt.Errorf("network: hop %d: cross source %d left %d draws of the slab ending at %v", h.index, i, n, end)
		}
	}
	return nil
}

// cumulativeMix adapts the 4-class paper mix to n classes: for n == 4 it
// is exactly ClassMix; otherwise probability mass is spread geometrically
// (halving per class, matching the paper's shape) and normalized.
func cumulativeMix(n int) []float64 {
	probs := make([]float64, n)
	if n == len(ClassMix) {
		copy(probs, ClassMix)
	} else {
		w := 1.0
		var sum float64
		for i := 0; i < n; i++ {
			probs[i] = w
			sum += w
			w /= 2
		}
		for i := range probs {
			probs[i] /= sum
		}
	}
	cum := make([]float64, n)
	var acc float64
	for i, p := range probs {
		acc += p
		cum[i] = acc
	}
	cum[n-1] = 1
	return cum
}
