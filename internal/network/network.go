// Package network implements Simulation Study B (§6): a K-hop congested
// path (Figure 6) whose links each run a WTP scheduler, loaded with
// per-hop Pareto cross-traffic, traversed by per-class user flows whose
// end-to-end queueing-delay percentiles quantify whether local class-based
// differentiation yields consistent end-to-end flow-based differentiation.
package network

import (
	"fmt"
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
	// hops run one after another (see Run), so a live observer sees hop 0
	// reach each horizon before hop 1 starts, and a histogram's float Sum
	// may differ in its last bits from a recording in event order; every
	// counter and bucket is exact.
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
	if len(cc.SDP) < 2 {
		return fmt.Errorf("network: need at least 2 classes")
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
// hops run in path order: hop h+1 replays hop h's recorded user departures
// into its link (see hop.replay for why the result is exactly that of one
// engine holding every hop).
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
	// bufs alternate as hop h's departure log (bufs[h%2]) and hop h+1's
	// input, so handing a user packet downstream allocates nothing.
	bufs [2][]departure

	flowIndex           map[uint64]*FlowStats
	delivered, expected int
	crossServed         uint64
	flowDuration        float64
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
	userPackets := n * cfg.FlowPackets * cfg.Experiments
	pa := &path{
		cfg:       cfg,
		hops:      make([]*hop, cfg.Hops),
		pool:      core.NewPacketPool(),
		flowIndex: make(map[uint64]*FlowStats, n*cfg.Experiments),
	}
	for b := 0; b < min(cfg.Hops-1, len(pa.bufs)); b++ {
		pa.bufs[b] = make([]departure, 0, userPackets)
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
	// drawn per packet from ClassMix.
	perSourceBytes := crossBytesPerSec / float64(cfg.CrossSources)
	meanInter := float64(cfg.PacketBytes) / perSourceBytes
	for i, h := range pa.hops {
		sink := h.arriveLocal
		for s := 0; s < cfg.CrossSources; s++ {
			src := &crossSource{
				engine: h.engine,
				inter:  traffic.NewPareto(cfg.Alpha, meanInter),
				size:   cfg.PacketBytes,
				mix:    cumulativeMix(n),
				rng:    traffic.NewRNG(cfg.Seed, uint64(i*1000+s+1)),
				sink:   sink,
				pool:   pa.pool,
				id:     uint64(i*cfg.CrossSources+s+1) << 40,
			}
			src.start()
		}
	}

	// User experiments: every second starting after warm-up, one flow
	// per class, entering hop 0.
	flowRateBytes := cfg.FlowKbps * 1000 / 8
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
	pa.flowDuration = float64(cfg.FlowPackets) * float64(cfg.PacketBytes) / flowRateBytes
	return pa, nil
}

// run simulates the path and summarizes it.
func (pa *path) run() (*Result, error) {
	cfg := pa.cfg
	n := len(cfg.SDP)

	// Run until every user packet is delivered (plus slack for queue
	// drain). The last flow starts at warmup+M-1 and lasts
	// F·gap seconds; delays are far below a second per hop at these
	// loads, but allow a generous margin and extend if needed.
	horizon := cfg.WarmupSec + float64(cfg.Experiments) + pa.flowDuration + 5
	for extend := 0; extend < 20 && pa.delivered < pa.expected; extend++ {
		if err := pa.runUntil(horizon); err != nil {
			return nil, err
		}
		horizon += 10
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

// runUntil advances every hop through horizon, in path order: each hop
// first replays what its upstream hop logged in this round.
func (pa *path) runUntil(horizon float64) error {
	for i, h := range pa.hops {
		if h.out != nil {
			*h.out = (*h.out)[:0]
		}
		if i > 0 {
			if err := h.replay(pa.bufs[(i-1)%2]); err != nil {
				return err
			}
		}
		h.engine.RunUntil(horizon)
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

// crossSource emits fixed-size packets with Pareto interarrivals and a
// random class per packet. Packets come from the run's free list and
// scheduling uses the closure-free AtFunc path, so steady-state emission
// allocates nothing.
type crossSource struct {
	engine *sim.Engine
	inter  traffic.Pareto
	size   int64
	mix    []float64 // cumulative class probabilities
	rng    *rand.Rand
	sink   traffic.Sink
	pool   *core.PacketPool
	id     uint64
	seq    uint64
}

// crossEmit is the shared closure-free event body for cross-traffic.
func crossEmit(arg any) { arg.(*crossSource).emit() }

func (s *crossSource) start() {
	s.engine.AfterFunc(s.inter.Next(s.rng), crossEmit, s)
}

func (s *crossSource) emit() {
	now := s.engine.Now()
	s.seq++
	u := s.rng.Float64()
	class := len(s.mix) - 1
	for i, c := range s.mix {
		if u < c {
			class = i
			break
		}
	}
	p := s.pool.Get()
	p.ID = s.id + s.seq
	p.Class = class
	p.Size = s.size
	p.Arrival = now
	p.Birth = now
	s.sink(p)
	s.start()
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
