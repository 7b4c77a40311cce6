package network

import (
	"fmt"

	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/sim"
	"pdds/internal/stats"
	"pdds/internal/traffic"
)

// runSingleEngine is Run as it was before the hops got engines of their
// own: every hop's link, cross source and user flow on one sim.Engine, a
// user packet handed from hop to hop inside OnDepart. It is the reference
// the per-hop runtime must match bit for bit.
func runSingleEngine(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := len(cfg.SDP)

	engine := sim.NewEngine()
	linkBytesPerSec := cfg.LinkBps / 8

	// Offered load accounting: the M experiments inject N flows of
	// F packets each second, every packet crossing every hop.
	userBytesPerSec := float64(n) * float64(cfg.FlowPackets) * float64(cfg.PacketBytes)
	crossBytesPerSec := cfg.Rho*linkBytesPerSec - userBytesPerSec
	if crossBytesPerSec <= 0 {
		return nil, fmt.Errorf("network: user flows alone exceed rho=%g", cfg.Rho)
	}

	// Build the chain of links.
	links := make([]*link.Link, cfg.Hops)
	var crossServed uint64
	res := &Result{MeanE2E: make([]float64, n)}

	// Per-run free list shared by cross-traffic sources and user flows.
	// Links must NOT recycle (packets are forwarded hop to hop from
	// OnDepart), so the exit points below return packets instead: cross
	// traffic after its single hop, user packets at final delivery.
	pool := core.NewPacketPool()

	// Delivered user packets are recorded against their flow.
	flowIndex := make(map[uint64]*FlowStats)
	var delivered, expected int

	for h := 0; h < cfg.Hops; h++ {
		sched, err := core.New(cfg.Scheduler, cfg.SDP, linkBytesPerSec)
		if err != nil {
			return nil, err
		}
		links[h] = link.New(engine, linkBytesPerSec, sched)
		links[h].Telemetry = cfg.Telemetry
	}
	hopDelays := make([]*stats.ClassDelays, cfg.Hops)
	for h := range hopDelays {
		hopDelays[h] = stats.NewClassDelays(n)
	}
	for h := 0; h < cfg.Hops; h++ {
		h := h
		links[h].OnDepart = func(p *core.Packet) {
			if p.Departure >= cfg.WarmupSec {
				hopDelays[h].Observe(p)
			}
			if p.Flow == 0 {
				crossServed++ // cross-traffic exits after its hop
				pool.Put(p)
				return
			}
			if h+1 < cfg.Hops {
				links[h+1].Arrive(p)
				return
			}
			fs := flowIndex[p.Flow]
			if fs != nil {
				fs.Delays.Add(p.QueueingDelay)
				delivered++
			}
			pool.Put(p)
		}
	}

	// Cross-traffic: C sources per hop, Pareto interarrivals, class
	// drawn per packet from ClassMix.
	perSourceBytes := crossBytesPerSec / float64(cfg.CrossSources)
	meanInter := float64(cfg.PacketBytes) / perSourceBytes
	for h := 0; h < cfg.Hops; h++ {
		for s := 0; s < cfg.CrossSources; s++ {
			src := &crossSource{
				engine: engine,
				inter:  traffic.NewPareto(cfg.Alpha, meanInter),
				size:   cfg.PacketBytes,
				mix:    cumulativeMix(n),
				rng:    traffic.NewRNG(cfg.Seed, uint64(h*1000+s+1)),
				sink:   links[h].Arrive,
				pool:   pool,
				id:     uint64(h*cfg.CrossSources+s+1) << 40,
			}
			src.start()
		}
	}

	// User experiments: every second starting after warm-up, one flow
	// per class.
	flowRateBytes := cfg.FlowKbps * 1000 / 8
	for m := 0; m < cfg.Experiments; m++ {
		start := cfg.WarmupSec + float64(m)
		for c := 0; c < n; c++ {
			fs := &FlowStats{Experiment: m, Class: c}
			flowID := uint64(m*n+c) + 1
			flowIndex[flowID] = fs
			spec := traffic.FlowSpec{
				Class:   c,
				Packets: cfg.FlowPackets,
				Size:    cfg.PacketBytes,
				Rate:    flowRateBytes,
			}
			if err := traffic.ScheduleFlowPool(engine, spec, start, flowID, links[0].Arrive, pool); err != nil {
				return nil, err
			}
			expected += cfg.FlowPackets
		}
	}

	// Run until every user packet is delivered (plus slack for queue
	// drain). The last flow starts at warmup+M-1 and lasts
	// F·gap seconds; delays are far below a second per hop at these
	// loads, but allow a generous margin and extend if needed.
	flowDuration := float64(cfg.FlowPackets) * float64(cfg.PacketBytes) / flowRateBytes
	horizon := cfg.WarmupSec + float64(cfg.Experiments) + flowDuration + 5
	for extend := 0; extend < 20 && delivered < expected; extend++ {
		engine.RunUntil(horizon)
		horizon += 10
	}
	if delivered < expected {
		return nil, fmt.Errorf("network: only %d of %d user packets delivered; path saturated", delivered, expected)
	}

	// Assemble per-experiment flow table.
	res.Flows = make([][]*FlowStats, cfg.Experiments)
	for m := 0; m < cfg.Experiments; m++ {
		res.Flows[m] = make([]*FlowStats, n)
		for c := 0; c < n; c++ {
			res.Flows[m][c] = flowIndex[uint64(m*n+c)+1]
		}
	}
	res.CrossPackets = crossServed
	var util float64
	for _, l := range links {
		res.PerHopUtilization = append(res.PerHopUtilization, l.Utilization())
		util += l.Utilization()
	}
	res.Utilization = util / float64(cfg.Hops)
	res.PerHopMeanDelay = make([][]float64, cfg.Hops)
	for h := range hopDelays {
		res.PerHopMeanDelay[h] = make([]float64, n)
		for c := 0; c < n; c++ {
			res.PerHopMeanDelay[h][c] = hopDelays[h].Mean(c)
		}
	}

	res.computeMetrics(n)
	return res, nil
}
