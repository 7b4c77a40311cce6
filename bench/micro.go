package main

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"path/filepath"
	"runtime"
	"time"

	"pdds/internal/classify"
	"pdds/internal/control"
	"pdds/internal/core"
	"pdds/internal/experiments"
	"pdds/internal/link"
	"pdds/internal/netio"
	"pdds/internal/network"
	"pdds/internal/sim"
	"pdds/internal/stats"
	"pdds/internal/telemetry"
	"pdds/internal/traffic"
)

// The single-layer timings: each calls a layer's exported functions a
// fixed number of times and divides. They are timed from outside, change
// nothing in the layer, and read the same whichever workload the traced
// run belongs to. Each is the best of microRepeats passes, which on a
// shared host is the reading least disturbed by other work.

const microRepeats = 3

// sinkhole keeps results alive so the compiler cannot drop the calls.
var sinkhole any

// perCall times n calls of f and returns the best per-call time in ns.
func perCall(n int, f func(n int)) float64 {
	best := 0.0
	for r := 0; r < microRepeats; r++ {
		t0 := time.Now()
		f(n)
		if d := float64(time.Since(t0).Nanoseconds()) / float64(n); r == 0 || d < best {
			best = d
		}
	}
	return best
}

// heapBytes is the live heap after a collection.
func heapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runMicro measures every fixed-count per-layer metric into vs.
func runMicro(vs *values, root string) error {
	microCodec(vs)
	if err := microClassify(vs, root); err != nil {
		return err
	}
	if err := microSchedulers(vs); err != nil {
		return err
	}
	microTelemetry(vs)
	if err := microControl(vs); err != nil {
		return err
	}
	microEngine(vs)
	if err := microSimLayers(vs); err != nil {
		return err
	}
	microStats(vs)
	return microExperiments(vs)
}

func microCodec(vs *values) {
	const n = 2_000_000
	h := netio.Header{Class: 2, Seq: 12345, SentAt: time.Now()}
	buf := make([]byte, 0, blastSize)
	vs.set("netio.codec_encode_ns", perCall(n, func(n int) {
		for i := 0; i < n; i++ {
			h.Seq = uint64(i)
			buf = h.Encode(buf[:0])
		}
	}), n)
	dg := append(h.Encode(nil), make([]byte, blastSize-netio.HeaderLen)...)
	vs.set("netio.codec_decode_ns", perCall(n, func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			hd, _, _ := netio.Decode(dg) // a well-formed datagram cannot fail
			acc += hd.Seq
		}
		sinkhole = acc
	}), n)
}

func microClassify(vs *values, root string) error {
	cfg, err := classify.LoadConfig(filepath.Join(root, "bench", "testdata", "classes64.conf"))
	if err != nil {
		return err
	}
	const resident = 1 << 16
	dst := netip.MustParseAddr("127.0.0.1")
	keyOf := func(i int) classify.FlowKey {
		// Distinct sources, every port inside one of the 64 ranges.
		return classify.FlowKey{
			Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     dst,
			SrcPort: uint16(classPortBase + i%(classFilters*portsPerFilter)),
			DstPort: 7000,
			Proto:   classify.ProtoUDP,
		}
	}
	var cls *classify.Classifier
	base := heapBytes()
	miss := 0.0
	for r := 0; r < microRepeats; r++ {
		if cls, err = classify.New(cfg, classify.FlowTableConfig{InitialFlows: resident}); err != nil {
			return err
		}
		if r == 0 {
			base = heapBytes() // an empty table of the final size
		}
		t0 := time.Now()
		for i := 0; i < resident; i++ {
			if _, ok := cls.Classify(keyOf(i), netio.ClassUnspecified, int64(i)); !ok {
				return fmt.Errorf("classes64.conf does not match %v", keyOf(i))
			}
		}
		if d := float64(time.Since(t0).Nanoseconds()) / resident; r == 0 || d < miss {
			miss = d
		}
	}
	vs.set("classify.miss_ns", miss, resident)
	vs.set("classify.bytes_per_flow", float64(heapBytes()-base)/resident, resident)
	const n = 2_000_000
	vs.set("classify.hit_ns", perCall(n, func(n int) {
		acc := 0
		for i := 0; i < n; i++ {
			c, _ := cls.Classify(keyOf(i%resident), netio.ClassUnspecified, int64(resident+i))
			acc += c
		}
		sinkhole = acc
	}), n)
	runtime.KeepAlive(cls)
	return nil
}

// enqDeq times one Dequeue plus one Enqueue against a steady backlog of
// 256 packets spread evenly over the classes, with time advancing by one
// mean transmission time per pair, as on a saturated link.
func enqDeq(kind core.Kind, classes int) (float64, error) {
	const backlog, n = 256, 300_000
	sdp := make([]float64, classes)
	for i := range sdp {
		sdp[i] = float64(int(1) << min(i, 20))
	}
	best := 0.0
	for r := 0; r < microRepeats; r++ {
		s, err := core.New(kind, sdp, link.PaperLinkRate)
		if err != nil {
			return 0, err
		}
		now := 0.0
		for i := 0; i < backlog; i++ {
			now += link.PUnit
			s.Enqueue(&core.Packet{ID: uint64(i), Class: i % classes, Size: 441, Arrival: now}, now)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			now += link.PUnit
			p := s.Dequeue(now)
			p.Arrival = now
			s.Enqueue(p, now)
		}
		if d := float64(time.Since(t0).Nanoseconds()) / n; r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func microSchedulers(vs *values) error {
	for _, kind := range core.Kinds() {
		d, err := enqDeq(kind, numClasses)
		if err != nil {
			return err
		}
		vs.set("core."+string(kind)+".enqdeq_ns", d, 300_000)
	}
	d, err := enqDeq(core.KindWTP, 16)
	if err != nil {
		return err
	}
	vs.set("core.wtp.enqdeq_ns_c16", d, 300_000)
	const n = 5_000_000
	pool := core.NewPacketPool()
	pool.Put(pool.Get())
	vs.set("core.pool_getput_ns", perCall(n, func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	}), n)
	return nil
}

func microTelemetry(vs *values) {
	const n = 2_000_000
	reg := telemetry.NewWithSDP(paperSDP)
	vs.set("telemetry.record_ns", perCall(n, func(n int) {
		for i := 0; i < n; i++ {
			now := float64(i) * 1e-5
			reg.Arrival(i%numClasses, blastSize, now)
			reg.Departure(i%numClasses, blastSize, now, float64(i%1000)*1e-6)
		}
	}), n)
	const snaps = 2000
	vs.set("telemetry.snapshot_us", perCall(snaps, func(n int) {
		for i := 0; i < n; i++ {
			sinkhole = reg.Snapshot()
		}
	})/1e3, snaps)
}

func microControl(vs *values) error {
	ctl, err := control.New(control.Config{SDP: paperSDP, Kind: core.KindWTP})
	if err != nil {
		return err
	}
	reg := telemetry.NewWithSDP(paperSDP)
	// One window of conforming traffic between observations, so each call
	// judges a complete window (the expensive path) and holds.
	const windows, perWindow = 300, 4 * 256
	snapshots := make([]telemetry.Snapshot, windows)
	for w := range snapshots {
		for i := 0; i < perWindow; i++ {
			c := i % numClasses
			reg.Arrival(c, 441, 0)
			reg.Departure(c, 441, 0, 8e-3/paperSDP[c])
		}
		snapshots[w] = reg.Snapshot()
	}
	t0 := time.Now()
	for _, s := range snapshots {
		ctl.Observe(s)
	}
	vs.set("control.observe_ns", float64(time.Since(t0).Nanoseconds())/windows, windows)
	return nil
}

// holdModel is the classic event-queue benchmark: a fixed population of
// pending events, each of which reschedules itself a random time ahead.
type holdModel struct {
	engine *sim.Engine
	rng    *rand.Rand
}

func holdFire(arg any) {
	h := arg.(*holdModel)
	h.engine.AfterFunc(h.rng.ExpFloat64(), holdFire, h)
}

func microEngine(vs *values) {
	const pending, n = 10_000, 2_000_000
	for _, q := range []struct {
		name string
		new  func() *sim.Engine
	}{{"sim.heap_event_ns", sim.NewEngine}, {"sim.calendar_event_ns", sim.NewEngineCalendar}} {
		h := &holdModel{engine: q.new(), rng: rand.New(rand.NewPCG(1, 2))}
		for i := 0; i < pending; i++ {
			h.engine.AfterFunc(h.rng.ExpFloat64(), holdFire, h)
		}
		vs.set(q.name, perCall(n, func(n int) {
			for i := 0; i < n; i++ {
				h.engine.Step()
			}
		}), n)
	}
}

func microSimLayers(vs *values) error {
	load := traffic.PaperLoad(simRho)
	var packets uint64
	var err error
	rec := perCall(1, func(int) {
		var tr *traffic.Trace
		if tr, err = traffic.Record(load, link.PaperLinkRate, zooHorizon, goldenSeed); err == nil {
			packets = uint64(len(tr.Arrivals))
		}
	})
	if err != nil {
		return err
	}
	vs.set("traffic.record_ns_per_pkt", rec/float64(packets), int(packets))
	// Generation alone: the same sources feeding a sink that only recycles,
	// without the trace that Record grows.
	gen := perCall(1, func(int) {
		var sources []*traffic.Source
		if sources, err = load.Build(link.PaperLinkRate, goldenSeed); err != nil {
			return
		}
		engine, pool := sim.NewEngine(), core.NewPacketPool()
		for _, src := range sources {
			src.Pool = pool
		}
		packets = 0
		traffic.StartAll(engine, sources, func(p *core.Packet) {
			packets++
			pool.Put(p)
		})
		engine.RunUntil(zooHorizon)
	})
	if err != nil {
		return err
	}
	vs.set("traffic.generate_ns_per_pkt", gen/float64(packets), int(packets))
	run := perCall(1, func(int) {
		var out *link.Result
		out, err = link.Run(link.RunConfig{Kind: core.KindWTP, SDP: paperSDP, Load: load, Horizon: zooHorizon, Seed: goldenSeed})
		if err == nil {
			packets = out.Generated
		}
	})
	if err != nil {
		return err
	}
	vs.set("link.run_ns_per_pkt", run/float64(packets), int(packets))
	// What is left of a link run after traffic generation and the
	// scheduler's own enqueue/dequeue pair: link, statistics, and the
	// departure events.
	vs.set("link.self_ns_per_pkt", run/float64(packets)-vs.v["traffic.generate_ns_per_pkt"]-vs.v["core.wtp.enqdeq_ns"], int(packets))

	cfg := studyBConfig(goldenSeed, 1)
	var hopPackets uint64
	net := perCall(1, func(int) {
		var out *network.Result
		if out, err = network.Run(cfg); err == nil {
			hopPackets = out.CrossPackets + uint64(len(cfg.SDP)*cfg.FlowPackets*cfg.Experiments*cfg.Hops)
		}
	})
	if err != nil {
		return err
	}
	vs.set("network.run_ns_per_hop_pkt", net/float64(hopPackets), int(hopPackets))
	return nil
}

func microStats(vs *values) {
	const n = 1_000_000
	rng := rand.New(rand.NewPCG(3, 4))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	var s *stats.Sample
	base := heapBytes()
	vs.set("stats.add_ns", perCall(n, func(n int) {
		s = &stats.Sample{}
		for _, x := range xs[:n] {
			s.Add(x)
		}
	}), n)
	vs.set("stats.bytes_per_sample", float64(heapBytes()-base)/n, n)
	runtime.KeepAlive(s)
	vs.set("stats.quantile_us_100k", perCall(1, func(int) {
		q := &stats.Sample{}
		for _, x := range xs[:100_000] {
			q.Add(x)
		}
		sinkhole = q.Quantile(0.99) // the first query sorts
	})/1e3, 1)
}

func microExperiments(vs *values) error {
	prev := experiments.Parallelism()
	defer experiments.SetParallelism(prev)
	timeFig3 := func(par int) (float64, error) {
		experiments.SetParallelism(par)
		var err error
		d := perCall(1, func(int) { _, err = experiments.Fig3(experiments.PaperSDPx2, experiments.Full) })
		return d / 1e9, err
	}
	serial, err := timeFig3(1)
	if err != nil {
		return err
	}
	parallel, err := timeFig3(nproc())
	if err != nil {
		return err
	}
	vs.set("experiments.fig3_full_s", serial, microRepeats)
	vs.set("experiments.fig3_parallel_speedup", serial/parallel, microRepeats)
	return nil
}
