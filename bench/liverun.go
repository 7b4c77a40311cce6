package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"pdds/internal/core"
	"pdds/internal/link"
	"pdds/internal/sim"
	"pdds/internal/stats"
	"pdds/internal/traffic"
)

// liveSpec is one live workload: which forwarder configuration it drives
// and with what traffic.
type liveSpec struct {
	shards   int
	flows    int
	classify bool // untagged datagrams, classes64.conf, -distrust-class
	paced    bool // open-loop Study-A replay into a 10 Mbit/s pacer
}

var liveSpecs = map[string]liveSpec{
	"fwd_min64":             {shards: 1, flows: 1},
	"fwd_shard2_flows":      {shards: 2, flows: 64},
	"fwd_classify_untagged": {shards: 1, flows: 256, classify: true},
	"fwd_paced_ddp":         {shards: 1, flows: 1, paced: true},
}

const (
	unpacedRateBps = 1e11 // 64 bytes take 5 ns: the pacer never waits
	pacedRateBps   = 10e6
	pacedRho       = 0.95
	// pacedTraceSeed fixes the replayed arrival trace whatever -seed says.
	// At rho 0.95 with Pareto(1.9) interarrivals the mean delay of an
	// eight-second sample path differs by a factor of two between seeds,
	// which would bury every effect of the forwarder; replaying one path
	// compares every run on common random numbers. -seed still drives the
	// payload bytes and, on the other workloads, class tags and ports.
	pacedTraceSeed = goldenSeed
	// idleShare of the measured time is the W=1 phase, the rest the loaded
	// phase.
	idleShare = 0.2
	// Validity guards: a phase is re-run when the generator itself was the
	// problem.
	maxLateP99      = 2 * time.Millisecond
	maxTimeoutShare = 0.001
	maxRetries      = 2
	setupRepeats    = 3
	idleWindows     = 8 // the idle phase is cut into this many windows
)

// liveOptions are the knobs shared by every live run.
type liveOptions struct {
	seed    uint64
	measure time.Duration // idle phase + loaded phase
	warmup  time.Duration
	window  int     // closed-loop W
	inproc  bool    // run the forwarder inside this process instead of as pdfwd
	tr      *tracer // non-nil: record spans (in-process runs only)
	root    string  // module root (pdfwd is built there)
}

// liveOutcome is everything one live run measured, before it is folded
// into named metrics.
type liveOutcome struct {
	setupS                 float64
	pps                    float64
	pktWindows             int
	cpuUsPerPkt            float64 // forwarder user+sys per datagram, loaded phase
	harnessCPUUsPerPkt     float64
	hostBusyFrac           float64 // (forwarder + harness CPU) / (wall × nproc)
	idleRTTP50             float64
	idleWindows            int
	sojournP50, sojournP99 float64
	sent, good             uint64
	timeouts               uint64
	retries                int
	genLateP99Us           float64
	ddpAccuracy            float64 // paced only
	rateAccuracy           float64 // paced only
	rateStretches          int
	simDelayErr            float64 // paced + traced only
	counters               fwdCounters
	usage                  fwdUsage
	schedWaitP50Us         float64
	schedWaitP99Us         float64
	ioPathUs               float64 // sojourn minus scheduler wait
	recvBatchAvg           float64
	recvBatchMax           float64
	sinkRcvBuf             int
	// invalid: the generator, not the forwarder, spoiled the loaded phase
	// and the retries did not help; the last attempt is reported anyway.
	invalid string
	// discarded says why each loaded phase that was re-run was discarded.
	discarded []string
	// unpinned says why CPU placement was left to the kernel, if it was.
	unpinned string
	failures []string
}

// liveSetup is one complete set-up: harness, forwarder, warm traffic.
type liveSetup struct {
	h     *harness
	fwd   forwarder
	trace *traffic.Trace // paced only
	tu    float64        // seconds per trace time unit
}

func (s *liveSetup) teardown() (fwdCounters, fwdUsage, error) {
	c, u, err := s.fwd.stop()
	// Whatever the forwarder sent is in the sink's socket buffer at the
	// latest now; let the sink read it before its socket closes.
	for deadline := time.Now().Add(500 * time.Millisecond); s.h.arrived.Load() < c.Forwarded && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.h.close()
	return c, u, err
}

// setUp builds everything a measurement needs and warms it: the pdfwd
// binary, the arrival trace, sockets, the forwarder (on its own share of
// the CPUs when pinned), and warm-up traffic.
func setUp(spec liveSpec, opt liveOptions, pinned bool) (*liveSetup, error) {
	rng := newRNG(opt.seed)
	s := &liveSetup{}
	expect := int((opt.measure + opt.warmup).Seconds() * 400e3)
	if spec.paced {
		// One trace time unit is the time the trace's link needs for the
		// bytes the 10 Mbit/s egress sends in a second.
		s.tu = link.PaperLinkRate / (pacedRateBps / 8)
		horizon := (1 - idleShare) * opt.measure.Seconds() / s.tu
		tr, err := traffic.Record(traffic.PaperLoad(pacedRho), link.PaperLinkRate, horizon, pacedTraceSeed)
		if err != nil {
			return nil, err
		}
		s.trace = tr
		expect = 3*len(tr.Arrivals) + int((opt.measure+opt.warmup).Seconds()*30e3)
	}
	h, err := newHarness(spec.flows, spec.classify, expect, rng, opt.tr)
	if err != nil {
		return nil, err
	}
	s.h = h
	cfg := fwdConfig{shards: spec.shards, rateBps: unpacedRateBps, forward: h.sinkAddr()}
	if spec.paced {
		cfg.rateBps, cfg.metrics = pacedRateBps, true
	}
	if spec.classify {
		cfg.classes, cfg.distrust = filepath.Join(opt.root, "bench", "testdata", "classes64.conf"), true
	}
	if opt.inproc {
		s.fwd, err = startInproc(cfg)
	} else {
		var bin string
		if bin, err = buildPdfwd(opt.root); err == nil {
			s.fwd, err = startPdfwd(bin, cfg, pinned)
		}
	}
	if err != nil {
		h.close()
		return nil, err
	}
	if err = h.connect(s.fwd.addr(), rng); err == nil {
		_, err = h.runClosed(opt.window, opt.warmup, 0)
	}
	if err != nil {
		_, _, _ = s.teardown()
		return nil, err
	}
	return s, nil
}

// newRNG is the generator behind every choice the load generator makes.
func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x62656e6368)) } // "bench"

// cpuSample is one reading of the sampler.
type cpuSample struct {
	at   time.Time
	fwd  float64 // forwarder user+sys seconds; -1 when unreadable
	self float64 // harness user+sys seconds
	good uint64
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// sampleCPU reads both processes' CPU clocks every interval until stop is
// called; it wakes once per window, so it costs the measurement nothing.
func sampleCPU(fwd forwarder, h *harness, every time.Duration) (stop func() []cpuSample) {
	var (
		out  []cpuSample
		quit = make(chan struct{})
		wg   sync.WaitGroup
	)
	read := func() {
		s := cpuSample{at: time.Now(), fwd: -1, self: selfCPU(), good: h.good.Load()}
		if u, sy, ok := fwd.cpu(); ok {
			s.fwd = u + sy
		}
		out = append(out, s)
	}
	read()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-quit:
				return
			}
		}
	}()
	return func() []cpuSample {
		close(quit)
		wg.Wait()
		return out
	}
}

// windowLength is one second, or a quarter of a phase too short for four.
func windowLength(phase time.Duration) time.Duration {
	if phase >= 4*time.Second {
		return time.Second
	}
	return phase / 4
}

// runLive measures one live workload once.
func runLive(spec liveSpec, opt liveOptions) (*liveOutcome, error) {
	out := &liveOutcome{}
	fail := func(format string, args ...any) {
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
	}

	// Placement: a forwarder process gets its own CPUs; an in-process
	// forwarder shares all of them with the generator.
	_, genCPUs, allCPUs := cpuSplit()
	if opt.inproc {
		genCPUs = allCPUs
	}
	if err := pinSelf(genCPUs); err != nil {
		out.unpinned = err.Error()
	}
	pinned := out.unpinned == "" && !opt.inproc

	// Set up several times and keep the last one: the median set-up time is
	// steadier than a single reading.
	var s *liveSetup
	setupTimes := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if s, err = setUp(spec, opt, pinned); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if _, _, err := s.teardown(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	out.setupS = median(setupTimes)
	h := s.h
	out.sinkRcvBuf = h.sinkBuf
	torn := false
	defer func() {
		if !torn {
			_, _, _ = s.teardown()
		}
	}()

	idleDur := time.Duration(idleShare * float64(opt.measure))
	loadDur := opt.measure - idleDur
	root := opt.tr.begin("harness", 0)

	// Phase A: one datagram in flight.
	var idle phaseStats
	for attempt := 0; ; attempt++ {
		sp := opt.tr.begin("phase.idle", root)
		var err error
		idle, err = h.runClosed(1, idleDur, sp)
		opt.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if float64(idle.timeouts) <= maxTimeoutShare*float64(idle.sent) || attempt == maxRetries {
			break
		}
		out.retries++
	}

	// Phase B: the loaded phase, with the CPU clocks read once per window.
	var before []classDelay
	if spec.paced {
		var err error
		if before, err = s.fwd.classDelays(); err != nil {
			return nil, fmt.Errorf("class delays before the replay: %w", err)
		}
	}
	every := windowLength(loadDur)
	var load phaseStats
	var cpu []cpuSample
	for attempt := 0; ; attempt++ {
		sp := opt.tr.begin("phase.load", root)
		stopSampler := sampleCPU(s.fwd, h, every)
		var err error
		if spec.paced {
			load, err = h.runOpen(s.trace.Arrivals, s.tu, sp)
		} else {
			load, err = h.runClosed(opt.window, loadDur, sp)
		}
		cpu = stopSampler()
		opt.tr.end(sp)
		if err != nil {
			return nil, err
		}
		// invalid says what the host or the generator, not the forwarder,
		// did to this attempt.
		invalid := ""
		if spec.paced {
			out.genLateP99Us = quantile(load.lateNs, 0.99) / 1e3
			if out.genLateP99Us > float64(maxLateP99.Microseconds()) {
				invalid = fmt.Sprintf("generator p99 lateness %.0f us", out.genLateP99Us)
			}
			if load.good < load.sent {
				// A datagram the forwarder never read overflowed its socket
				// buffer: the host kept the forwarder off its CPU for tens of
				// milliseconds. What the forwarder read and lost is its own.
				after, err := s.fwd.classDelays()
				if err != nil {
					return nil, fmt.Errorf("class delays after the replay: %w", err)
				}
				if read := arrivalsBetween(before, after); read < load.sent {
					invalid = fmt.Sprintf("%d of %d datagrams dropped at the forwarder's socket, unread", load.sent-read, load.sent)
				}
			}
		} else if float64(load.timeouts) > maxTimeoutShare*float64(load.sent) {
			invalid = fmt.Sprintf("timeouts %d of %d", load.timeouts, load.sent)
		}
		if invalid == "" || attempt == maxRetries {
			if invalid != "" {
				out.invalid = fmt.Sprintf("loaded phase still invalid after %d retries: %s", maxRetries, invalid)
			}
			break
		}
		out.retries++
		out.discarded = append(out.discarded, invalid)
		if spec.paced {
			if before, err = s.fwd.classDelays(); err != nil {
				return nil, err
			}
		}
	}
	out.timeouts = idle.timeouts + load.timeouts

	// The harness has seen its last datagram: read what only a running
	// forwarder can tell, then stop it.
	delays, delaysErr := s.fwd.classDelays()
	if spec.paced && delaysErr != nil {
		return nil, fmt.Errorf("class delays after the replay: %w", delaysErr)
	}
	if in, ok := s.fwd.(*inprocForwarder); ok {
		sp := opt.tr.begin("telemetry.snapshot", root)
		var recv, batches uint64
		for _, ss := range in.fwd.ShardStats() {
			recv += ss.Received
			batches += ss.Batches
			out.recvBatchMax = max(out.recvBatchMax, float64(ss.MaxBatch))
		}
		opt.tr.end(sp)
		if batches > 0 {
			out.recvBatchAvg = float64(recv) / float64(batches)
		}
	}
	torn = true
	counters, usage, err := s.teardown()
	opt.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("stopping the forwarder: %w", err)
	}
	out.counters, out.usage = counters, usage
	// Warm-up traffic and discarded attempts are not part of the result.
	out.sent, out.good = idle.sent+load.sent, idle.good+load.good

	// Correctness: conservation at the forwarder, and the sink agrees.
	if n := counters.unaccounted(); n != 0 || counters.Queued != 0 {
		fail("forwarder conservation broken: %+v (unaccounted %d)", counters, n)
	}
	if got := h.arrived.Load(); got != counters.Forwarded {
		fail("sink read %d datagrams, forwarder says it forwarded %d", got, counters.Forwarded)
	}
	if e := h.errs; e.badDecode+e.badPayload+e.badClass+e.duplicate != 0 {
		fail("sink rejected datagrams: %+v", e)
	}
	if counters.BadHeader+counters.BadClass != 0 {
		fail("forwarder rejected well-formed datagrams: %+v", counters)
	}

	// Idle phase: the per-window median round trip.
	iw := windows(h.log, h.epoch, idle.start, idle.end, idleDur/idleWindows, -1)
	out.idleRTTP50, out.idleWindows = shortQuartile(series(iw, func(w window) float64 { return w.p50 })), len(iw)

	// Loaded phase. On the paced workload latency is the highest class's.
	class := -1
	if spec.paced {
		class = numClasses - 1
	}
	// The open-loop replay ends with the drain; its windows stop at the
	// last scheduled send so the tail of the drain does not dilute them.
	loadEnd := load.end
	if spec.paced {
		loadEnd = load.start.Add(loadDur)
	}
	all := windows(h.log, h.epoch, load.start, loadEnd, every, -1)
	if len(all) == 0 {
		return nil, errors.New("loaded phase shorter than one window")
	}
	out.pktWindows = len(all)
	out.pps = fastQuartile(series(all, func(w window) float64 { return float64(w.count) / every.Seconds() }))
	if spec.paced {
		// The replayed trace, not the host, decides how the windows of a
		// replay differ, so its latency is taken over the whole replay.
		whole := windows(h.log, h.epoch, load.start, loadEnd, loadEnd.Sub(load.start), class)
		out.sojournP50, out.sojournP99 = whole[0].p50, whole[0].p99
	} else {
		out.sojournP50 = shortQuartile(series(all, func(w window) float64 { return w.p50 }))
		out.sojournP99 = shortQuartile(series(all, func(w window) float64 { return w.p99 }))
	}

	// CPU per datagram, per window between consecutive sampler readings.
	var fwdPer, selfPer, busy []float64
	for i := 1; i < len(cpu); i++ {
		a, b := cpu[i-1], cpu[i]
		n := float64(b.good - a.good)
		wall := b.at.Sub(a.at).Seconds()
		if n == 0 || wall < every.Seconds()/2 {
			continue
		}
		selfPer = append(selfPer, (b.self-a.self)/n*1e6)
		used := b.self - a.self
		if a.fwd >= 0 && b.fwd >= 0 {
			fwdPer = append(fwdPer, (b.fwd-a.fwd)/n*1e6)
			used += b.fwd - a.fwd
		}
		busy = append(busy, used/(wall*float64(nproc())))
	}
	out.harnessCPUUsPerPkt = shortQuartile(selfPer)
	out.hostBusyFrac = median(busy)
	switch {
	case len(fwdPer) > 0:
		out.cpuUsPerPkt = shortQuartile(fwdPer)
	case counters.Forwarded > 0:
		// No /proc: fall back to the whole life of the process.
		out.cpuUsPerPkt = (usage.userS + usage.sysS) / float64(counters.Forwarded) * 1e6
	}

	if delaysErr == nil {
		out.schedWaitP50Us, out.schedWaitP99Us = aggregateWait(delays)
		out.ioPathUs = out.sojournP50 - out.schedWaitP50Us
	}
	if spec.paced {
		live := deltaMeans(before, delays)
		// The telemetry histogram covers the forwarder's whole life, warm-up
		// included, and cannot be windowed from outside; means can. So on
		// the replay the latency split is in class-3 means.
		var sum, n float64
		for _, sm := range phaseSamples(h.log, h.epoch, load.start) {
			if int(sm.cls) == class {
				sum += float64(sm.soj) / 1e3
				n++
			}
		}
		out.schedWaitP50Us = live[class] * 1e6
		out.schedWaitP99Us = delays[class].P99 * 1e6
		if n > 0 {
			out.ioPathUs = sum/n - out.schedWaitP50Us
		}
		out.ddpAccuracy = ddpAccuracy(successiveRatios(live), []float64{2, 2, 2})
		bps, stretches := backloggedRate(load, phaseSamples(h.log, h.epoch, load.start), pacedRateBps, min(1, loadDur.Seconds()/4))
		out.rateStretches = stretches
		if stretches == 0 {
			fail("no backlogged stretch in the replay: egress rate not measurable")
		}
		out.rateAccuracy = 1 - math.Abs(bps/pacedRateBps-1)
		if opt.tr != nil {
			simMeans, err := simulateTrace(s.trace, opt.tr, root)
			if err != nil {
				return nil, err
			}
			for c := range simMeans {
				if simMeans[c] > 0 {
					out.simDelayErr = max(out.simDelayErr, math.Abs(live[c]/(simMeans[c]*s.tu)-1))
				}
			}
		}
	}
	return out, nil
}

// phaseSamples returns the samples that arrived at or after from.
func phaseSamples(log []sample, epoch, from time.Time) []sample {
	lo := from.Sub(epoch).Nanoseconds()
	for i, s := range log {
		if s.arr >= lo {
			return log[i:]
		}
	}
	return nil
}

// arrivalsBetween is how many datagrams the forwarder read between two
// telemetry readings.
func arrivalsBetween(before, after []classDelay) uint64 {
	var n uint64
	for i := range after {
		n += after[i].Arrivals
		if i < len(before) {
			n -= before[i].Arrivals
		}
	}
	return n
}

// deltaMeans returns each class's mean scheduler wait over the departures
// between two telemetry readings, so warm-up and idle traffic drop out.
func deltaMeans(before, after []classDelay) []float64 {
	out := make([]float64, len(after))
	for i := range after {
		n := float64(after[i].Departures)
		sum := after[i].Mean * n
		if i < len(before) {
			n -= float64(before[i].Departures)
			sum -= before[i].Mean * float64(before[i].Departures)
		}
		if n > 0 {
			out[i] = sum / n
		}
	}
	return out
}

// successiveRatios is mean(i)/mean(i+1) for adjacent classes.
func successiveRatios(means []float64) []float64 {
	out := make([]float64, 0, len(means))
	for i := 0; i+1 < len(means); i++ {
		r := 0.0
		if means[i+1] > 0 {
			r = means[i] / means[i+1]
		}
		out = append(out, r)
	}
	return out
}

// ddpAccuracy is 1 − mean |measured/target − 1| over adjacent class pairs,
// floored at 0.
func ddpAccuracy(ratios, targets []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var dev float64
	for i, r := range ratios {
		dev += math.Abs(r/targets[i] - 1)
	}
	return max(0, 1-dev/float64(len(ratios)))
}

// aggregateWait is the departure-weighted mean of the per-class median
// scheduler waits and the worst per-class p99, in µs.
func aggregateWait(cs []classDelay) (p50, p99 float64) {
	var n, sum float64
	for _, c := range cs {
		sum += c.P50 * float64(c.Departures)
		n += float64(c.Departures)
		p99 = max(p99, c.P99*1e6)
	}
	if n > 0 {
		p50 = sum / n * 1e6
	}
	return p50, p99
}

// simulateTrace runs the link simulator with WTP over the very arrivals
// the live forwarder was fed and returns the per-class mean queueing
// delays in trace time units.
func simulateTrace(tr *traffic.Trace, t *tracer, parent int) ([]float64, error) {
	sp := t.begin("link.run", parent)
	defer t.end(sp)
	engine := sim.NewEngine()
	sched, err := core.New(core.KindWTP, []float64{1, 2, 4, 8}, link.PaperLinkRate)
	if err != nil {
		return nil, err
	}
	l := link.New(engine, link.PaperLinkRate, sched)
	delays := stats.NewClassDelays(tr.Classes)
	l.OnDepart = delays.Observe
	tr.Replay(engine, l.Arrive)
	engine.RunAll()
	out := make([]float64, tr.Classes)
	for c := range out {
		out[c] = delays.Mean(c)
	}
	return out, nil
}
