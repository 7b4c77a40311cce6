package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pdds/internal/netio"
	"pdds/internal/traffic"
)

// The load generator is one sender goroutine and one sink goroutine, so a
// 2-CPU host runs no more busy threads than the forwarder itself adds.
//
// Closed loop: W datagrams in flight. The sender blocks on a token channel
// (it never spins); the sink returns a token per datagram. A datagram
// unanswered for lossTimeout is counted as lost and its token re-issued.
//
// Open loop: a recorded arrival trace is replayed in real time; each
// datagram carries its actual send time and the generator's lateness
// against the schedule is reported.

const (
	lossTimeout = 20 * time.Millisecond
	// stragglerGrace is how long a closed-loop phase that has given up on
	// datagrams waits at its end for them to arrive after all.
	stragglerGrace = 200 * time.Millisecond
	// maxWindow caps W: pdfwd's default-sized receive buffer overflows
	// somewhere between 128 and 256 64-byte datagrams in flight, and kernel
	// drops of that kind are what BENCH_forwarder.json's 16k pps recorded.
	maxWindow = 64
	// sinkRcvBuf is what the sink asks the kernel for; the granted size is
	// printed, since an unprivileged process is capped by net.core.rmem_max.
	sinkRcvBuf = 8 << 20
	// classPortBase is the first source port of testdata/classes64.conf:
	// filter j (0..63) matches src-port [base+16j, base+16j+15] and belongs
	// to class j/16. Below the ephemeral range, so the harness's own
	// kernel-assigned ports never collide with it.
	classPortBase  = 20000
	classFilters   = 64
	portsPerFilter = 16
	numClasses     = 4

	slotRing      = 1 << 16 // in-flight table; far larger than any window
	classTableLen = 4096
	maxDatagram   = 1500
	blastSize     = 64 // closed-loop datagram size, header included
	spanEvery     = 64 // one per-datagram span in this many
)

// Slot states of the in-flight table; a slot holds seq<<2|state.
const (
	slotPending = 1
	slotAcked   = 2
	slotLost    = 3
)

// sample is one good datagram seen by the sink.
type sample struct {
	arr  int64 // ns since the harness epoch
	soj  int32 // send → sink, ns
	size uint16
	cls  uint8
}

// phaseDesc tells the sink what the current phase expects. Open-loop
// phases carry the trace so the sink can check each datagram's class and
// size against the arrival that produced it.
type phaseDesc struct {
	base   uint64            // first sequence number of the phase
	tokens chan struct{}     // closed loop only
	trace  []traffic.Arrival // open loop only
}

// sinkErrors counts datagrams that reached the sink but failed a check.
type sinkErrors struct {
	badDecode, badPayload, badClass, duplicate, stale uint64
}

// harness owns the sockets and goroutines of one set-up.
type harness struct {
	flows     int
	untagged  bool // send ClassUnspecified; the forwarder classifies
	epoch     time.Time
	epochWall int64

	sink       *net.UDPConn
	sinkBuf    int // granted SO_RCVBUF
	conns      []*net.UDPConn
	flowClass  []uint8 // expected class at the sink, per flow
	classTable []uint8 // per-sequence class when there is a single flow
	pattern    []byte  // payload bytes every datagram carries

	phase   atomic.Pointer[phaseDesc]
	slots   []atomic.Uint64
	sentAt  []int64
	nextSeq uint64

	sinkWG  sync.WaitGroup
	arrived atomic.Uint64 // every datagram the sink read
	good    atomic.Uint64 // intact, right class, first copy
	// errs and log belong to the sink goroutine until close returns.
	errs sinkErrors
	log  []sample

	tr *tracer // nil when untraced
}

// newHarness binds the sink and starts its goroutine. rng drives every
// choice the generator makes (class tags, payload bytes, source ports
// inside the classifier's ranges), so a seed fixes the inputs.
func newHarness(flows int, untagged bool, expectSamples int, rng *rand.Rand, tr *tracer) (*harness, error) {
	h := &harness{
		flows:     flows,
		untagged:  untagged,
		epoch:     time.Now(),
		flowClass: make([]uint8, flows),
		slots:     make([]atomic.Uint64, slotRing),
		sentAt:    make([]int64, slotRing),
		log:       make([]sample, 0, expectSamples),
		tr:        tr,
	}
	h.epochWall = h.epoch.UnixNano()
	h.pattern = make([]byte, maxDatagram)
	for i := range h.pattern {
		h.pattern[i] = byte(rng.Uint32())
	}
	// Balanced class assignments in seeded order.
	h.classTable = make([]uint8, classTableLen)
	for i := range h.classTable {
		h.classTable[i] = uint8(i % numClasses)
	}
	rng.Shuffle(len(h.classTable), func(i, j int) { h.classTable[i], h.classTable[j] = h.classTable[j], h.classTable[i] })
	for f := range h.flowClass {
		h.flowClass[f] = uint8(f % numClasses)
	}
	rng.Shuffle(flows, func(i, j int) { h.flowClass[i], h.flowClass[j] = h.flowClass[j], h.flowClass[i] })

	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("sink: %w", err)
	}
	h.sink = sink
	// The kernel silently caps the request; the granted size is reported.
	_ = sink.SetReadBuffer(sinkRcvBuf)
	h.sinkBuf = grantedRcvBuf(sink)
	h.phase.Store(&phaseDesc{})
	h.sinkWG.Add(1)
	go h.sinkLoop()
	return h, nil
}

// grantedRcvBuf reads SO_RCVBUF back (0 if the socket cannot say).
func grantedRcvBuf(c *net.UDPConn) int {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0
	}
	n := 0
	_ = rc.Control(func(fd uintptr) {
		n, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return n
}

// connect opens the flow sockets towards target (the forwarder's ingress,
// or the sink itself for the no-forwarder floor). Untagged flows draw
// their source ports inside the classifier's ranges, and each flow's
// expected class is the class of the range it landed in.
func (h *harness) connect(target netip.AddrPort, rng *rand.Rand) error {
	raddr := net.UDPAddrFromAddrPort(target)
	for f := 0; f < h.flows; f++ {
		var conn *net.UDPConn
		var err error
		if h.untagged {
			filter := f % classFilters
			h.flowClass[f] = uint8(filter / (classFilters / numClasses))
			for _, off := range rng.Perm(portsPerFilter) {
				laddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: classPortBase + portsPerFilter*filter + off}
				if conn, err = net.DialUDP("udp4", laddr, raddr); err == nil {
					break
				}
			}
		} else {
			conn, err = net.DialUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}, raddr)
		}
		if err != nil {
			return fmt.Errorf("flow %d: %w", f, err)
		}
		h.conns = append(h.conns, conn)
	}
	return nil
}

// sinkAddr is where the forwarder must send.
func (h *harness) sinkAddr() netip.AddrPort {
	return h.sink.LocalAddr().(*net.UDPAddr).AddrPort()
}

// close stops the sink goroutine and releases every socket. errs and log
// are safe to read afterwards.
func (h *harness) close() {
	h.sink.Close()
	h.sinkWG.Wait()
	for _, c := range h.conns {
		c.Close()
	}
}

// expect returns the class and wire size the sink must see for seq.
func (h *harness) expect(pd *phaseDesc, seq uint64) (class uint8, size int) {
	if pd.trace != nil {
		a := pd.trace[seq-pd.base]
		return uint8(a.Class), int(a.Size)
	}
	if h.flows == 1 && !h.untagged {
		return h.classTable[seq%classTableLen], blastSize
	}
	return h.flowClass[seq%uint64(h.flows)], blastSize
}

func (h *harness) sinkLoop() {
	defer h.sinkWG.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := h.sink.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		now := time.Now()
		h.arrived.Add(1)
		hdr, payload, derr := netio.Decode(buf[:n])
		if derr != nil {
			h.errs.badDecode++
			continue
		}
		pd := h.phase.Load()
		seq := hdr.Seq
		if seq < pd.base {
			h.errs.stale++ // left over from an earlier phase
			continue
		}
		if pd.trace != nil && seq-pd.base >= uint64(len(pd.trace)) {
			h.errs.badDecode++
			continue
		}
		class, size := h.expect(pd, seq)
		if n != size || !bytes.Equal(payload, h.pattern[:len(payload)]) {
			h.errs.badPayload++
			continue
		}
		if hdr.Class != class {
			h.errs.badClass++
			continue
		}
		// Count first, publish second: the sender reads good as soon as it
		// sees the slot resolved.
		h.good.Add(1)
		slot := &h.slots[seq%slotRing]
		switch {
		case slot.CompareAndSwap(seq<<2|slotPending, seq<<2|slotAcked):
			if pd.tokens != nil {
				pd.tokens <- struct{}{}
			}
		case slot.Load() == seq<<2|slotLost:
			// Arrived after the sender gave up on it: delivered, but its
			// token was already re-issued.
		default:
			h.good.Add(^uint64(0))
			h.errs.duplicate++
			continue
		}
		sentNs := hdr.SentAt.UnixNano() - h.epochWall
		arr := now.Sub(h.epoch).Nanoseconds()
		h.log = append(h.log, sample{arr: arr, soj: int32(min(arr-sentNs, 1<<31-1)), size: uint16(n), cls: hdr.Class})
		if h.tr != nil && seq%spanEvery == 0 {
			// A root span: the datagram is in the forwarder's hands, not
			// inside any call the harness makes.
			h.tr.add("fwd.sojourn", 0, h.epoch.Add(time.Duration(sentNs)), now)
		}
	}
}

// phaseStats is what the sender saw during one phase.
type phaseStats struct {
	start, end time.Time // first send, quiescence
	sent       uint64
	good       uint64 // arrived intact with the right class, by quiescence
	timeouts   uint64
	// Open loop only: the replayed trace, each datagram's actual send time
	// (ns since the harness epoch) and its lateness against the schedule.
	trace     []traffic.Arrival
	sendTimes []int64
	lateNs    []float64
}

// stamp writes the header for seq into buf and marks it in flight.
func (h *harness) stamp(buf []byte, class uint8, seq uint64, now time.Time) {
	sinceEpoch := now.Sub(h.epoch).Nanoseconds()
	// The timestamp is the harness's monotonic clock re-based on wall
	// time, so sojourns are immune to wall-clock steps.
	netio.Header{Class: class, Seq: seq, SentAt: time.Unix(0, h.epochWall+sinceEpoch)}.Encode(buf[:0])
	h.sentAt[seq%slotRing] = sinceEpoch
	h.slots[seq%slotRing].Store(seq<<2 | slotPending)
}

// newSendBuf returns header room followed by the payload pattern.
func (h *harness) newSendBuf() []byte {
	buf := make([]byte, maxDatagram)
	copy(buf[netio.HeaderLen:], h.pattern)
	return buf
}

// runClosed keeps window datagrams in flight for dur, then waits until
// every one of them is answered or timed out.
func (h *harness) runClosed(window int, dur time.Duration, parent int) (phaseStats, error) {
	if window < 1 || window > maxWindow {
		return phaseStats{}, fmt.Errorf("window %d outside [1,%d]", window, maxWindow)
	}
	base := h.nextSeq
	goodBefore := h.good.Load()
	// The sink returns at most one token per datagram in flight.
	pd := &phaseDesc{base: base, tokens: make(chan struct{}, window)}
	h.phase.Store(pd)
	buf := h.newSendBuf()
	ticker := time.NewTicker(lossTimeout / 4)
	defer ticker.Stop()

	ps := phaseStats{start: time.Now()}
	deadline := ps.start.Add(dur)
	credit := window
	lo := base // lowest sequence number not yet answered or given up on
	reap := func(now time.Time) {
		nowNs := now.Sub(h.epoch).Nanoseconds()
		for lo < h.nextSeq {
			slot := &h.slots[lo%slotRing]
			if slot.Load() == lo<<2|slotPending {
				if nowNs-h.sentAt[lo%slotRing] < int64(lossTimeout) {
					return
				}
				if slot.CompareAndSwap(lo<<2|slotPending, lo<<2|slotLost) {
					ps.timeouts++
					credit++
				}
			}
			lo++
		}
	}
	for {
		if credit == 0 {
			select {
			case <-pd.tokens:
				credit++
			case t := <-ticker.C:
				reap(t)
			}
			continue
		}
		now := time.Now()
		if now.After(deadline) {
			break
		}
		seq := h.nextSeq
		class, _ := h.expect(pd, seq)
		if h.untagged {
			class = netio.ClassUnspecified
		}
		h.stamp(buf, class, seq, now)
		h.nextSeq++
		credit--
		sp := 0
		if h.tr != nil && seq%spanEvery == 0 {
			sp = h.tr.begin("harness.send", parent)
		}
		if _, err := h.conns[seq%uint64(h.flows)].Write(buf[:blastSize]); err != nil {
			return ps, fmt.Errorf("send: %w", err)
		}
		h.tr.end(sp)
		ps.sent++
		reap(now)
	}
	for lo < h.nextSeq {
		select {
		case <-pd.tokens:
		case <-ticker.C:
		}
		reap(time.Now())
	}
	ps.end = time.Now()
	// A datagram given up on may still be on its way, held up by a host
	// that stalled the forwarder: it is delivered if it arrives before the
	// next phase begins.
	for grace := ps.end.Add(stragglerGrace); h.good.Load()-goodBefore < ps.sent && time.Now().Before(grace); {
		time.Sleep(time.Millisecond)
	}
	ps.good = h.good.Load() - goodBefore
	return ps, nil
}

// runOpen replays trace in real time — arrival times are in trace time
// units of tuSeconds each — and returns once the sink has every datagram
// or has gone quiet.
func (h *harness) runOpen(trace []traffic.Arrival, tuSeconds float64, parent int) (phaseStats, error) {
	base := h.nextSeq
	goodBefore := h.good.Load()
	h.phase.Store(&phaseDesc{base: base, trace: trace})
	buf := h.newSendBuf()
	ps := phaseStats{
		start:     time.Now(),
		trace:     trace,
		lateNs:    make([]float64, 0, len(trace)),
		sendTimes: make([]int64, 0, len(trace)),
	}
	for i, a := range trace {
		due := ps.start.Add(time.Duration(a.Time * tuSeconds * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		seq := base + uint64(i)
		now := time.Now()
		h.stamp(buf, uint8(a.Class), seq, now)
		h.nextSeq++
		sp := 0
		if h.tr != nil && seq%spanEvery == 0 {
			sp = h.tr.begin("harness.send", parent)
		}
		if _, err := h.conns[seq%uint64(h.flows)].Write(buf[:a.Size]); err != nil {
			return ps, fmt.Errorf("send: %w", err)
		}
		h.tr.end(sp)
		ps.sent++
		ps.lateNs = append(ps.lateNs, float64(now.Sub(due).Nanoseconds()))
		ps.sendTimes = append(ps.sendTimes, now.Sub(h.epoch).Nanoseconds())
	}
	// The forwarder still holds a backlog: wait for it to drain.
	quiet, last := time.Now(), h.arrived.Load()
	for h.good.Load()-goodBefore < ps.sent && time.Since(quiet) < 500*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if n := h.arrived.Load(); n != last {
			quiet, last = time.Now(), n
		}
	}
	ps.end = time.Now()
	ps.good = h.good.Load() - goodBefore
	return ps, nil
}

// window is the per-window view of a phase's samples.
type window struct {
	count    int
	p50, p99 float64 // sojourn, µs
}

// windows cuts the samples that arrived in [from, to) into whole windows
// of length every and summarizes each; class < 0 keeps every class.
func windows(log []sample, epoch time.Time, from, to time.Time, every time.Duration, class int) []window {
	lo, hi := from.Sub(epoch).Nanoseconds(), to.Sub(epoch).Nanoseconds()
	n := int((hi - lo) / int64(every))
	if n < 1 {
		return nil
	}
	buckets := make([][]float64, n)
	for _, s := range log {
		if s.arr < lo || (class >= 0 && int(s.cls) != class) {
			continue
		}
		if w := int((s.arr - lo) / int64(every)); w < n {
			buckets[w] = append(buckets[w], float64(s.soj)/1e3)
		}
	}
	out := make([]window, n)
	for i, b := range buckets {
		out[i] = window{count: len(b), p50: quantile(b, 0.50), p99: quantile(b, 0.99)}
	}
	return out
}

// series applies f to every window.
func series(ws []window, f func(window) float64) []float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return xs
}

// backloggedRate measures the forwarder's achieved egress rate, in bits
// per second, over the stretches where it provably had work queued: an
// ideal link of rateBps fed the datagrams at their actual send times still
// holds at least margin of unfinished work. Inside such a stretch the
// pacer is the only thing spacing departures, so bytes over time between
// the first and last sink arrival is the paced rate.
//
// scale shrinks the thresholds for replays too short to hold full-size
// stretches (the smoke test); it is 1 for any replay of four seconds or more.
func backloggedRate(ps phaseStats, log []sample, rateBps, scale float64) (bps float64, stretches int) {
	margin := 4e-3 * scale      // seconds of unfinished work that proves a backlog
	minStretch := 30e-3 * scale // seconds; shorter stretches are mostly edge
	type interval struct{ from, to int64 }
	var busy []interval
	work, start := 0.0, int64(-1)
	for i, t := range ps.sendTimes {
		if i > 0 {
			work = max(0, work-float64(t-ps.sendTimes[i-1])/1e9)
		}
		switch {
		case work >= margin && start < 0:
			start = t
		case work < margin && start >= 0:
			busy = append(busy, interval{start, ps.sendTimes[i-1]})
			start = -1
		}
		work += float64(ps.trace[i].Size) * 8 / rateBps
	}
	if start >= 0 {
		busy = append(busy, interval{start, ps.sendTimes[len(ps.sendTimes)-1]})
	}
	var bits, secs float64
	j := 0
	for _, iv := range busy {
		if float64(iv.to-iv.from)/1e9 < minStretch {
			continue
		}
		for j < len(log) && log[j].arr < iv.from {
			j++
		}
		first := j
		for j < len(log) && log[j].arr <= iv.to {
			j++
		}
		if j-first < 2 {
			continue
		}
		// A datagram leaves the pacer one transmission time of its
		// predecessor after it, so the bytes between the first and the last
		// arrival are those of every datagram but the last.
		for _, s := range log[first : j-1] {
			bits += float64(s.size) * 8
		}
		secs += float64(log[j-1].arr-log[first].arr) / 1e9
		stretches++
	}
	if secs == 0 {
		return 0, 0
	}
	return bits / secs, stretches
}
