package netio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"pdds/internal/control"
	"pdds/internal/core"
	"pdds/internal/telemetry"
)

// Config describes a Forwarder.
type Config struct {
	// Listen is the UDP address to receive on (e.g. "127.0.0.1:0").
	Listen string
	// Forward is the UDP address transmitted datagrams are sent to.
	Forward string
	// Scheduler and SDP configure the queueing discipline
	// (default WTP with SDPs 1,2,4,8).
	Scheduler core.Kind
	SDP       []float64
	// RateBps is the egress rate in bits per second; it is what makes
	// queueing (and hence differentiation) happen at all.
	RateBps float64
	// MaxPackets bounds the aggregate queue; arriving datagrams beyond
	// it are dropped (0 = 4096).
	MaxPackets int
	// Shards is the number of parallel ingress shards (0 = 1). Each shard
	// owns an ingress socket — bound with SO_REUSEPORT so the kernel's
	// 4-tuple flow hash pins every flow to one shard — and a lock-free
	// SPSC ring into the single transmit goroutine, which merges the rings
	// by arrival stamp into the one scheduler, so every discipline serves
	// the same order at every shard count (DESIGN.md §3h). Without
	// SO_REUSEPORT, Listen refuses more than one shard. At most 64.
	Shards int
	// ClassMaxPackets, when non-nil, bounds each class's queue
	// individually (len must equal the scheduler's class count; 0 means
	// only the aggregate bound applies to that class). Arrivals beyond a
	// class's bound are dropped with full accounting, so one class's
	// burst cannot occupy the whole aggregate queue.
	ClassMaxPackets []int
	// Classifier, when non-nil, resolves flow identity to a class for
	// datagrams that carry ClassUnspecified or an out-of-range class
	// byte — and for every datagram when DistrustHeader is set. The
	// resolved class is re-marked into the forwarded datagram's class
	// byte so downstream hops and sinks see the edge's decision. When
	// nil, the ingress path is byte-for-byte today's behaviour: the
	// header class is trusted and out-of-range bytes count as BadClass.
	Classifier Classifier
	// DistrustHeader, with a Classifier set, classifies every datagram
	// from its flow identity instead of trusting in-range header class
	// bytes (the header byte still participates as the DS byte that
	// `dscp` filters see).
	DistrustHeader bool
	// DrainTimeout bounds the graceful drain Close performs: queued
	// datagrams keep transmitting — still paced at RateBps — for up to
	// this long before the remainder is dropped. Zero drops the backlog
	// immediately on Close. Either way every queued datagram ends up in
	// Forwarded or Dropped, so the conservation invariant
	// Received = Forwarded + Dropped + BadHeader + BadClass holds after
	// shutdown.
	DrainTimeout time.Duration
	// Telemetry, if set, receives per-class counters and queueing-delay
	// histograms for every datagram (delays in seconds). Leave nil to
	// run uninstrumented; MetricsAddr implies a registry.
	Telemetry *telemetry.Registry
	// MetricsAddr, if non-empty, serves the telemetry registry over
	// HTTP on this address ("127.0.0.1:0" picks a free port): /metrics
	// JSON, /metrics?format=text, and /debug/pprof/. A registry is
	// created automatically when Telemetry is nil.
	MetricsAddr string

	// Control, when non-nil, runs the closed-loop DDP controller: a
	// background goroutine snapshots the telemetry registry every
	// ControlInterval, feeds the controller (Control.SDP and Control.Kind
	// default from SDP and Scheduler), and stages each decision through
	// Retune — so the scheduler is retuned between egress batches.
	// Requires a retunable Scheduler kind; a telemetry registry is created
	// automatically when none is configured. When the measured ratios stay
	// inside the controller's deadband no retune is ever staged and the
	// data path is untouched.
	Control *control.Config
	// ControlInterval is the controller's observation period
	// (default 1s).
	ControlInterval time.Duration

	// Fault, when non-nil, intercepts every egress write attempt for
	// fault injection — packet corruption, truncation, duplication,
	// reordering, receiver stalls, and transient or persistent write
	// errors (see FaultInjector). Faults compose with the normal retry
	// and drop accounting, so the conservation invariant holds under any
	// injected behaviour. A fault injector disables egress write
	// batching (its contract is one write attempt per datagram from the
	// single transmit goroutine). Leave nil in production.
	Fault FaultInjector
}

func (c Config) withDefaults() Config {
	if c.Scheduler == "" {
		c.Scheduler = core.KindWTP
	}
	if len(c.SDP) == 0 {
		c.SDP = []float64{1, 2, 4, 8}
	}
	if c.MaxPackets == 0 {
		c.MaxPackets = 4096
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.ControlInterval == 0 {
		c.ControlInterval = time.Second
	}
	return c
}

const (
	// maxSleepChunk bounds any single pacer sleep so Close stays
	// responsive even at very low egress rates (one datagram's
	// transmission time can be seconds).
	maxSleepChunk = 50 * time.Millisecond
	// writeRetries and writeBackoffBase govern transient egress write
	// errors (e.g. ECONNREFUSED from a restarting receiver, ENOBUFS):
	// each datagram is retried with doubling backoff before it is
	// dropped and accounted.
	writeRetries     = 3
	writeBackoffBase = 500 * time.Microsecond
)

// Stats are cumulative forwarder counters. Every received datagram is
// accounted exactly once: Received = Forwarded + Dropped + BadHeader +
// BadClass + Queued at every quiescent snapshot, with Queued reaching 0
// after Close. A datagram counts as Queued from admission until its
// terminal event (forwarded, dropped, or discarded at close), wherever it
// sits in the pipeline — shard ring, scheduler, or the in-flight egress
// write.
type Stats struct {
	Received  uint64
	Forwarded uint64
	// Dropped counts queue-full drops (aggregate or per-class), egress
	// write failures that exhausted their retries, and datagrams
	// discarded at Close.
	Dropped uint64
	// BadHeader counts datagrams that failed to decode (short or
	// wrong-version headers).
	BadHeader uint64
	// BadClass counts structurally valid datagrams whose class could not
	// be resolved: an out-of-range or ClassUnspecified class byte with no
	// Classifier configured, or a Classifier miss (no filter matched and
	// no default class exists).
	BadClass uint64
	// Queued is the instantaneous in-pipeline backlog at snapshot time.
	Queued uint64
}

// Unaccounted is Received − Forwarded − Dropped − BadHeader − BadClass −
// Queued: received datagrams no counter holds (negative when counters
// hold more than was received). The forwarder keeps it at zero in every
// snapshot, so anything else is an accounting fault.
func (s Stats) Unaccounted() int64 {
	return int64(s.Received) - int64(s.Forwarded) - int64(s.Dropped) -
		int64(s.BadHeader) - int64(s.BadClass) - int64(s.Queued)
}

// ShardStats describes one ingress shard's activity.
type ShardStats struct {
	// Received counts datagrams this shard pulled off its socket.
	Received uint64
	// Batches counts reads that returned at least one datagram; Received
	// / Batches is the achieved amortization factor.
	Batches uint64
	// MaxBatch is the largest single receive batch.
	MaxBatch int
	// Mode is the shard's active I/O path: "mmsg" (recvmmsg/sendmmsg
	// batched syscalls) or "datagram" (portable fallback).
	Mode string
}

// Forwarder is a single-hop class-based forwarding element over UDP.
//
// Data plane layout: N ingress shard goroutines (Config.Shards) each read
// batches from their own socket, classify, account admission, and publish
// packets on a lock-free SPSC ring. The single transmit goroutine owns the
// one scheduler: it merges the rings into it by arrival stamp (pacer.admit)
// and calls Dequeue — so the scheduler sees the arrival sequence a
// single-socket forwarder would, and every discipline's service order is
// preserved across shards without any queue lock. That decision lives in
// the clock-free pacer; transmitLoop is the shell that sleeps and writes.
// Counter transactions take statMu, held for whole batches at ingress and
// whole egress batches at transmit.
//
// Telemetry ordering contract: for every datagram the registry sees the
// Arrival strictly before the matching Departure or Drop (both are
// recorded under statMu, arrival before the packet is published), so
// counter-derived backlogs (arrivals − departures − drops) never
// transiently underflow.
type Forwarder struct {
	cfg        Config
	conns      []*net.UDPConn // shard ingress sockets; conns[0] is canonical
	dst        *net.UDPAddr
	epoch      time.Time
	telem      *telemetry.Registry
	metrics    *telemetry.Server
	numClasses int

	// abort interrupts pacer sleeps and write backoffs once Close (or a
	// drain deadline) decides the remaining backlog will be dropped.
	abort atomic.Bool

	// ingressAddr/Port hold the local socket's canonical address and
	// port: the destination side of every arriving flow's 5-tuple,
	// resolved once at bind time so shards build flow keys without
	// touching the socket again.
	ingressAddr netip.Addr
	ingressPort uint16

	shards []*ingressShard

	// pace, with the one scheduler inside it, is owned by the transmit
	// goroutine (and by Close's final sweep, which runs strictly after it
	// exits).
	pace *pacer

	wake    chan struct{} // 1-buffered ingress→transmit doorbell
	closeCh chan struct{} // closed once by Close

	// retunePending flags a staged parameter vector; the vector itself
	// (pendingParams) and the applied history live under statMu. The
	// transmit goroutine checks the flag between egress batches and
	// installs the vector there, so no packet is ever scheduled under a
	// half-updated parameter set.
	retunePending atomic.Bool

	// ctl is the optional closed-loop controller, driven solely by its
	// own goroutine (controlLoop); ctlStats mirrors its counters under
	// statMu for concurrent readers.
	ctl   *control.Controller
	ctlWG sync.WaitGroup

	// statMu guards the counter transactions (stats, queued, classQueued,
	// shardStats, idSeq, closing/drainBy) — never held across socket I/O.
	statMu      sync.Mutex
	queued      int
	classQueued []int
	closing     bool
	drainBy     float64 // drain deadline on the epoch; valid once closing is set
	stats       Stats
	shardStats  []ShardStats
	idSeq       uint64

	pendingParams []float64 // staged retune vector; valid while retunePending
	retuneApplied uint64    // vectors installed by the transmit goroutine
	retuneParams  []float64 // last installed vector
	ctlStats      control.Stats

	closeOnce sync.Once
	closeErr  error

	ingressWG sync.WaitGroup
	xmitWG    sync.WaitGroup
}

// Listen binds the forwarder's ingress socket(s) and starts its shard and
// transmit loops. Stop with Close.
func Listen(cfg Config) (*Forwarder, error) {
	cfg = cfg.withDefaults()
	if !(cfg.RateBps > 0) {
		return nil, fmt.Errorf("netio: RateBps %g must be > 0", cfg.RateBps)
	}
	if cfg.Shards < 1 || cfg.Shards > maxShards {
		return nil, fmt.Errorf("netio: Shards %d out of range [1,%d]", cfg.Shards, maxShards)
	}
	if cfg.MaxPackets < 0 {
		return nil, fmt.Errorf("netio: MaxPackets %d must be >= 0", cfg.MaxPackets)
	}
	if cfg.ControlInterval < 0 {
		return nil, fmt.Errorf("netio: ControlInterval %v must be >= 0", cfg.ControlInterval)
	}
	dst, err := net.ResolveUDPAddr("udp", cfg.Forward)
	if err != nil {
		return nil, fmt.Errorf("netio: resolve forward addr: %w", err)
	}
	conns, err := listenShards(cfg.Listen, cfg.Shards)
	if err != nil {
		return nil, err
	}
	closeConns := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	rate := cfg.RateBps / 8
	sched, err := core.New(cfg.Scheduler, cfg.SDP, rate)
	if err != nil {
		closeConns()
		return nil, err
	}
	numClasses := sched.NumClasses()
	if cfg.Classifier != nil && cfg.Classifier.NumClasses() != numClasses {
		closeConns()
		return nil, fmt.Errorf("netio: classifier declares %d classes, scheduler %d",
			cfg.Classifier.NumClasses(), numClasses)
	}
	if cfg.DistrustHeader && cfg.Classifier == nil {
		closeConns()
		return nil, fmt.Errorf("netio: DistrustHeader requires a Classifier")
	}
	if cfg.ClassMaxPackets != nil && len(cfg.ClassMaxPackets) != numClasses {
		closeConns()
		return nil, fmt.Errorf("netio: ClassMaxPackets has %d entries for %d classes",
			len(cfg.ClassMaxPackets), numClasses)
	}
	for i, b := range cfg.ClassMaxPackets {
		if b < 0 {
			closeConns()
			return nil, fmt.Errorf("netio: ClassMaxPackets[%d] = %d must be >= 0", i, b)
		}
	}
	local := conns[0].LocalAddr().(*net.UDPAddr).AddrPort()
	f := &Forwarder{
		cfg:         cfg,
		conns:       conns,
		dst:         dst,
		epoch:       time.Now(),
		telem:       cfg.Telemetry,
		numClasses:  numClasses,
		ingressAddr: local.Addr().Unmap(),
		ingressPort: local.Port(),
		wake:        make(chan struct{}, 1),
		closeCh:     make(chan struct{}),
		classQueued: make([]int, numClasses),
		shardStats:  make([]ShardStats, cfg.Shards),
	}
	if f.telem == nil && (cfg.MetricsAddr != "" || cfg.Control != nil) {
		f.telem = telemetry.NewWithSDP(cfg.SDP)
	}
	if cfg.Control != nil {
		if _, ok := sched.(core.Retuner); !ok {
			closeConns()
			return nil, fmt.Errorf("netio: Control: %s is not retunable", cfg.Scheduler)
		}
		cc := *cfg.Control
		if cc.SDP == nil {
			cc.SDP = cfg.SDP
		}
		if cc.Kind == "" {
			cc.Kind = cfg.Scheduler
		}
		ctl, err := control.New(cc)
		if err != nil {
			closeConns()
			return nil, fmt.Errorf("netio: %w", err)
		}
		f.ctl = ctl
	}
	if cfg.MetricsAddr != "" {
		srv, err := telemetry.Serve(cfg.MetricsAddr, f.telem)
		if err != nil {
			closeConns()
			return nil, err
		}
		f.metrics = srv
	}
	f.shards = make([]*ingressShard, cfg.Shards)
	rings := make([]*spscRing, cfg.Shards)
	for i := range f.shards {
		bc, err := newBatchConn(conns[i], defaultIOBatch)
		if err != nil {
			closeConns()
			if f.metrics != nil {
				f.metrics.Close()
			}
			return nil, fmt.Errorf("netio: raw ingress socket: %w", err)
		}
		f.shards[i] = newIngressShard(f, i, bc)
		rings[i] = f.shards[i].xmit
		f.shardStats[i] = ShardStats{Mode: bc.Mode()}
	}
	f.pace = newPacer(sched, rings, rate)
	f.ingressWG.Add(len(f.shards))
	for _, s := range f.shards {
		go s.run()
	}
	f.xmitWG.Add(1)
	go f.transmitLoop()
	if f.ctl != nil {
		f.ctlWG.Add(1)
		go f.controlLoop()
	}
	return f, nil
}

// LocalAddr returns the bound ingress address (shared by every shard
// socket under SO_REUSEPORT).
func (f *Forwarder) LocalAddr() net.Addr { return f.conns[0].LocalAddr() }

// Telemetry returns the attached registry (nil when uninstrumented).
func (f *Forwarder) Telemetry() *telemetry.Registry { return f.telem }

// MetricsAddr returns the bound metrics HTTP address, or nil when
// Config.MetricsAddr was empty.
func (f *Forwarder) MetricsAddr() net.Addr {
	if f.metrics == nil {
		return nil
	}
	return f.metrics.Addr()
}

// Stats returns a snapshot of the counters.
func (f *Forwarder) Stats() Stats {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	s := f.stats
	s.Queued = uint64(f.queued)
	return s
}

// ShardStats returns a snapshot of each ingress shard's counters.
func (f *Forwarder) ShardStats() []ShardStats {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	out := make([]ShardStats, len(f.shardStats))
	copy(out, f.shardStats)
	return out
}

// Retune stages a new scheduler parameter vector. The vector is validated
// synchronously (core.CheckRetuneParams plus the kind's retunability); the
// installation itself is performed by the transmit goroutine between
// egress batches, so service order is never computed under a half-updated
// parameter set and no queued packet is touched. A second Retune before
// the first installs simply replaces the staged vector. Safe for
// concurrent use.
func (f *Forwarder) Retune(params []float64) error {
	if _, ok := f.pace.sched.(core.Retuner); !ok {
		return fmt.Errorf("netio: %w", core.ErrNotRetunable)
	}
	if err := core.CheckRetuneParams(params, f.numClasses); err != nil {
		return fmt.Errorf("netio: %w", err)
	}
	f.statMu.Lock()
	f.pendingParams = append(f.pendingParams[:0], params...)
	f.statMu.Unlock()
	f.retunePending.Store(true)
	f.signalWake()
	return nil
}

// RetuneStats reports the live retune seam's activity.
type RetuneStats struct {
	// Pending is true when a vector is staged but not yet installed.
	Pending bool
	// Applied counts vectors the transmit goroutine has installed.
	Applied uint64
	// Params is the last installed vector (nil before the first).
	Params []float64
}

// RetuneStats returns a snapshot of the retune seam's counters.
func (f *Forwarder) RetuneStats() RetuneStats {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	out := RetuneStats{
		Pending: f.retunePending.Load(),
		Applied: f.retuneApplied,
	}
	if f.retuneParams != nil {
		out.Params = append([]float64(nil), f.retuneParams...)
	}
	return out
}

// ControlStats returns the embedded controller's activity counters; ok is
// false when the forwarder runs without Config.Control.
func (f *Forwarder) ControlStats() (control.Stats, bool) {
	if f.ctl == nil {
		return control.Stats{}, false
	}
	f.statMu.Lock()
	defer f.statMu.Unlock()
	return f.ctlStats, true
}

// maybeRetune installs a staged parameter vector into the scheduler.
// Transmit-side only: between the check and the installation no dequeue
// happens, so the swap is atomic with respect to service order.
func (f *Forwarder) maybeRetune() {
	if !f.retunePending.Load() {
		return
	}
	f.statMu.Lock()
	params := f.pendingParams
	f.pendingParams = nil
	f.retunePending.Store(false)
	f.statMu.Unlock()
	if len(params) == 0 {
		return
	}
	// Validated in Retune, so a failure here would be a programming error,
	// not an input error.
	if err := core.Retune(f.pace.sched, params); err != nil {
		return
	}
	f.statMu.Lock()
	f.retuneApplied++
	f.retuneParams = params
	f.statMu.Unlock()
}

// controlLoop drives the optional closed-loop controller: snapshot the
// registry each tick, let the controller judge the window, and stage any
// decision through Retune. The controller itself is confined to this
// goroutine; decisions cross to the transmit goroutine via the staging
// seam only.
func (f *Forwarder) controlLoop() {
	defer f.ctlWG.Done()
	t := time.NewTicker(f.cfg.ControlInterval)
	defer t.Stop()
	for {
		select {
		case <-f.closeCh:
			return
		case <-t.C:
		}
		d, ok := f.ctl.Observe(f.telem.Snapshot())
		st := f.ctl.Stats()
		f.statMu.Lock()
		f.ctlStats = st
		f.statMu.Unlock()
		if ok {
			// Validation cannot fail: the controller emits clamped
			// nondecreasing vectors and the kind was checked at Listen.
			f.Retune(d.Params)
		}
	}
}

// Close shuts the forwarder down and waits for its loops to exit. With
// Config.DrainTimeout zero, queued datagrams are dropped immediately
// (counted in Stats.Dropped and per-class telemetry drops); with a
// positive timeout they keep transmitting, still paced, until the queue
// empties or the deadline passes, whichever comes first.
func (f *Forwarder) Close() error {
	f.closeOnce.Do(func() {
		f.statMu.Lock()
		f.beginClosingLocked()
		f.statMu.Unlock()
		for i, c := range f.conns {
			err := c.Close()
			if i == 0 {
				f.closeErr = err
			}
		}
		close(f.closeCh)
		f.ctlWG.Wait()
		// Shards exit on their sockets' close errors; after they are gone
		// the rings are final, the transmitter drains (or discards at the
		// deadline), and the final sweep below accounts anything a shard
		// published after the transmitter's last look.
		f.ingressWG.Wait()
		f.signalWake()
		f.xmitWG.Wait()
		f.discardAll()
		if f.metrics != nil {
			f.metrics.Close()
		}
	})
	return f.closeErr
}

// beginClosingLocked transitions to the closing state: no new datagrams
// are admitted and the transmitter drains until drainBy. Caller must hold
// f.statMu.
func (f *Forwarder) beginClosingLocked() {
	if f.closing {
		return
	}
	f.closing = true
	f.drainBy = f.now() + f.cfg.DrainTimeout.Seconds()
	if f.cfg.DrainTimeout <= 0 {
		f.abort.Store(true)
	}
}

// noteIngressDone is called by a shard whose socket died (normally at
// Close): it flips to closing so the transmitter knows to drain out.
func (f *Forwarder) noteIngressDone() {
	f.statMu.Lock()
	f.beginClosingLocked()
	f.statMu.Unlock()
	f.signalWake()
}

// closeState snapshots the closing flag and drain deadline.
func (f *Forwarder) closeState() (bool, float64) {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	return f.closing, f.drainBy
}

// signalWake rings the transmitter's doorbell without blocking.
func (f *Forwarder) signalWake() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// now returns seconds since the forwarder started: the one time base for
// pacing, service stamps and waiting-time priorities.
func (f *Forwarder) now() float64 { return time.Since(f.epoch).Seconds() }

// recycle returns p to its home shard's free ring (getPacket recorded the
// shard in p.Flow) after its terminal event. Transmit-side only (or Close's
// final sweep, strictly after the transmitter exits). A full free ring
// simply releases the packet to the garbage collector.
func (f *Forwarder) recycle(p *core.Packet) {
	p.Payload = p.Payload[:0]
	f.shards[p.Flow].free.Push(p)
}

// transmitLoop is the pacer's shell: it sleeps until the wake instant, reads
// the clock once per served packet, writes, accounts, and handles Close.
func (f *Forwarder) transmitLoop() {
	defer f.xmitWG.Done()
	out, err := net.DialUDP("udp", nil, f.dst) // nil on error: every write fails
	var bc *batchConn
	if err == nil {
		defer out.Close()
		bc, _ = newBatchConn(out, defaultIOBatch)
	}
	// Batch only while the pacer is behind schedule, so paced runs keep one
	// datagram per wake-up and a fault injector sees single attempts.
	batched := bc != nil && bc.Batched() && f.cfg.Fault == nil
	pkts := make([]*core.Packet, 0, defaultIOBatch)
	werrs := make([]error, defaultIOBatch)
	payloads := make([][]byte, 0, defaultIOBatch)
	for {
		now := f.now()
		for ; now < f.pace.wake() && !f.abort.Load(); now = f.now() {
			time.Sleep(min(time.Duration((f.pace.wake()-now)*float64(time.Second)), maxSleepChunk))
		}
		f.maybeRetune()
		closing, drainBy := f.closeState()
		if closing && now >= drainBy {
			f.discardAll()
			return
		}
		p := f.pace.serve(now)
		if p == nil {
			if closing {
				return // nothing queued and no more arrivals: drained
			}
			select {
			case <-f.wake:
			case <-f.closeCh:
			}
			continue
		}
		pkts = append(pkts[:0], p)
		for now = f.now(); batched && len(pkts) < defaultIOBatch && f.pace.extend(now); now = f.now() {
			pkts = append(pkts, f.pace.take(now))
		}
		// sendmmsg sends a prefix and stops at the first failing datagram;
		// that one takes the per-datagram retry path, then batching resumes.
		for i := 0; i < len(pkts); {
			n, werr := 0, error(nil)
			if len(pkts) > 1 {
				payloads = payloads[:0]
				for _, q := range pkts[i:] {
					payloads = append(payloads, q.Payload)
				}
				n, werr = bc.WriteBatch(payloads)
				clear(werrs[i : i+n])
			}
			if i += n; i < len(pkts) && (werr != nil || n == 0) {
				werrs[i] = f.write(out, pkts[i].Payload)
				i++
			}
		}
		f.statMu.Lock()
		for i, q := range pkts {
			if werrs[i] == nil {
				f.stats.Forwarded++
				f.telem.Departure(q.Class, q.Size, q.Start, q.Wait())
			} else {
				f.stats.Dropped++
				f.telem.Drop(q.Class, q.Start)
			}
			f.queued--
			f.classQueued[q.Class]--
		}
		f.statMu.Unlock()
		for _, q := range pkts {
			f.recycle(q)
		}
	}
}

// discardAll drops every packet the transmit side owns — shard rings and
// scheduler — with full accounting, so Received = Forwarded + Dropped +
// BadHeader + BadClass holds after shutdown and the telemetry backlog
// returns to zero. Called from the transmit goroutine at the drain
// deadline, and from Close strictly after both goroutine groups exit (the
// final sweep that catches packets a shard published after the
// transmitter's last look).
func (f *Forwarder) discardAll() {
	now := f.now()
	f.statMu.Lock()
	for p := f.pace.serve(now); p != nil; p = f.pace.serve(now) {
		f.stats.Dropped++
		f.telem.Drop(p.Class, now)
		f.queued--
		f.classQueued[p.Class]--
		f.recycle(p)
	}
	f.statMu.Unlock()
}

// errNoEgress reports that the egress socket could not be dialed.
var errNoEgress = errors.New("netio: egress socket unavailable")

// write sends one datagram, retrying transient errors with doubling
// backoff before giving up. Retry time is paid out of pacer credit. A
// configured FaultInjector wraps every attempt.
func (f *Forwarder) write(out *net.UDPConn, payload []byte) error {
	var send func(p []byte) (int, error)
	if out == nil {
		send = func([]byte) (int, error) { return 0, errNoEgress }
	} else {
		send = out.Write
	}
	fault := f.cfg.Fault
	backoff := writeBackoffBase
	for attempt := 0; ; attempt++ {
		var err error
		if fault != nil {
			_, err = fault.Write(payload, attempt, send)
		} else {
			_, err = send(payload)
		}
		if err == nil || attempt >= writeRetries || f.abort.Load() {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}
