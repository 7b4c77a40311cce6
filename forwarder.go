package pdds

import (
	"net"
	"time"

	"pdds/internal/classify"
	"pdds/internal/control"
	"pdds/internal/core"
	"pdds/internal/netio"
	"pdds/internal/telemetry"
)

// Forwarder is a live single-hop class-based UDP forwarding element: the
// paper's per-hop behaviour on real sockets. Datagrams carry an 18-byte
// header (see EncodeDatagram) whose class byte selects the service class;
// the egress is rate-limited and scheduled by the configured discipline.
type Forwarder struct {
	inner *netio.Forwarder
}

// ForwarderStats are cumulative forwarder counters. Every received
// datagram is accounted exactly once:
// Received = Forwarded + Dropped + BadHeader + BadClass + Queued at any
// snapshot (Unaccounted reads 0), with Queued reaching 0 after Close.
type ForwarderStats = netio.Stats

// ForwarderConfig configures StartForwarderWithConfig.
type ForwarderConfig struct {
	// Listen is the UDP ingress address (e.g. "127.0.0.1:0"); Forward
	// is where scheduled datagrams are sent.
	Listen, Forward string
	// Scheduler and SDP configure the discipline (defaults: WTP with
	// SDPs 1,2,4,8).
	Scheduler SchedulerKind
	SDP       []float64
	// RateBps is the egress rate in bits per second.
	RateBps float64
	// MaxPackets bounds the aggregate queue (0 = 4096).
	MaxPackets int
	// Shards is the number of parallel ingress paths (0 or 1 = a single
	// socket). With N > 1 the forwarder binds N sockets to the same ingress
	// address under SO_REUSEPORT, so the kernel's flow hash gives every
	// flow a stable shard; each shard classifies and admits independently
	// and the single transmitter merges their output by arrival stamp into
	// the one scheduler, so every discipline serves the same order at
	// every shard count. Where SO_REUSEPORT is unavailable the shards
	// share one socket, which ShardStats reports.
	Shards int
	// DrainTimeout bounds the graceful drain Close performs: queued
	// datagrams keep transmitting — still paced at RateBps — for up to
	// this long before the remainder is dropped and accounted. Zero
	// drops the backlog immediately on Close.
	DrainTimeout time.Duration
	// MetricsAddr, if non-empty, serves live per-class metrics over
	// HTTP on this address: /metrics (expvar-style JSON),
	// /metrics?format=text (human view) and /debug/pprof/. Use
	// "127.0.0.1:0" to pick a free port (see MetricsAddr).
	MetricsAddr string
	// Classes, when non-nil, turns the forwarder into a classifying
	// edge: datagrams tagged ClassUnspecified (or carrying an
	// out-of-range class byte) are classified by flow identity and DS
	// byte against the config's traffic classes, and the resolved class
	// is re-marked into the forwarded datagram. The config also supplies
	// the scheduler SDPs (derived from its DDPs, unless SDP is set
	// explicitly), per-class queue bounds, and class names for
	// telemetry. When nil, behaviour is exactly the classic trusted-
	// header forwarder.
	Classes *ClassConfig
	// DistrustHeader, with Classes set, classifies every datagram from
	// its flow identity instead of trusting in-range header class bytes.
	DistrustHeader bool
	// FlowTTL is the idle eviction age for memoized flow→class
	// decisions (0 = entries never expire). Long-idle flows are
	// re-classified on their next datagram.
	FlowTTL time.Duration
	// Adapt enables the closed-loop DDP controller: a background loop
	// snapshots the forwarder's per-class delay telemetry every
	// AdaptInterval and, when the measured adjacent-class delay ratios
	// deviate from the SDP targets beyond a deadband, retunes the live
	// scheduler parameters (between egress batches, at every shard
	// count). Requires a retunable scheduler (WTP, HPD, DRR, IWRR or PF);
	// FCFS fails at start. While the measured ratios stay in band
	// the controller never touches the scheduler, so an Adapt forwarder
	// serving conforming traffic behaves byte-identically to a plain one.
	Adapt bool
	// AdaptInterval is the controller's observation period (0 = 1s).
	// Each window needs enough departures in every class to be judged,
	// so shorter intervals only help when traffic is dense.
	AdaptInterval time.Duration
}

// StartForwarder binds listen (e.g. "127.0.0.1:0"), forwarding scheduled
// datagrams to forward at rateBps. kind and sdp configure the discipline
// (pass WTP and nil for the paper defaults).
func StartForwarder(listen, forward string, kind SchedulerKind, sdp []float64, rateBps float64) (*Forwarder, error) {
	return StartForwarderWithConfig(ForwarderConfig{
		Listen:    listen,
		Forward:   forward,
		Scheduler: kind,
		SDP:       sdp,
		RateBps:   rateBps,
	})
}

// StartForwarderWithConfig starts a forwarder with full configuration,
// including live observability. The forwarder is always instrumented: per-
// class counters and delay histograms are available via ClassStats and
// DelayRatios even when no metrics address is configured.
func StartForwarderWithConfig(cfg ForwarderConfig) (*Forwarder, error) {
	sdp := cfg.SDP
	if len(sdp) == 0 {
		if cfg.Classes != nil {
			sdp = cfg.Classes.SDPs()
		} else {
			sdp = []float64{1, 2, 4, 8}
		}
	}
	reg := telemetry.NewWithSDP(sdp)
	ncfg := netio.Config{
		Listen:         cfg.Listen,
		Forward:        cfg.Forward,
		Scheduler:      core.Kind(cfg.Scheduler),
		SDP:            sdp,
		RateBps:        cfg.RateBps,
		MaxPackets:     cfg.MaxPackets,
		Shards:         cfg.Shards,
		DrainTimeout:   cfg.DrainTimeout,
		MetricsAddr:    cfg.MetricsAddr,
		Telemetry:      reg,
		DistrustHeader: cfg.DistrustHeader,
	}
	if cfg.Adapt {
		ncfg.Control = &control.Config{}
		ncfg.ControlInterval = cfg.AdaptInterval
	}
	if cfg.Classes != nil {
		cls, err := classify.New(cfg.Classes.inner, classify.FlowTableConfig{
			TTL: cfg.FlowTTL.Nanoseconds(),
		})
		if err != nil {
			return nil, err
		}
		ncfg.Classifier = cls
		ncfg.ClassMaxPackets = cfg.Classes.inner.QueueBounds()
		if len(cfg.Classes.Names()) == reg.NumClasses() {
			reg.SetClassNames(cfg.Classes.Names())
		}
	}
	inner, err := netio.Listen(ncfg)
	if err != nil {
		return nil, err
	}
	return &Forwarder{inner: inner}, nil
}

// Addr returns the bound ingress address.
func (f *Forwarder) Addr() net.Addr { return f.inner.LocalAddr() }

// Stats returns a snapshot of the counters.
func (f *Forwarder) Stats() ForwarderStats { return f.inner.Stats() }

// ForwarderShardStats describes one ingress shard's receive path.
type ForwarderShardStats = netio.ShardStats

// ShardStats returns per-shard ingress counters (one entry per configured
// shard).
func (f *Forwarder) ShardStats() []ForwarderShardStats { return f.inner.ShardStats() }

// Close shuts the forwarder down.
func (f *Forwarder) Close() error { return f.inner.Close() }

// MetricsAddr returns the bound metrics HTTP address, or nil when
// observability over HTTP was not configured.
func (f *Forwarder) MetricsAddr() net.Addr { return f.inner.MetricsAddr() }

// LiveClassStats is a live snapshot of one class's metrics from a running
// forwarder or an instrumented simulation. Delays are one-hop queueing
// delays — seconds for the forwarder, simulation time units for
// simulations.
type LiveClassStats struct {
	Class int
	// Name is the class's configured label (empty unless the forwarder
	// was started with a class config).
	Name                    string
	Arrivals, Departures    uint64
	Drops                   uint64
	Backlog                 uint64
	DelayMean, DelayP50     float64
	DelayP95, DelayP99      float64
	DelayMax                float64
	ArrivedBytes, SentBytes uint64
}

// ClassStats returns a live per-class snapshot (index 0 = lowest class),
// or nil if the forwarder was started uninstrumented via internal
// configuration.
func (f *Forwarder) ClassStats() []LiveClassStats {
	reg := f.inner.Telemetry()
	if reg == nil {
		return nil
	}
	return liveClassStats(reg.Snapshot())
}

// liveClassStats maps a registry snapshot onto the facade's per-class
// view.
func liveClassStats(snap telemetry.Snapshot) []LiveClassStats {
	out := make([]LiveClassStats, len(snap.Classes))
	for i, c := range snap.Classes {
		out[i] = LiveClassStats{
			Class:        c.Class,
			Name:         c.Name,
			Arrivals:     c.Arrivals,
			Departures:   c.Departures,
			Drops:        c.Drops,
			Backlog:      c.Backlog(),
			DelayMean:    c.Delay.Mean(),
			DelayP50:     c.Delay.Quantile(0.50),
			DelayP95:     c.Delay.Quantile(0.95),
			DelayP99:     c.Delay.Quantile(0.99),
			DelayMax:     c.Delay.Max,
			ArrivedBytes: c.ArrivedBytes,
			SentBytes:    c.DepartedBytes,
		}
	}
	return out
}

// Retune replaces the live scheduler parameter vector (the SDPs, or DRR
// quanta / IWRR weights) without disturbing queued traffic: the vector is
// validated here and installed by the transmit goroutine between egress
// batches. Returns an error for malformed vectors or a non-retunable
// scheduler (FCFS). Safe for concurrent use, and composes with Adapt — the
// controller simply steers from the new vector's measured ratios.
func (f *Forwarder) Retune(params []float64) error { return f.inner.Retune(params) }

// ControlStats reports closed-loop adaptation activity: the controller's
// window verdicts plus the retune seam's installation counters. With
// ForwarderConfig.Adapt unset, only the seam counters (manual Retune
// calls) are populated.
type ControlStats struct {
	// Windows is the number of telemetry windows the controller judged;
	// Retunes of them triggered a parameter change, Held stayed inside
	// the deadband, and Starved lacked the per-class departures to trust
	// (those windows stay open and accumulate).
	Windows, Retunes, Held, Starved uint64
	// Applied counts parameter vectors actually installed into the
	// schedulers (controller decisions plus manual Retune calls); Params
	// is the last installed vector (nil before the first).
	Applied uint64
	Params  []float64
}

// ControlStats returns a snapshot of the adaptation counters.
func (f *Forwarder) ControlStats() ControlStats {
	rs := f.inner.RetuneStats()
	out := ControlStats{Applied: rs.Applied, Params: rs.Params}
	if cs, ok := f.inner.ControlStats(); ok {
		out.Windows, out.Retunes, out.Held, out.Starved = cs.Windows, cs.Retunes, cs.Held, cs.Starved
	}
	return out
}

// DelayRatios returns the observed adjacent-class mean-delay ratios
// (class i over class i+1) — the live form of the quantity the
// proportional model pins to SDP[i+1]/SDP[i]. Entries are 0 until both
// classes have forwarded traffic.
func (f *Forwarder) DelayRatios() []float64 {
	reg := f.inner.Telemetry()
	if reg == nil {
		return nil
	}
	return reg.Snapshot().Ratios
}

// EncodeDatagram builds a forwarder datagram: class selects the service
// class (0-based), seq and the current time are embedded so receivers can
// measure per-packet one-way delay with DecodeDatagram.
func EncodeDatagram(class uint8, seq uint64, payload []byte) []byte {
	dg := netio.Header{Class: class, Seq: seq, SentAt: time.Now()}.Encode(nil)
	return append(dg, payload...)
}

// DecodeDatagram parses a forwarder datagram, returning the class,
// sequence number, sender timestamp, and payload.
func DecodeDatagram(datagram []byte) (class uint8, seq uint64, sentAt time.Time, payload []byte, err error) {
	h, payload, err := netio.Decode(datagram)
	if err != nil {
		return 0, 0, time.Time{}, nil, err
	}
	return h.Class, h.Seq, h.SentAt, payload, nil
}
