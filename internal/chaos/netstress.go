package chaos

import (
	"fmt"
	"net"
	"time"

	"pdds/internal/core"
	"pdds/internal/loadgen"
	"pdds/internal/netio"
)

// The standard fault plans must satisfy the forwarder's injector contract.
var _ netio.FaultInjector = (*FaultPlan)(nil)

// NetPlan describes one live-forwarder fault scenario: a loopback
// forwarder under a paced multi-class sender, with a FaultPlan on its
// egress. Wall-clock scheduling makes exact counts nondeterministic, so a
// NetPlan is judged on invariants that must hold for *any* interleaving:
// exact conservation after the drain, a clean (empty) queue, and the
// plan-specific expectations below.
type NetPlan struct {
	Name  string
	Fault *FaultPlan
	// Scheduler/SDP/RateBps/MaxQueue configure the forwarder (defaults:
	// WTP, 1..2^k, 4 Mbps, 512).
	Scheduler core.Kind
	SDP       []float64
	RateBps   float64
	MaxQueue  int
	// Duration is the sending phase; Offered the load multiple of
	// RateBps (default 1.3); Size the datagram size (default 300).
	Duration time.Duration
	Offered  float64
	Size     int
	// Shards is the forwarder's parallel ingress shard count (0 or 1 =
	// classic single-socket path). Sharded plans exercise the SPSC rings,
	// the stamp merge, and mid-flight-close conservation under the
	// same wire faults as their single-shard counterparts.
	Shards int
	// ExpectAllDropped asserts nothing is forwarded (whole-run outage
	// plans); ExpectForwarded asserts forwarding survived the faults.
	ExpectAllDropped bool
	ExpectForwarded  bool
}

func (p NetPlan) withDefaults() NetPlan {
	if p.Scheduler == "" {
		p.Scheduler = core.KindWTP
	}
	if len(p.SDP) == 0 {
		p.SDP = []float64{1, 2, 4, 8}
	}
	if p.RateBps == 0 {
		p.RateBps = 4e6
	}
	if p.MaxQueue == 0 {
		p.MaxQueue = 512
	}
	if p.Duration == 0 {
		p.Duration = 500 * time.Millisecond
	}
	if p.Offered == 0 {
		p.Offered = 1.3
	}
	if p.Size == 0 {
		p.Size = 300
	}
	return p
}

// NetResult is the judged outcome of one live fault scenario. Fields are
// stable booleans (not counts) so that a passing run's JSON report is
// byte-identical across repetitions.
type NetResult struct {
	Plan string `json:"plan"`
	// Conserved: Received = Forwarded + Dropped + BadHeader + BadClass
	// exactly, with nothing queued, after Close.
	Conserved bool `json:"conserved"`
	// FaultsInjected: the plan's injector fired at least once.
	FaultsInjected bool `json:"faults_injected"`
	// ForwardedSome / AllDropped summarize where the traffic went.
	ForwardedSome bool `json:"forwarded_some"`
	AllDropped    bool `json:"all_dropped"`
	// SinkDisturbed: the receiver observed at least one corrupt,
	// truncated, duplicated or reordered datagram (only meaningful for
	// plans injecting wire-visible faults).
	SinkDisturbed bool     `json:"sink_disturbed"`
	Violations    []string `json:"violations,omitempty"`
}

// Ok reports whether every invariant and expectation held.
func (r *NetResult) Ok() bool { return len(r.Violations) == 0 }

// RunNet executes one live fault scenario; err reports setup problems
// only — judgment failures land in NetResult.Violations.
func RunNet(plan NetPlan) (*NetResult, error) {
	p := plan.withDefaults()
	if p.Name == "" {
		return nil, fmt.Errorf("chaos: net plan has no name")
	}

	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	sink := loadgen.NewSink(sinkConn, len(p.SDP), p.Size)
	defer sink.Close()

	var cfg netio.Config
	cfg.Listen = "127.0.0.1:0"
	cfg.Forward = sinkConn.LocalAddr().String()
	cfg.Scheduler = p.Scheduler
	cfg.SDP = p.SDP
	cfg.RateBps = p.RateBps
	cfg.MaxPackets = p.MaxQueue
	cfg.Shards = p.Shards
	cfg.DrainTimeout = 10 * time.Second
	if p.Fault != nil {
		cfg.Fault = p.Fault
	}
	fwd, err := netio.Listen(cfg)
	if err != nil {
		return nil, err
	}
	defer fwd.Close()

	if _, err := (loadgen.Sender{
		Classes:  len(p.SDP),
		Size:     p.Size,
		Bps:      p.Offered * p.RateBps,
		Duration: p.Duration,
	}).Send(fwd.LocalAddr().String()); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	if err := fwd.Close(); err != nil {
		return nil, err
	}
	st := fwd.Stats()

	// Give the forwarded datagrams up to a second to land: a held-back
	// reordered datagram may never be emitted.
	sst := sink.Drain(st.Forwarded, time.Second)

	res := &NetResult{
		Plan:           p.Name,
		Conserved:      st.Queued == 0 && st.Unaccounted() == 0,
		ForwardedSome:  st.Forwarded > 0,
		AllDropped:     st.Forwarded == 0 && st.Received > 0,
		SinkDisturbed:  sst.Bad > 0 || sst.Regressions > 0,
		FaultsInjected: p.Fault != nil && p.Fault.Injected() > 0,
	}
	if !res.Conserved {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"conservation: received=%d forwarded=%d dropped=%d bad-header=%d bad-class=%d queued=%d",
			st.Received, st.Forwarded, st.Dropped, st.BadHeader, st.BadClass, st.Queued))
	}
	if st.Received == 0 {
		res.Violations = append(res.Violations, "no datagrams received; nothing exercised")
	}
	if p.Fault != nil && p.Fault.Injected() == 0 {
		res.Violations = append(res.Violations, "fault plan never fired")
	}
	if p.ExpectAllDropped && st.Forwarded != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"expected a full outage but %d datagrams were forwarded", st.Forwarded))
	}
	if p.ExpectForwarded && st.Forwarded == 0 {
		res.Violations = append(res.Violations, "expected forwarding to survive the faults but nothing got through")
	}
	return res, nil
}
