package chaos

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"pdds/internal/core"
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
	if p.Size < netio.HeaderLen {
		return nil, fmt.Errorf("chaos: net plan %q: size %d below header length", p.Name, p.Size)
	}

	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer sinkConn.Close()
	sinkConn.SetReadBuffer(4 << 20)

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

	// Sink reader: counts wire-visible disturbances — undecodable
	// datagrams, short datagrams, and sequence regressions per class
	// (duplication and reordering both regress the per-class sequence).
	var sinkBad, sinkRegress atomic.Uint64
	sinkDone := make(chan struct{})
	go func() {
		defer close(sinkDone)
		buf := make([]byte, 64*1024)
		lastSeq := make(map[uint8]uint64)
		for {
			n, _, err := sinkConn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			h, _, derr := netio.Decode(buf[:n])
			if derr != nil || n < p.Size {
				sinkBad.Add(1)
				continue
			}
			if last, ok := lastSeq[h.Class]; ok && h.Seq <= last {
				sinkRegress.Add(1)
			} else {
				lastSeq[h.Class] = h.Seq
			}
		}
	}()

	send, err := net.Dial("udp", fwd.LocalAddr().String())
	if err != nil {
		return nil, err
	}
	defer send.Close()

	classes := len(p.SDP)
	payload := make([]byte, p.Size-netio.HeaderLen)
	gap := time.Duration(float64(p.Size*8) / (p.Offered * p.RateBps) * float64(time.Second))
	stopAt := time.Now().Add(p.Duration)
	next := time.Now()
	for seq := uint64(0); time.Now().Before(stopAt); seq++ {
		dg := netio.Header{Class: uint8(seq % uint64(classes)), Seq: seq, SentAt: time.Now()}.Encode(nil)
		dg = append(dg, payload...)
		if _, err := send.Write(dg); err != nil {
			return nil, fmt.Errorf("chaos: sender: %w", err)
		}
		next = next.Add(gap)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}

	if err := fwd.Close(); err != nil {
		return nil, err
	}
	st := fwd.Stats()

	// Let in-flight datagrams land, then stop the sink reader.
	time.Sleep(200 * time.Millisecond)
	sinkConn.Close()
	<-sinkDone

	res := &NetResult{
		Plan:           p.Name,
		Conserved:      st.Queued == 0 && st.Unaccounted() == 0,
		ForwardedSome:  st.Forwarded > 0,
		AllDropped:     st.Forwarded == 0 && st.Received > 0,
		SinkDisturbed:  sinkBad.Load() > 0 || sinkRegress.Load() > 0,
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
