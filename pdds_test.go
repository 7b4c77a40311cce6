package pdds

import (
	"math"
	"net"
	"testing"
	"time"
)

func TestSimulateLinkDefaults(t *testing.T) {
	rep, err := SimulateLink(LinkConfig{Horizon: 100000, Warmup: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheduler != "WTP" {
		t.Fatalf("default scheduler = %q, want WTP", rep.Scheduler)
	}
	if len(rep.Classes) != 4 || len(rep.DelayRatios) != 3 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	for c, cs := range rep.Classes {
		if cs.Packets == 0 || cs.MeanDelay <= 0 {
			t.Fatalf("class %d empty: %+v", c, cs)
		}
		if math.Abs(cs.MeanDelayPUnits-cs.MeanDelay/PUnit) > 1e-12 {
			t.Fatal("p-unit conversion wrong")
		}
	}
	for i, r := range rep.DelayRatios {
		if r <= 1 {
			t.Fatalf("ratio[%d] = %g, want > 1 at rho=0.95", i, r)
		}
	}
	if rep.Dropped != 0 {
		t.Fatal("lossless model dropped packets")
	}
}

func TestSimulateLinkKindsAndErrors(t *testing.T) {
	for _, kind := range SchedulerKinds() {
		rep, err := SimulateLink(LinkConfig{
			Scheduler: kind,
			Horizon:   20000,
			Warmup:    2000,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rep.Utilization <= 0 {
			t.Fatalf("%s: zero utilization", kind)
		}
	}
	if _, err := SimulateLink(LinkConfig{Scheduler: "bogus", Horizon: 100}); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
	if _, err := SimulateLink(LinkConfig{
		SDP:            []float64{1, 2},
		ClassFractions: []float64{1},
		Horizon:        100,
	}); err == nil {
		t.Fatal("mismatched fractions accepted")
	}
}

// TestSchedulerKindConstants holds the exported constants to core.Kinds():
// a kind added there without a constant here (or the reverse) fails.
func TestSchedulerKindConstants(t *testing.T) {
	consts := []SchedulerKind{WTP, BPR, FCFS, Strict, WFQ, Additive, PAD, HPD, DRR, IWRR, PF}
	kinds := SchedulerKinds()
	if len(consts) != len(kinds) {
		t.Fatalf("%d constants for %d kinds", len(consts), len(kinds))
	}
	for i, k := range kinds {
		if consts[i] != k {
			t.Errorf("kind %d is %q, constant is %q", i, k, consts[i])
		}
	}
}

func TestSimulateLinkPoisson(t *testing.T) {
	rep, err := SimulateLink(LinkConfig{
		Poisson: true,
		Horizon: 50000,
		Warmup:  5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classes[0].MeanDelay <= rep.Classes[3].MeanDelay {
		t.Fatal("Poisson run lost differentiation")
	}
}

func TestSimulatePathSmall(t *testing.T) {
	rep, err := SimulatePath(PathConfig{
		Hops:        2,
		Utilization: 0.85,
		Experiments: 4,
		WarmupSec:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RD <= 1 {
		t.Fatalf("RD = %g, want > 1", rep.RD)
	}
	if len(rep.MeanE2E) != 4 {
		t.Fatalf("MeanE2E = %v", rep.MeanE2E)
	}
}

func TestCheckFeasibilityDefaults(t *testing.T) {
	res, err := CheckFeasibility(FeasibilityConfig{Horizon: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("paper default operating point infeasible: slack %g", res.WorstSlack)
	}
	if len(res.PredictedDelays) != 4 || res.AggregateDelay <= 0 {
		t.Fatalf("result shape wrong: %+v", res)
	}
	// Predicted delays must be proportional to 1/SDP: d1/d4 = 8.
	if r := res.PredictedDelays[0] / res.PredictedDelays[3]; math.Abs(r-8) > 1e-9 {
		t.Fatalf("predicted d1/d4 = %g, want 8", r)
	}
}

func TestForwarderFacade(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	fwd, err := StartForwarder("127.0.0.1:0", recv.LocalAddr().String(), WTP, nil, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	send, err := net.Dial("udp", fwd.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	dg := EncodeDatagram(2, 7, []byte("hello"))
	if _, err := send.Write(dg); err != nil {
		t.Fatal(err)
	}
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	n, _, err := recv.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	class, seq, sentAt, payload, err := DecodeDatagram(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if class != 2 || seq != 7 || string(payload) != "hello" {
		t.Fatalf("decoded class=%d seq=%d payload=%q", class, seq, payload)
	}
	if time.Since(sentAt) > time.Minute || time.Since(sentAt) < 0 {
		t.Fatalf("timestamp implausible: %v", sentAt)
	}
	// The transmitter counts a datagram just after writing it, so the sink
	// can hold it before the counters do.
	for deadline := time.Now().Add(5 * time.Second); fwd.Stats().Forwarded != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v", fwd.Stats())
		}
	}
	if _, _, _, _, err := DecodeDatagram([]byte{1}); err == nil {
		t.Fatal("short datagram accepted")
	}
}

// The facade's adaptation surface: Retune swaps live parameters, the
// counters report it, Adapt wires the controller in, and both refuse a
// non-retunable scheduler.
func TestForwarderFacadeAdapt(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	fwd, err := StartForwarderWithConfig(ForwarderConfig{
		Listen:  "127.0.0.1:0",
		Forward: recv.LocalAddr().String(),
		SDP:     []float64{1, 4},
		RateBps: 1e6,
		Adapt:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	if err := fwd.Retune([]float64{4, 1}); err == nil {
		t.Fatal("non-monotone SDP vector accepted")
	}
	if err := fwd.Retune([]float64{1, 8}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cs := fwd.ControlStats()
		if cs.Applied == 1 {
			if len(cs.Params) != 2 || cs.Params[1] != 8 {
				t.Fatalf("installed params = %v, want [1 8]", cs.Params)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retune never installed: %+v", cs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := StartForwarderWithConfig(ForwarderConfig{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		Scheduler: FCFS,
		RateBps:   1e6,
		Adapt:     true,
	}); err == nil {
		t.Fatal("Adapt on FCFS accepted")
	}
}

func TestStartForwarderError(t *testing.T) {
	if _, err := StartForwarder("bad addr", "127.0.0.1:9", WTP, nil, 1e6); err == nil {
		t.Fatal("bad listen addr accepted")
	}
}

func TestSimulatePathSchedulerOption(t *testing.T) {
	rep, err := SimulatePath(PathConfig{
		Hops:        2,
		Scheduler:   BPR,
		Utilization: 0.9,
		Experiments: 3,
		WarmupSec:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RD <= 1 {
		t.Fatalf("BPR path RD = %g", rep.RD)
	}
	if _, err := SimulatePath(PathConfig{
		Hops:        1,
		Scheduler:   "bogus",
		Experiments: 1,
		WarmupSec:   1,
	}); err == nil {
		t.Fatal("bogus path scheduler accepted")
	}
}
