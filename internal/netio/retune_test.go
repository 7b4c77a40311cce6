package netio

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pdds/internal/control"
	"pdds/internal/core"
	"pdds/internal/telemetry"
)

// waitRetune polls the retune seam until cond holds, failing with desc on
// timeout.
func waitRetune(t *testing.T, f *Forwarder, timeout time.Duration, cond func(RetuneStats) bool, desc string) RetuneStats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rs := f.RetuneStats()
		if cond(rs) {
			return rs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: retune stats %+v", desc, rs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A staged Retune must be installed by the transmit goroutine — even on an
// idle forwarder, since Retune wakes it — and the seam's counters must
// reflect exactly the vector that went in.
func TestForwarderRetuneApplies(t *testing.T) {
	for _, tc := range []struct {
		kind   core.Kind
		shards int
	}{
		{core.KindWTP, 1},
		{core.KindDRR, 2},
	} {
		t.Run(fmt.Sprintf("%s/shards=%d", tc.kind, tc.shards), func(t *testing.T) {
			recv := sink(t)
			fwd, err := Listen(Config{
				Listen:    "127.0.0.1:0",
				Forward:   recv.LocalAddr().String(),
				Scheduler: tc.kind,
				SDP:       []float64{1, 4},
				RateBps:   1 << 20,
				Shards:    tc.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer fwd.Close()

			if rs := fwd.RetuneStats(); rs.Pending || rs.Applied != 0 || rs.Params != nil {
				t.Fatalf("fresh forwarder has retune activity: %+v", rs)
			}
			want := []float64{1, 8}
			if err := fwd.Retune(want); err != nil {
				t.Fatal(err)
			}
			rs := waitRetune(t, fwd, 5*time.Second, func(rs RetuneStats) bool {
				return rs.Applied == 1 && !rs.Pending
			}, "staged vector to install")
			if len(rs.Params) != len(want) || rs.Params[0] != want[0] || rs.Params[1] != want[1] {
				t.Fatalf("installed params %v, want %v", rs.Params, want)
			}

			// A second vector replaces the first; Applied keeps counting.
			if err := fwd.Retune([]float64{1, 2}); err != nil {
				t.Fatal(err)
			}
			rs = waitRetune(t, fwd, 5*time.Second, func(rs RetuneStats) bool {
				return rs.Applied == 2
			}, "second vector to install")
			if rs.Params[1] != 2 {
				t.Fatalf("installed params %v, want [1 2]", rs.Params)
			}
		})
	}
}

// Retune validates synchronously: malformed vectors never reach the
// transmit goroutine, and a non-retunable scheduler kind is refused with
// core.ErrNotRetunable.
func TestForwarderRetuneRejects(t *testing.T) {
	recv := sink(t)
	fwd, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		Scheduler: core.KindWTP,
		SDP:       []float64{1, 4},
		RateBps:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	for _, bad := range [][]float64{nil, {1}, {1, 2, 4}, {4, 1}, {0, 1}} {
		if err := fwd.Retune(bad); err == nil {
			t.Errorf("Retune(%v) accepted an invalid vector", bad)
		}
	}
	if rs := fwd.RetuneStats(); rs.Pending || rs.Applied != 0 {
		t.Fatalf("rejected vectors left seam activity: %+v", rs)
	}

	fcfs, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		Scheduler: core.KindFCFS,
		SDP:       []float64{1, 4},
		RateBps:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fcfs.Close()
	if err := fcfs.Retune([]float64{1, 8}); !errors.Is(err, core.ErrNotRetunable) {
		t.Fatalf("FCFS Retune error = %v, want core.ErrNotRetunable", err)
	}
}

// A Config.Control on a non-retunable scheduler must fail at Listen, not
// at the first decision.
func TestForwarderControlRejectsNonRetunable(t *testing.T) {
	recv := sink(t)
	_, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		Scheduler: core.KindFCFS,
		SDP:       []float64{1, 4},
		RateBps:   1 << 20,
		Control:   &control.Config{},
	})
	if err == nil {
		t.Fatal("Listen accepted Control on FCFS")
	}
}

// End to end: a forwarder with an embedded controller under sustained
// two-class load must observe windows and push at least one retune
// through the seam, and the stats conservation invariants must survive
// the loop's interference.
func TestForwarderControlLoopRetunes(t *testing.T) {
	recv := sink(t)
	reg := telemetry.NewWithSDP([]float64{1, 4})
	fwd, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		Scheduler: core.KindWTP,
		SDP:       []float64{1, 4},
		RateBps:   1 << 19,
		Telemetry: reg,
		Control: &control.Config{
			// Trip on any measurable deviation: a lightly loaded loopback
			// serves both classes with near-equal delay, nowhere near the
			// target ratio 4.
			Gain:          0.5,
			Deadband:      0.01,
			MinDepartures: 20,
			Cooldown:      0,
		},
		ControlInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	send := dialIngress(t, fwd)

	// Sustained two-class traffic, kept below the egress rate: a WTP
	// backlog that never drains would starve class 0 outright (its window
	// never completes) — the controller needs departures in both classes.
	deadline := time.Now().Add(10 * time.Second)
	var sent uint64
	for {
		rs := fwd.RetuneStats()
		if rs.Applied >= 1 {
			break
		}
		if time.Now().After(deadline) {
			cs, _ := fwd.ControlStats()
			t.Fatalf("controller never retuned: retune %+v control %+v", rs, cs)
		}
		for i := 0; i < 2; i++ {
			if _, err := send.Write(datagram(uint8(i%2), sent, 100)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		time.Sleep(5 * time.Millisecond)
	}

	cs, ok := fwd.ControlStats()
	if !ok {
		t.Fatal("ControlStats not available with Config.Control set")
	}
	if cs.Windows == 0 {
		t.Fatalf("controller observed no windows: %+v", cs)
	}
	rs := fwd.RetuneStats()
	if err := core.CheckRetuneParams(rs.Params, 2); err != nil {
		t.Fatalf("controller installed an invalid vector %v: %v", rs.Params, err)
	}

	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, fwd.Stats(), reg)
}
