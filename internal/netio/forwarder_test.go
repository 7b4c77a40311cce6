package netio

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdds/internal/telemetry"
)

// sink binds a loopback UDP socket for a forwarder's egress to point at.
func sink(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dialIngress connects a sender socket to the forwarder's ingress.
func dialIngress(t *testing.T, f *Forwarder) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, f.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// datagram builds a classed datagram with payload bytes of padding.
func datagram(class uint8, seq uint64, payload int) []byte {
	dg := Header{Class: class, Seq: seq, SentAt: time.Now()}.Encode(nil)
	return append(dg, make([]byte, payload)...)
}

// waitStats polls the forwarder's stats until cond holds, failing with
// desc on timeout.
func waitStats(t *testing.T, f *Forwarder, timeout time.Duration, cond func(Stats) bool, desc string) Stats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := f.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: stats %+v", desc, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Unaccounted is what Received leaves after every terminal counter and the
// backlog, signed.
func TestStatsUnaccounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   Stats
		want int64
	}{
		{"zero", Stats{}, 0},
		{"drained", Stats{Received: 10, Forwarded: 6, Dropped: 2, BadHeader: 1, BadClass: 1}, 0},
		{"backlog", Stats{Received: 10, Forwarded: 4, Queued: 6}, 0},
		{"lost", Stats{Received: 10, Forwarded: 4, Dropped: 1, Queued: 3}, 2},
		{"counted twice", Stats{Received: 3, Forwarded: 3, BadClass: 1}, -1},
		{"each counter", Stats{Received: 100, Forwarded: 1, Dropped: 2, BadHeader: 4, BadClass: 8, Queued: 16}, 69},
	} {
		if got := tc.st.Unaccounted(); got != tc.want {
			t.Errorf("%s: Unaccounted() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// checkConservation asserts the stats invariant Received = Forwarded +
// Dropped + BadHeader + BadClass + Queued, and — when a registry is
// attached — that
// per-class telemetry agrees: arrivals = departures + drops + backlog.
func checkConservation(t *testing.T, st Stats, reg *telemetry.Registry) {
	t.Helper()
	if st.Unaccounted() != 0 {
		t.Errorf("stats conservation violated: %+v", st)
	}
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	var arrivals, departures, drops uint64
	for _, c := range snap.Classes {
		arrivals += c.Arrivals
		departures += c.Departures
		drops += c.Drops
	}
	if arrivals != departures+drops+st.Queued {
		t.Errorf("telemetry conservation violated: arrivals=%d departures=%d drops=%d queued=%d",
			arrivals, departures, drops, st.Queued)
	}
	if got := st.Received - st.BadHeader - st.BadClass; arrivals != got {
		t.Errorf("telemetry arrivals %d != classified datagrams %d", arrivals, got)
	}
}

// Regression: a queue-full drop must still record the telemetry arrival,
// or ClassSnapshot.Backlog (arrivals − departures − drops) is permanently
// deflated by every drop.
func TestForwarderDropRecordsArrival(t *testing.T) {
	recv := sink(t)
	reg := telemetry.NewWithSDP([]float64{1, 4})
	fwd, err := Listen(Config{
		Listen:     "127.0.0.1:0",
		Forward:    recv.LocalAddr().String(),
		SDP:        []float64{1, 4},
		RateBps:    8 * 1024, // 1 KiB/s: essentially frozen egress
		MaxPackets: 2,
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	send := dialIngress(t, fwd)

	const total = 12
	for i := 0; i < total; i++ {
		if _, err := send.Write(datagram(0, uint64(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := waitStats(t, fwd, 5*time.Second, func(s Stats) bool {
		return s.Received == total && s.Dropped > 0
	}, "all datagrams received with drops")

	snap := reg.Snapshot()
	if got := snap.Classes[0].Arrivals; got != total {
		t.Fatalf("telemetry arrivals = %d, want %d (drops skipped the arrival record)", got, total)
	}
	if backlog := snap.Classes[0].Backlog(); backlog != st.Queued {
		t.Fatalf("telemetry backlog %d != queued %d", backlog, st.Queued)
	}
	checkConservation(t, st, reg)
}

// Regression: the arrival must be recorded before the transmitter is
// woken, or the matching departure can land first and counter-derived
// backlogs transiently underflow. The OnDequeue hook observes the
// counters at every departure; a departure count above the arrival count
// at any observation is a violation.
func TestForwarderTelemetryOrdering(t *testing.T) {
	recv := sink(t)
	reg := telemetry.NewWithSDP([]float64{1, 2, 4, 8})
	var violations atomic.Uint64
	reg.OnDequeue = func(class int, now, delay float64) {
		c := reg.Class(class)
		if c.Departures.Load() > c.Arrivals.Load() {
			violations.Add(1)
		}
	}
	fwd, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		SDP:       []float64{1, 2, 4, 8},
		RateBps:   50e6, // fast egress: departures chase arrivals closely
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	send := dialIngress(t, fwd)

	const total = 400
	for i := 0; i < total; i++ {
		if _, err := send.Write(datagram(uint8(i%4), uint64(i), 64)); err != nil {
			t.Fatal(err)
		}
		// Pace the sender just enough that the ingress socket buffer
		// never overflows; departures still chase arrivals closely.
		time.Sleep(50 * time.Microsecond)
	}
	waitStats(t, fwd, 10*time.Second, func(s Stats) bool {
		return s.Received >= total && s.Queued == 0
	}, "traffic to drain")
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d departures observed before their arrivals", v)
	}
}

// Regression: a failed egress write must be accounted (per-class drop +
// Stats.Dropped), not silently lost after telemetry counted the datagram.
// A persistent injected fault exercises the retry-then-drop path
// deterministically.
func TestForwarderWriteFailureAccounting(t *testing.T) {
	reg := telemetry.NewWithSDP([]float64{1, 4})
	var attempts atomic.Uint64
	fwd, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   "127.0.0.1:9",
		SDP:       []float64{1, 4},
		RateBps:   8e6,
		Telemetry: reg,
		Fault: FaultFunc(func(p []byte, attempt int, send func([]byte) (int, error)) (int, error) {
			attempts.Add(1)
			return 0, errInjected
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	send := dialIngress(t, fwd)

	const total = 20
	for i := 0; i < total; i++ {
		if _, err := send.Write(datagram(uint8(i%2), uint64(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := waitStats(t, fwd, 10*time.Second, func(s Stats) bool {
		return s.Received == total && s.Forwarded+s.Dropped+s.BadHeader+s.BadClass == total && s.Queued == 0
	}, "write failures to be accounted")
	if st.Forwarded != 0 || st.Dropped != total {
		t.Fatalf("stats %+v: want all %d datagrams dropped on write failure", st, total)
	}
	// Each datagram got its bounded retries: 1 + writeRetries attempts.
	if got, want := attempts.Load(), uint64(total*(1+writeRetries)); got != want {
		t.Fatalf("write attempts = %d, want %d (bounded backoff)", got, want)
	}
	snap := reg.Snapshot()
	var drops, departures uint64
	for _, c := range snap.Classes {
		drops += c.Drops
		departures += c.Departures
	}
	if drops != total || departures != 0 {
		t.Fatalf("telemetry drops=%d departures=%d, want %d/0", drops, departures, total)
	}
	checkConservation(t, st, reg)
}

// errInjected is the deterministic egress fault used by write-path tests.
var errInjected = errors.New("injected egress failure")

// Transient write errors recover within the bounded retry budget: the
// datagram is forwarded, not dropped, and nothing is double-counted.
func TestForwarderWriteRetryRecovers(t *testing.T) {
	recv := sink(t)
	reg := telemetry.NewWithSDP([]float64{1, 4})
	// failures is touched only by the single transmit goroutine.
	failures := make(map[uint64]int)
	fwd, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		SDP:       []float64{1, 4},
		RateBps:   8e6,
		Telemetry: reg,
		Fault: FaultFunc(func(p []byte, attempt int, send func([]byte) (int, error)) (int, error) {
			// Fail the first two attempts of every datagram, then
			// deliver it for real.
			h, _, err := Decode(p)
			if err != nil {
				t.Errorf("egress datagram failed to decode: %v", err)
				return 0, err
			}
			if failures[h.Seq] < 2 {
				failures[h.Seq]++
				return 0, errInjected
			}
			return send(p)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	send := dialIngress(t, fwd)

	const total = 10
	for i := 0; i < total; i++ {
		if _, err := send.Write(datagram(0, uint64(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := waitStats(t, fwd, 10*time.Second, func(s Stats) bool {
		return s.Received == total && s.Queued == 0 && s.Forwarded+s.Dropped == total
	}, "retried writes to complete")
	if st.Forwarded != total || st.Dropped != 0 {
		t.Fatalf("stats %+v: want every datagram forwarded after transient failures", st)
	}
	checkConservation(t, st, reg)
}

// Conservation under churn: mixed-class traffic from concurrent senders
// (including garbage datagrams), forwarder closed mid-flight. Afterwards
// every received datagram must be accounted exactly once and the
// telemetry backlog must be zero. Run with -race.
func TestForwarderConservationMidFlightClose(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drain time.Duration
	}{
		{"drop-on-close", 0},
		{"drain-on-close", 2 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recv := sink(t)
			reg := telemetry.NewWithSDP([]float64{1, 2, 4, 8})
			fwd, err := Listen(Config{
				Listen:       "127.0.0.1:0",
				Forward:      recv.LocalAddr().String(),
				SDP:          []float64{1, 2, 4, 8},
				RateBps:      2e6,
				MaxPackets:   64,
				DrainTimeout: tc.drain,
				Telemetry:    reg,
			})
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					send, err := net.DialUDP("udp", nil, fwd.LocalAddr().(*net.UDPAddr))
					if err != nil {
						return
					}
					defer send.Close()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if i%37 == 36 {
							send.Write([]byte{9, 9, 9}) // bad header
						} else {
							// Errors are expected once the ingress closes.
							send.Write(datagram(uint8((i+w)%4), uint64(i), 80))
						}
						if i%16 == 15 {
							time.Sleep(time.Millisecond)
						}
					}
				}(w)
			}

			time.Sleep(150 * time.Millisecond)
			start := time.Now()
			if err := fwd.Close(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
			closeTook := time.Since(start)

			st := fwd.Stats()
			if st.Queued != 0 {
				t.Fatalf("queue not empty after Close: %+v", st)
			}
			if st.Received != st.Forwarded+st.Dropped+st.BadHeader+st.BadClass {
				t.Fatalf("unaccounted datagrams after Close: %+v", st)
			}
			checkConservation(t, st, reg)
			if tc.drain == 0 && closeTook > time.Second {
				t.Errorf("drop-on-close took %v, want prompt shutdown", closeTook)
			}
			if tc.drain > 0 && st.Forwarded == 0 {
				t.Errorf("drain-on-close forwarded nothing: %+v", st)
			}
		})
	}
}

// Drain semantics: with a generous DrainTimeout every admitted datagram is
// flushed (still paced) before Close returns; with a short one the drain
// stops at the deadline and the remainder is drop-accounted.
func TestForwarderDrainOnClose(t *testing.T) {
	t.Run("full-drain", func(t *testing.T) {
		recv := sink(t)
		fwd, err := Listen(Config{
			Listen:       "127.0.0.1:0",
			Forward:      recv.LocalAddr().String(),
			RateBps:      1 << 19, // 64 KiB/s
			DrainTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		send := dialIngress(t, fwd)
		const total = 50
		for i := 0; i < total; i++ {
			if _, err := send.Write(datagram(0, uint64(i), 110)); err != nil {
				t.Fatal(err)
			}
		}
		waitStats(t, fwd, 5*time.Second, func(s Stats) bool { return s.Received == total }, "ingress")
		if err := fwd.Close(); err != nil {
			t.Fatal(err)
		}
		st := fwd.Stats()
		if st.Forwarded != total || st.Dropped != 0 || st.Queued != 0 {
			t.Fatalf("drain incomplete: %+v", st)
		}
	})
	t.Run("deadline-cutoff", func(t *testing.T) {
		recv := sink(t)
		fwd, err := Listen(Config{
			Listen:       "127.0.0.1:0",
			Forward:      recv.LocalAddr().String(),
			RateBps:      8 * 1024, // 1 KiB/s: ~125 ms per datagram
			DrainTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		send := dialIngress(t, fwd)
		const total = 10
		for i := 0; i < total; i++ {
			if _, err := send.Write(datagram(0, uint64(i), 110)); err != nil {
				t.Fatal(err)
			}
		}
		waitStats(t, fwd, 5*time.Second, func(s Stats) bool { return s.Received == total }, "ingress")
		start := time.Now()
		if err := fwd.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("Close took %v, want the 300ms drain deadline to cut off", took)
		}
		st := fwd.Stats()
		if st.Forwarded+st.Dropped != total || st.Queued != 0 {
			t.Fatalf("unaccounted after deadline cutoff: %+v", st)
		}
		if st.Dropped == 0 {
			t.Fatalf("deadline cutoff dropped nothing: %+v", st)
		}
	})
}

// Pacing accuracy: the absolute-clock pacer must hold the configured rate
// across a saturated busy period — write, dequeue and telemetry time must
// not erode it. Measured at the receiver between the first and last
// datagram of a back-to-back backlog.
func TestForwarderPacingAccuracy(t *testing.T) {
	recv := sink(t)
	const (
		rateBps = 2e6 // 250 KB/s
		payload = 500 // + 18-byte header = 518 B datagrams
		total   = 150
	)
	fwd, err := Listen(Config{
		Listen:     "127.0.0.1:0",
		Forward:    recv.LocalAddr().String(),
		RateBps:    rateBps,
		MaxPackets: 2 * total,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	send := dialIngress(t, fwd)

	for i := 0; i < total; i++ {
		if _, err := send.Write(datagram(0, uint64(i), payload)); err != nil {
			t.Fatal(err)
		}
	}

	recv.SetReadDeadline(time.Now().Add(30 * time.Second))
	buf := make([]byte, 2048)
	var first, last time.Time
	var wireBytes int
	for got := 0; got < total; got++ {
		n, _, err := recv.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("receive after %d datagrams: %v", got, err)
		}
		now := time.Now()
		if got == 0 {
			first = now
		} else {
			wireBytes += n // exclude the first: rate over (total-1) gaps
		}
		last = now
	}

	elapsed := last.Sub(first).Seconds()
	achieved := float64(wireBytes) * 8 / elapsed
	if dev := achieved/rateBps - 1; dev < -0.02 || dev > 0.02 {
		t.Fatalf("achieved egress rate %.0f bps, want %.0f ±2%% (deviation %+.2f%%)",
			achieved, float64(rateBps), dev*100)
	}
	// The transmitter counts a datagram just after writing it, so the sink
	// can hold the last one before the counters do.
	st := waitStats(t, fwd, 5*time.Second, func(st Stats) bool { return st.Queued == 0 }, "the last datagram to be counted")
	if st.Forwarded != total || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}
