package netio

import (
	"net"
	"testing"
	"testing/quick"
	"time"

	"pdds/internal/control"
	"pdds/internal/core"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Class: 3, Seq: 123456789, SentAt: time.Unix(0, 1720000000123456789)}
	wire := h.Encode(nil)
	if len(wire) != HeaderLen {
		t.Fatalf("encoded length %d, want %d", len(wire), HeaderLen)
	}
	wire = append(wire, []byte("payload!")...)
	got, payload, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != h.Class || got.Seq != h.Seq || !got.SentAt.Equal(h.SentAt) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, h)
	}
	if string(payload) != "payload!" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(make([]byte, HeaderLen-1)); err == nil {
		t.Fatal("short datagram accepted")
	}
	bad := Header{Class: 1}.Encode(nil)
	bad[0] = 99
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

// Property: Encode/Decode round-trips arbitrary header values.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(class uint8, seq uint64, nanos int64) bool {
		h := Header{Class: class, Seq: seq, SentAt: time.Unix(0, nanos)}
		got, payload, err := Decode(h.Encode(nil))
		return err == nil && len(payload) == 0 &&
			got.Class == class && got.Seq == seq &&
			got.SentAt.UnixNano() == nanos
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen(Config{Listen: "127.0.0.1:0", Forward: "127.0.0.1:9", RateBps: 0}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Listen(Config{Listen: "127.0.0.1:0", Forward: "not-an-addr", RateBps: 1e6}); err == nil {
		t.Fatal("bad forward addr accepted")
	}
	if _, err := Listen(Config{Listen: "not-an-addr", Forward: "127.0.0.1:9", RateBps: 1e6}); err == nil {
		t.Fatal("bad listen addr accepted")
	}
	if _, err := Listen(Config{Listen: "127.0.0.1:0", Forward: "127.0.0.1:9", RateBps: 1e6, MaxPackets: -1}); err == nil {
		t.Fatal("negative MaxPackets accepted")
	}
	if _, err := Listen(Config{Listen: "127.0.0.1:0", Forward: "127.0.0.1:9", RateBps: 1e6,
		Control: &control.Config{}, ControlInterval: -time.Second}); err == nil {
		t.Fatal("negative ControlInterval accepted")
	}
}

// End-to-end over loopback: saturate a slow WTP forwarder with two
// classes and verify the higher class sees materially lower one-way delay.
func TestForwarderDifferentiatesOverLoopback(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	fwd, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		Scheduler: core.KindWTP,
		SDP:       []float64{1, 4},
		RateBps:   1 << 19, // 512 kbps: 64 KiB/s egress
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	send, err := net.Dial("udp", fwd.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	// Blast an interleaved burst far faster than the egress drains.
	const perClass = 60
	payload := make([]byte, 110) // + header = 128 B datagrams
	for i := 0; i < perClass; i++ {
		for class := uint8(0); class < 2; class++ {
			dg := Header{Class: class, Seq: uint64(i), SentAt: time.Now()}.Encode(nil)
			dg = append(dg, payload...)
			if _, err := send.Write(dg); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Collect at the receiver.
	recv.SetReadDeadline(time.Now().Add(10 * time.Second))
	var sum [2]float64
	var count [2]int
	buf := make([]byte, 2048)
	for count[0]+count[1] < 2*perClass {
		n, _, err := recv.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("receive (got %d+%d so far): %v", count[0], count[1], err)
		}
		h, _, err := Decode(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		sum[h.Class] += time.Since(h.SentAt).Seconds()
		count[h.Class]++
	}
	mean0 := sum[0] / float64(count[0])
	mean1 := sum[1] / float64(count[1])
	if !(mean1 < mean0*0.75) {
		t.Fatalf("class delays: low=%.3fs high=%.3fs — no differentiation", mean0, mean1)
	}
	// The transmitter counts a datagram just after writing it, so the sink
	// can hold the last one before the counters do.
	waitStats(t, fwd, 5*time.Second, func(st Stats) bool {
		return st.Received >= 2*perClass && st.Forwarded >= 2*perClass
	}, "every datagram to be counted forwarded")
}

func TestForwarderDropsOnOverflowAndBadHeaders(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	fwd, err := Listen(Config{
		Listen:     "127.0.0.1:0",
		Forward:    recv.LocalAddr().String(),
		RateBps:    8 * 1024, // 1 KiB/s: essentially frozen egress
		MaxPackets: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	send, err := net.Dial("udp", fwd.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	// Garbage datagram counts as bad header.
	if _, err := send.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Class out of range is structurally valid but unresolvable with no
	// classifier: counted separately as BadClass.
	dg := Header{Class: 77}.Encode(nil)
	if _, err := send.Write(append(dg, 0)); err != nil {
		t.Fatal(err)
	}
	// So is the explicit "classify me" sentinel.
	dg = Header{Class: ClassUnspecified}.Encode(nil)
	if _, err := send.Write(append(dg, 0)); err != nil {
		t.Fatal(err)
	}
	// Flood to force drops.
	for i := 0; i < 64; i++ {
		dg := Header{Class: 0, Seq: uint64(i), SentAt: time.Now()}.Encode(nil)
		dg = append(dg, make([]byte, 100)...)
		if _, err := send.Write(dg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := fwd.Stats()
		if st.BadHeader >= 1 && st.BadClass >= 2 && st.Dropped > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("stats never showed drops/bad headers/bad classes: %+v", fwd.Stats())
}

func TestForwarderCloseIdempotent(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	fwd, err := Listen(Config{
		Listen:  "127.0.0.1:0",
		Forward: recv.LocalAddr().String(),
		RateBps: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
}

// Two forwarders chained over loopback: the multi-hop per-hop behaviour of
// Study B on real sockets. Differentiation must survive the chain.
func TestForwarderChainTwoHops(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	hop2, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   recv.LocalAddr().String(),
		Scheduler: core.KindWTP,
		SDP:       []float64{1, 4},
		RateBps:   1 << 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hop2.Close()

	hop1, err := Listen(Config{
		Listen:    "127.0.0.1:0",
		Forward:   hop2.LocalAddr().String(),
		Scheduler: core.KindWTP,
		SDP:       []float64{1, 4},
		RateBps:   1 << 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hop1.Close()

	send, err := net.Dial("udp", hop1.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	const perClass = 40
	payload := make([]byte, 110)
	for i := 0; i < perClass; i++ {
		for class := uint8(0); class < 2; class++ {
			dg := Header{Class: class, Seq: uint64(i), SentAt: time.Now()}.Encode(nil)
			dg = append(dg, payload...)
			if _, err := send.Write(dg); err != nil {
				t.Fatal(err)
			}
		}
	}

	recv.SetReadDeadline(time.Now().Add(15 * time.Second))
	var sum [2]float64
	var count [2]int
	buf := make([]byte, 2048)
	for count[0]+count[1] < 2*perClass {
		n, _, err := recv.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("receive after %d datagrams: %v", count[0]+count[1], err)
		}
		h, _, err := Decode(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		sum[h.Class] += time.Since(h.SentAt).Seconds()
		count[h.Class]++
	}
	mean0 := sum[0] / float64(count[0])
	mean1 := sum[1] / float64(count[1])
	if !(mean1 < mean0*0.8) {
		t.Fatalf("two-hop delays: low=%.3fs high=%.3fs — differentiation lost across hops", mean0, mean1)
	}
	// As above: a hop's counters can trail the sink by one datagram.
	for _, hop := range []*Forwarder{hop1, hop2} {
		waitStats(t, hop, 5*time.Second, func(st Stats) bool { return st.Forwarded >= 2*perClass },
			"a hop to count every datagram forwarded")
	}
}
