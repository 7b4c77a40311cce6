package loadgen

import (
	"net"
	"sync"
	"testing"
	"time"

	"pdds/internal/netio"
)

// newSink starts a loopback sink and returns it with its address.
func newSink(t *testing.T, classes, size int) (*Sink, *net.UDPAddr) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSink(conn, classes, size)
	t.Cleanup(func() { s.Close() })
	return s, conn.LocalAddr().(*net.UDPAddr)
}

// checkClean asserts a sink saw every class's share of n well-formed,
// in-order datagrams with non-negative one-way delays.
func checkClean(t *testing.T, st SinkStats, classes int, n uint64) {
	t.Helper()
	if st.Count != n || st.Bad != 0 || st.Regressions != 0 {
		t.Fatalf("count=%d bad=%d regressions=%d, want %d/0/0", st.Count, st.Bad, st.Regressions, n)
	}
	for c := 0; c < classes; c++ {
		if want := n / uint64(classes); uint64(st.Delay[c].Len()) != want {
			t.Errorf("class %d: %d delays, want %d", c, st.Delay[c].Len(), want)
		}
		if st.Delay[c].Len() > 0 && st.Delay[c].Quantile(0) < 0 {
			t.Errorf("class %d: negative delay %g", c, st.Delay[c].Quantile(0))
		}
	}
	if !st.Last.After(st.First) {
		t.Errorf("busy period %v..%v is empty", st.First, st.Last)
	}
}

// TestSendTagged offers tagged datagrams straight into a sink: every
// class gets its round-robin share, in order.
func TestSendTagged(t *testing.T) {
	const classes, size, n = 4, 64, 200
	sink, addr := newSink(t, classes, size)
	sent, err := Sender{Classes: classes, Size: size, Count: n, Bps: 64 * 8 / 20e-6}.Send(addr.String())
	if err != nil || sent != n {
		t.Fatalf("sent %d, %v; want %d", sent, err, n)
	}
	st := sink.Drain(n, 5*time.Second)
	checkClean(t, st, classes, n)
	if st.Bytes != (n-1)*size {
		t.Errorf("bytes after the first datagram = %d, want %d", st.Bytes, (n-1)*size)
	}
}

// TestSendDuration stops on the clock rather than on a count.
func TestSendDuration(t *testing.T) {
	sink, addr := newSink(t, 2, 100)
	sent, err := Sender{Classes: 2, Size: 100, Bps: 100 * 8 / 1e-3, Duration: 30 * time.Millisecond}.Send(addr.String())
	if err != nil || sent == 0 || sent > 31 {
		t.Fatalf("sent %d in 30ms at 1ms gaps, %v", sent, err)
	}
	if st := sink.Drain(sent, 5*time.Second); st.Count != sent {
		t.Fatalf("sink saw %d of %d datagrams", st.Count, sent)
	}
}

// TestSendFlows offers untagged datagrams over per-class flow sockets
// through a relay that classifies by source port, as a forwarder's
// classifier would: each datagram must leave from the flow socket the
// rotation names, untagged, and reach the sink under its class.
func TestSendFlows(t *testing.T) {
	const classes, flowsPerClass, size, n = 4, 2, 64, 200
	sink, addr := newSink(t, classes, size)
	flows := make([][]*net.UDPConn, classes)
	classOf := map[int]int{}
	for c := range flows {
		for i := 0; i < flowsPerClass; i++ {
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			flows[c] = append(flows[c], conn)
			classOf[conn.LocalAddr().(*net.UDPAddr).Port] = c
		}
	}

	relay, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relay.SetReadBuffer(4 << 20)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			m, from, err := relay.ReadFromUDP(buf)
			if err != nil {
				return
			}
			h, payload, err := netio.Decode(buf[:m])
			if err != nil || h.Class != netio.ClassUnspecified {
				t.Errorf("relay got class %d, %v; want untagged", h.Class, err)
				continue
			}
			seq := int(h.Seq)
			if want := flows[seq%classes][(seq/classes)%flowsPerClass].LocalAddr().(*net.UDPAddr).Port; from.Port != want {
				t.Errorf("seq %d left from port %d, want %d", seq, from.Port, want)
			}
			h.Class = uint8(classOf[from.Port])
			if _, err := relay.WriteTo(append(h.Encode(nil), payload...), addr); err != nil {
				t.Error(err)
			}
		}
	}()

	sent, err := Sender{Classes: classes, Size: size, Count: n, Bps: 64 * 8 / 20e-6, Flows: flows}.Send(relay.LocalAddr().String())
	if err != nil || sent != n {
		t.Fatalf("sent %d, %v; want %d", sent, err, n)
	}
	st := sink.Drain(n, 5*time.Second)
	relay.Close()
	wg.Wait()
	checkClean(t, st, classes, n)
}

func TestSendRejects(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dst := conn.LocalAddr().String()
	for name, s := range map[string]Sender{
		"no classes": {Size: 64, Count: 1},
		"short size": {Classes: 1, Size: netio.HeaderLen - 1, Count: 1},
		"no limit":   {Classes: 1, Size: 64},
	} {
		if _, err := s.Send(dst); err == nil {
			t.Errorf("%s: Send accepted %+v", name, s)
		}
	}
}

// TestSinkDisturbances writes hand-crafted datagrams at a sink, each case
// a well-formed datagram followed by one disturbance, and checks the
// disturbance lands in its own counter and nowhere else.
func TestSinkDisturbances(t *testing.T) {
	const classes, size = 2, 64
	dg := func(class uint8, seq uint64, n int) []byte {
		b := netio.Header{Class: class, Seq: seq, SentAt: time.Now()}.Encode(nil)
		return append(b, make([]byte, n-netio.HeaderLen)...)
	}
	undecodable := dg(0, 6, size)
	undecodable[0] ^= 0xFF
	cases := []struct {
		name       string
		disturb    []byte
		bad, regr  uint64
		class0Seen int
	}{
		{"undecodable", undecodable, 1, 0, 1},
		{"short", dg(0, 6, size-1), 1, 0, 1},
		{"class out of range", dg(classes, 6, size), 1, 0, 1},
		{"repeated sequence", dg(0, 5, size), 0, 1, 2},
		{"in order", dg(0, 6, size), 0, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink, addr := newSink(t, classes, size)
			conn, err := net.DialUDP("udp", nil, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for _, b := range [][]byte{dg(0, 5, size), tc.disturb} {
				if _, err := conn.Write(b); err != nil {
					t.Fatal(err)
				}
			}
			st := sink.Drain(2, 5*time.Second)
			if st.Count != 2 {
				t.Fatalf("sink saw %d of 2 datagrams", st.Count)
			}
			if st.Bad != tc.bad || st.Regressions != tc.regr || st.Delay[0].Len() != tc.class0Seen || st.Delay[1].Len() != 0 {
				t.Errorf("bad=%d regressions=%d per-class=[%d %d], want %d/%d/[%d 0]",
					st.Bad, st.Regressions, st.Delay[0].Len(), st.Delay[1].Len(), tc.bad, tc.regr, tc.class0Seen)
			}
		})
	}
}

// TestSinkDrain stops at the count when it is reached, and at the
// deadline when it is not.
func TestSinkDrain(t *testing.T) {
	sink, _ := newSink(t, 1, 64)
	if st := sink.Drain(0, time.Hour); st.Count != 0 {
		t.Errorf("Drain(0) on an idle sink read %d", st.Count)
	}

	sink, _ = newSink(t, 1, 64)
	start := time.Now()
	if st := sink.Drain(1, 50*time.Millisecond); st.Count != 0 {
		t.Errorf("short Drain read %d with nothing sent", st.Count)
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Errorf("short Drain returned after %v, before its 50ms deadline", el)
	}

	sink, addr := newSink(t, 1, 64)
	if _, err := (Sender{Classes: 1, Size: 64, Count: 3}).Send(addr.String()); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if st := sink.Drain(3, time.Minute); st.Count != 3 {
		t.Errorf("Drain(3) read %d after 3 sends", st.Count)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("Drain(3) returned after %v, not at the count", el)
	}
}
