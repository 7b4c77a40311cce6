// Package loadgen is the one traffic generator of the live tools (pdload,
// pdprobe, chaos.RunNet): a Sender that offers classed datagrams to a
// forwarder, and a Sink that receives what it emits and times it.
package loadgen

import (
	"fmt"
	"net"
	"sync"
	"time"

	"pdds/internal/netio"
	"pdds/internal/stats"
)

// Sender offers Size-byte datagrams round-robin over Classes (datagram
// seq carries class seq % Classes) until Duration has passed or Count
// datagrams are sent, whichever is set and comes first. A nonzero Bps
// paces to that many bits per second on an absolute clock, so late wakes
// do not accumulate drift; zero sends as fast as the socket takes them.
//
// With Flows nil, datagrams carry their class tag on one connected
// socket. Otherwise each class's datagrams rotate untagged
// (netio.ClassUnspecified) over its Flows sockets, for the forwarder to
// classify by flow identity.
type Sender struct {
	Classes, Size int
	Bps           float64
	Duration      time.Duration
	Count         uint64
	Flows         [][]*net.UDPConn
}

// Send offers datagrams to dst and returns how many it sent.
func (s Sender) Send(dst string) (uint64, error) {
	if s.Classes < 1 || s.Size < netio.HeaderLen || (s.Duration <= 0 && s.Count == 0) {
		return 0, fmt.Errorf("loadgen: a sender needs classes, a size of at least %d and a duration or a count", netio.HeaderLen)
	}
	to, err := net.ResolveUDPAddr("udp", dst)
	if err != nil {
		return 0, err
	}
	var conn *net.UDPConn
	if s.Flows == nil {
		if conn, err = net.DialUDP("udp", nil, to); err != nil {
			return 0, err
		}
		defer conn.Close()
	}
	classes := uint64(s.Classes)
	gap := time.Duration(float64(s.Size*8) / s.Bps * float64(time.Second))
	dg := make([]byte, s.Size) // each send rewrites the header; the payload stays zero
	next := time.Now()
	stopAt := next.Add(s.Duration)
	var seq uint64
	for ; (s.Count == 0 || seq < s.Count) && (s.Duration <= 0 || time.Now().Before(stopAt)); seq++ {
		h := netio.Header{Class: uint8(seq % classes), Seq: seq, SentAt: time.Now()}
		if s.Flows == nil {
			h.Encode(dg[:0])
			_, err = conn.Write(dg)
		} else {
			h.Class = netio.ClassUnspecified
			h.Encode(dg[:0])
			flows := s.Flows[seq%classes]
			_, err = flows[(seq/classes)%uint64(len(flows))].WriteToUDP(dg, to)
		}
		if err != nil {
			return seq, fmt.Errorf("loadgen: send: %w", err)
		}
		if s.Bps > 0 {
			next = next.Add(gap)
			time.Sleep(time.Until(next))
		}
	}
	return seq, nil
}

// SinkStats is what a Sink saw. Count and the busy period First..Last
// cover every datagram, Bytes all but the first. Delay holds the one-way
// delays (seconds) of the well-formed datagrams, by class. Bad counts
// datagrams that do not decode, are shorter than the sink's size or name
// a class out of range; Regressions, well-formed ones whose sequence
// number is not above the last of their class (duplicates, reorderings).
type SinkStats struct {
	Count, Bytes, Bad, Regressions uint64
	First, Last                    time.Time
	Delay                          []stats.Sample
}

// Sink reads datagrams on a socket and keeps SinkStats.
type Sink struct {
	conn    *net.UDPConn
	size    int
	done    chan struct{}
	st      SinkStats
	nextSeq []uint64   // per class, one above the last sequence number read
	mu      sync.Mutex // orders st.Count against want
	want    uint64     // the reader stops once st.Count reaches it
}

// NewSink starts reading conn, which it owns from then on, for datagrams
// of at least size bytes in classes classes.
func NewSink(conn *net.UDPConn, classes, size int) *Sink {
	// Best effort: deep enough that the sink never back-pressures a run.
	conn.SetReadBuffer(4 << 20)
	s := &Sink{conn: conn, size: size, done: make(chan struct{}), st: SinkStats{Delay: make([]stats.Sample, classes)},
		nextSeq: make([]uint64, classes), want: ^uint64(0)}
	go s.read()
	return s
}

func (s *Sink) read() {
	defer close(s.done)
	buf := make([]byte, 64*1024)
	for stop := false; !stop; {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		now := time.Now()
		h, _, err := netio.Decode(buf[:n])
		st, c := &s.st, int(h.Class)
		if st.Count == 0 {
			st.First = now
		} else {
			st.Bytes += uint64(n)
		}
		st.Last = now
		if err != nil || n < s.size || c >= len(st.Delay) {
			st.Bad++
		} else {
			st.Delay[c].Add(now.Sub(h.SentAt).Seconds())
			if h.Seq < s.nextSeq[c] {
				st.Regressions++
			} else {
				s.nextSeq[c] = h.Seq + 1
			}
		}
		s.mu.Lock()
		st.Count++
		stop = st.Count >= s.want
		s.mu.Unlock()
	}
}

// Drain stops the sink once it has read n datagrams in all, or once
// timeout has passed, and returns what it saw.
func (s *Sink) Drain(n uint64, timeout time.Duration) SinkStats {
	s.mu.Lock()
	s.want = n
	if s.st.Count >= n {
		timeout = 0
	}
	s.mu.Unlock()
	s.conn.SetReadDeadline(time.Now().Add(timeout))
	<-s.done
	s.conn.Close()
	return s.st
}

// Close stops the sink at once and returns what it saw.
func (s *Sink) Close() SinkStats { return s.Drain(0, 0) }
