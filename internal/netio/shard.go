package netio

import (
	"context"
	"fmt"
	"net"
	"syscall"
	"time"

	"pdds/internal/classify"
	"pdds/internal/core"
)

// maxShards bounds Config.Shards: beyond ~64 ingress sockets the kernel's
// REUSEPORT hash spreads flows too thin to matter and the per-shard ring
// memory dominates.
const maxShards = 64

// listenShards binds the forwarder's ingress sockets. With n == 1 the
// single socket is bound exactly as the classic forwarder bound it (no
// REUSEPORT, byte-identical path). With n > 1 it binds n sockets to the
// same addr:port under SO_REUSEPORT so the kernel's 4-tuple hash gives
// every flow a stable shard — the sharding discipline the classify flow
// table uses, realized in the kernel. Without SO_REUSEPORT it refuses:
// shards sharing one socket would stamp a flow's datagrams out of order.
func listenShards(listen string, n int) ([]*net.UDPConn, error) {
	if n <= 1 {
		laddr, err := net.ResolveUDPAddr("udp", listen)
		if err != nil {
			return nil, fmt.Errorf("netio: resolve listen addr: %w", err)
		}
		c, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return nil, fmt.Errorf("netio: listen: %w", err)
		}
		return []*net.UDPConn{c}, nil
	}
	lc := net.ListenConfig{Control: reusePortControl}
	var conns []*net.UDPConn
	addr := listen
	for len(conns) < n {
		pc, err := lc.ListenPacket(context.Background(), "udp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("netio: listen %d shards with SO_REUSEPORT: %w", n, err)
		}
		conns = append(conns, pc.(*net.UDPConn))
		// The first bind resolved ":0" to a concrete port; the rest must
		// bind that exact addr:port to join the REUSEPORT group.
		addr = conns[0].LocalAddr().String()
	}
	return conns, nil
}

// reusePortControl is the net.ListenConfig hook that sets SO_REUSEPORT
// before bind.
func reusePortControl(network, address string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) { serr = setReusePort(fd) }); err != nil {
		return err
	}
	return serr
}

// Per-slot classification outcomes recorded in ingressShard.class between
// the lock-free decode pass and the accounting pass; non-negative values
// are resolved classes.
const (
	slotBadHeader = -1
	slotBadClass  = -2
	slotRejected  = -3 // accounted (drop) — phase 3 must not build a packet
)

// ingressShard is one parallel receive path: its own socket, batched
// reads, flow classification, admission accounting, and a lock-free SPSC
// ring into the transmit goroutine. The reverse free ring returns recycled packets so
// the steady-state ingress path allocates nothing.
type ingressShard struct {
	f    *Forwarder
	idx  int
	bc   *batchConn
	xmit *spscRing // shard → transmitter; this side is the producer
	free *spscRing // transmitter → shard; this side is the consumer

	// key is the flow-key scratch hoisted out of the per-datagram path:
	// the destination half (the ingress socket's canonical address) and
	// protocol never change, so they are filled once at construction and
	// only Src/SrcPort are written per datagram.
	key classify.FlowKey

	// class is the per-slot decision scratch, reused every batch.
	class []int
}

func newIngressShard(f *Forwarder, idx int, bc *batchConn) *ingressShard {
	return &ingressShard{
		f:    f,
		idx:  idx,
		bc:   bc,
		xmit: newSPSCRing(f.cfg.MaxPackets),
		free: newSPSCRing(f.cfg.MaxPackets),
		key: classify.FlowKey{
			Dst:     f.ingressAddr,
			DstPort: f.ingressPort,
			Proto:   classify.ProtoUDP,
		},
		class: make([]int, defaultIOBatch),
	}
}

// run is the shard goroutine: read a batch, process it, wake the
// transmitter, repeat until the socket dies (normally at Close).
func (s *ingressShard) run() {
	defer s.f.ingressWG.Done()
	for {
		slots, err := s.bc.ReadBatch()
		if err != nil {
			// Closed socket (or a fatal error): stop receiving and wake
			// the transmitter so it can drain or discard.
			s.f.noteIngressDone()
			return
		}
		s.processBatch(slots, time.Now())
		s.f.signalWake()
	}
}

// processBatch runs one received batch through classification, admission,
// and publication. It is the testable core of the ingress path (no socket
// needed) and the subject of the zero-allocation gate: with pooling on and
// trusted headers it allocates only when a datagram outgrows every
// recycled payload buffer.
//
// The batch takes ONE statMu transaction regardless of size — counters,
// telemetry arrivals/drops, and admission all inside it — so sharded
// ingress keeps the classic path's exactness guarantees (every datagram
// accounted exactly once; telemetry Arrival strictly before the matching
// Departure or Drop) at 1/batch the lock traffic.
func (s *ingressShard) processBatch(slots []recvSlot, nowT time.Time) {
	f := s.f
	now := nowT.Sub(f.epoch).Seconds()
	nowNanos := nowT.Sub(f.epoch).Nanoseconds()

	// Phase 1, lock-free: decode and classify each datagram. The header
	// byte is trusted when in range (unless DistrustHeader);
	// ClassUnspecified and out-of-range bytes go to the classifier, whose
	// flow table is internally sharded and safe for concurrent shards.
	for i := range slots {
		hdr, _, derr := Decode(slots[i].buf)
		if derr != nil {
			s.class[i] = slotBadHeader
			continue
		}
		class := int(hdr.Class)
		if class >= f.numClasses || f.cfg.DistrustHeader {
			cls := f.cfg.Classifier
			if cls == nil {
				s.class[i] = slotBadClass
				continue
			}
			s.key.Src = slots[i].from.Addr().Unmap()
			s.key.SrcPort = slots[i].from.Port()
			c, ok := cls.Classify(s.key, hdr.Class, nowNanos)
			if !ok || c < 0 || c >= f.numClasses {
				s.class[i] = slotBadClass
				continue
			}
			class = c
		}
		s.class[i] = class
	}

	// Phase 2: the batch's single accounting transaction.
	f.statMu.Lock()
	ss := &f.shardStats[s.idx]
	ss.Batches++
	ss.Received += uint64(len(slots))
	if len(slots) > ss.MaxBatch {
		ss.MaxBatch = len(slots)
	}
	ss.Mode = s.bc.Mode() // reflects a runtime-probe demotion, if any
	admitted := 0
	for i := range slots {
		f.stats.Received++
		class := s.class[i]
		switch class {
		case slotBadHeader:
			f.stats.BadHeader++
			s.class[i] = slotRejected
		case slotBadClass:
			f.stats.BadClass++
			s.class[i] = slotRejected
		default:
			// Ordering contract: the arrival is recorded before the
			// transmitter can observe the packet — and before any drop —
			// so a departure or drop never precedes its arrival.
			f.telem.Arrival(class, int64(len(slots[i].buf)), now)
			if f.queued >= f.cfg.MaxPackets || f.closing ||
				(f.cfg.ClassMaxPackets != nil && f.cfg.ClassMaxPackets[class] > 0 &&
					f.classQueued[class] >= f.cfg.ClassMaxPackets[class]) {
				f.stats.Dropped++
				f.telem.Drop(class, now)
				s.class[i] = slotRejected
			} else {
				f.queued++
				f.classQueued[class]++
				admitted++
			}
		}
	}
	id := f.idSeq + 1
	f.idSeq += uint64(admitted)
	f.statMu.Unlock()

	// Phase 3, lock-free: build the admitted packets and publish them to
	// the transmit ring. The ring's capacity matches MaxPackets, and
	// admission bounded the global backlog by MaxPackets, so Push cannot
	// fail; the guard keeps accounting exact even if that reasoning is
	// ever broken.
	for i := range slots {
		class := s.class[i]
		if class < 0 {
			continue
		}
		buf := slots[i].buf
		p := s.getPacket(len(buf))
		p.ID = id
		id++
		p.Class = class
		p.Size = int64(len(buf))
		p.Arrival = now
		p.Payload = append(p.Payload[:0], buf...)
		if p.Payload[1] != byte(class) {
			// Re-mark the DS byte with the edge's decision so downstream
			// hops and sinks see the resolved class.
			p.Payload[1] = byte(class)
		}
		if !s.xmit.Push(p) {
			f.statMu.Lock()
			f.stats.Dropped++
			f.telem.Drop(class, f.now())
			f.queued--
			f.classQueued[class]--
			f.statMu.Unlock()
		}
	}
}

// getPacket returns a packet whose payload buffer has capacity ≥ n,
// preferring a recycled one from the transmitter's free ring. A fresh
// packet records this shard in Flow (a field the forwarder otherwise leaves
// zero) so recycle can return it to the ring it came from.
func (s *ingressShard) getPacket(n int) *core.Packet {
	if p := s.free.Pop(); p != nil {
		if cap(p.Payload) < n {
			p.Payload = make([]byte, 0, payloadCap(n))
		}
		return p
	}
	return &core.Packet{Flow: uint64(s.idx), Payload: make([]byte, 0, payloadCap(n))}
}

// payloadCap rounds a datagram size up to the payload buffer capacity
// class (powers of two from 256), so recycled buffers fit most traffic.
func payloadCap(n int) int {
	c := 256
	for c < n {
		c <<= 1
	}
	return c
}
