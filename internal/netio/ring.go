package netio

import (
	"sync/atomic"

	"pdds/internal/core"
)

// spscRing is a bounded lock-free single-producer single-consumer ring of
// packets: the wait-free conduit between one ingress shard goroutine and
// the transmit goroutine (and, in the reverse direction, the free-list
// conduit returning recycled packets to their shard).
//
// Memory-ordering argument (documented for review, see DESIGN.md §3h):
// head is written only by the consumer, tail only by the producer — each
// side owns one index and merely observes the other's.
//
//   - Push: the producer stores the packet into slots[tail&mask] *before*
//     publishing tail+1 with a release store (atomic.Uint64.Store). The
//     consumer's acquire load of tail therefore happens-after the slot
//     write: a consumer that observes tail+1 observes the packet too, with
//     everything the producer wrote to it (payload bytes included).
//   - Pop: the consumer reads slots[head&mask] *before* publishing head+1
//     with a release store. The producer's acquire load of head
//     happens-after the slot read, so a producer that observes the freed
//     slot can safely overwrite it.
//
// Go's atomic operations are sequentially consistent, which is strictly
// stronger than the release/acquire pairs the argument needs. Each index
// sits on its own cache line so the producer and consumer do not false-
// share, and capacity is a power of two so index masking is one AND.
type spscRing struct {
	_     [64]byte // keep head off the previous owner's cache line
	head  atomic.Uint64
	_     [56]byte
	tail  atomic.Uint64
	_     [56]byte
	mask  uint64
	slots []*core.Packet
}

// newSPSCRing returns a ring with capacity at least min, rounded up to a
// power of two.
func newSPSCRing(min int) *spscRing {
	capacity := 1
	for capacity < min {
		capacity <<= 1
	}
	return &spscRing{
		mask:  uint64(capacity - 1),
		slots: make([]*core.Packet, capacity),
	}
}

// Cap returns the ring's capacity.
func (r *spscRing) Cap() int { return len(r.slots) }

// Len returns the instantaneous occupancy. It is exact when called from
// either the producer or the consumer goroutine and a safe lower/upper
// snapshot from anywhere else.
func (r *spscRing) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Push appends p; it reports false when the ring is full. Producer side
// only.
func (r *spscRing) Push(p *core.Packet) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.slots)) {
		return false
	}
	r.slots[tail&r.mask] = p
	r.tail.Store(tail + 1) // release: publishes the slot write above
	return true
}

// Peek returns the oldest packet without removing it, or nil when the ring
// is empty. Consumer side only; the acquire load of tail orders the slot
// read exactly as in Pop.
func (r *spscRing) Peek() *core.Packet {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil
	}
	return r.slots[head&r.mask]
}

// Pop removes and returns the oldest packet, or nil when the ring is
// empty. Consumer side only.
func (r *spscRing) Pop() *core.Packet {
	p := r.Peek()
	if p != nil {
		r.advance()
	}
	return p
}

// advance drops the packet Peek just returned. Consumer side only.
func (r *spscRing) advance() {
	head := r.head.Load()
	r.slots[head&r.mask] = nil
	r.head.Store(head + 1) // release: publishes the slot read above
}
