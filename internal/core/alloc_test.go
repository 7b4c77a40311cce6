package core

import (
	"testing"
)

// These tests pin the zero-allocation contract of the scheduler hot path
// (ISSUE: alloc regressions must fail the test suite, not just shift a
// benchmark). Each scheduler is warmed until its internal rings have
// reached steady-state capacity, then a full enqueue+dequeue cycle must
// not touch the heap.

// warmCycle drives sched through enough enqueue+dequeue cycles to
// stabilize every internal buffer, and returns the packet set in play.
func warmCycle(tb testing.TB, sched Scheduler) []*Packet {
	tb.Helper()
	pkts := make([]*Packet, 64)
	for i := range pkts {
		pkts[i] = &Packet{ID: uint64(i), Class: i % sched.NumClasses(), Size: 550}
	}
	for i, p := range pkts {
		sched.Enqueue(p, float64(i))
	}
	now := 100.0
	for i := 0; i < 4*len(pkts); i++ {
		now++
		p := sched.Dequeue(now)
		if p == nil {
			tb.Fatalf("%s: Dequeue returned nil with backlog", sched.Name())
		}
		p.Arrival = now
		sched.Enqueue(p, now)
	}
	return pkts
}

func TestSchedulerHotPathZeroAllocs(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			sched, err := New(kind, []float64{1, 2, 4, 8}, 441.0/11.2)
			if err != nil {
				t.Fatal(err)
			}
			warmCycle(t, sched)
			now := 1000.0
			allocs := testing.AllocsPerRun(200, func() {
				now++
				p := sched.Dequeue(now)
				p.Arrival = now
				sched.Enqueue(p, now)
			})
			if allocs != 0 {
				t.Errorf("%s steady-state enqueue+dequeue: %.1f allocs/op, want 0", kind, allocs)
			}
		})
	}
}

func TestPacketPoolZeroAllocsWhenWarm(t *testing.T) {
	pool := NewPacketPool()
	// Warm: put a working set in, so Get always recycles.
	for i := 0; i < 8; i++ {
		pool.Put(&Packet{})
	}
	allocs := testing.AllocsPerRun(200, func() {
		p := pool.Get()
		p.Size = 550
		pool.Put(p)
	})
	if allocs != 0 {
		t.Errorf("warm pool Get+Put: %.1f allocs/op, want 0", allocs)
	}
}

func TestPacketPoolRecyclesAndZeroes(t *testing.T) {
	pool := NewPacketPool()
	p := pool.Get()
	if pool.Allocated() != 1 || pool.Recycled() != 0 {
		t.Fatalf("fresh Get: allocated=%d recycled=%d", pool.Allocated(), pool.Recycled())
	}
	p.ID, p.Class, p.Size = 42, 3, 999
	p.Payload = []byte{1, 2, 3}
	pool.Put(p)
	if pool.Free() != 1 {
		t.Fatalf("Free() = %d, want 1", pool.Free())
	}
	q := pool.Get()
	if q != p {
		t.Fatal("Get did not recycle the Put packet")
	}
	if pool.Recycled() != 1 {
		t.Fatalf("Recycled() = %d, want 1", pool.Recycled())
	}
	if q.ID != 0 || q.Class != 0 || q.Size != 0 || q.Payload != nil {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
}

func TestNilPacketPoolIsValid(t *testing.T) {
	var pool *PacketPool
	p := pool.Get()
	if p == nil {
		t.Fatal("nil pool Get returned nil")
	}
	pool.Put(p) // must not panic
	if pool.Allocated() != 0 || pool.Recycled() != 0 || pool.Free() != 0 {
		t.Fatal("nil pool counters must read zero")
	}
}
