package sim

import (
	"slices"
	"testing"
)

// FuzzCalendarQueue drives the calendar queue and the heap through the same
// arbitrary schedule of pushes, pops and removals and requires identical
// (Time, seq) pop order — the ordering contract the engine's determinism
// rests on. Twin Event objects are used because both structures write the
// shared index/queued marker.
//
// Ops 255, 254 and pushes are followed by a Len and Peek comparison, which
// settles the vacant root a heap Pop leaves. Ops 253, 252 and 251 (unchecked
// pop, Peek alone, Len alone) are not, so a 253 hands the next op the heap
// in that state — as a handler meets it inside Engine.Step.
func FuzzCalendarQueue(f *testing.F) {
	f.Add([]byte{10, 3, 255, 7, 255, 255, 254, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255, 255})
	f.Add([]byte{200, 1, 200, 1, 254, 1, 255, 200, 255, 254, 0})
	// An unchecked pop followed by push, remove of another, peek, len and
	// pop, on queues of 1, 2 and 5; then drained with checks.
	for _, fill := range [][]byte{{8}, {8, 16}, {40, 8, 24, 8, 16}} {
		for _, next := range [][]byte{{4}, {254, 0}, {252}, {251}, {253}} {
			f.Add(slices.Concat(fill, []byte{253}, next, []byte{255, 255, 255, 255, 255, 255}))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		heap := &heapQueue{}
		cal := newCalendarQueue()
		var pendingH, pendingC []*Event
		now := 0.0
		var seq uint64
		checkLen := func() {
			if heap.Len() != cal.Len() {
				t.Fatalf("Len diverged: heap=%d calendar=%d", heap.Len(), cal.Len())
			}
		}
		checkPeek := func() {
			hp, cp := heap.Peek(), cal.Peek()
			if (hp == nil) != (cp == nil) {
				t.Fatalf("peek mismatch: heap=%v calendar=%v", hp, cp)
			}
			if hp != nil && (hp.Time != cp.Time || hp.seq != cp.seq) {
				t.Fatalf("peek diverged: heap (t=%g seq=%d) vs calendar (t=%g seq=%d)",
					hp.Time, hp.seq, cp.Time, cp.seq)
			}
		}
		for i := 0; i < len(data); i++ {
			switch op := data[i]; op {
			case 252: // Peek alone
				checkPeek()
				continue
			case 251: // Len alone
				checkLen()
				continue
			case 255, 253: // pop from both, compare order
				he := heap.Pop()
				ce := cal.Pop()
				if (he == nil) != (ce == nil) {
					t.Fatalf("pop mismatch: heap=%v calendar=%v", he, ce)
				}
				if he == nil {
					continue
				}
				if he.Time != ce.Time || he.seq != ce.seq {
					t.Fatalf("pop order diverged: heap (t=%g seq=%d) vs calendar (t=%g seq=%d)",
						he.Time, he.seq, ce.Time, ce.seq)
				}
				if he.Time < now {
					t.Fatalf("pop went backwards: %g after %g", he.Time, now)
				}
				now = he.Time
				pendingH, pendingC = dropEvent(pendingH, he), dropEvent(pendingC, ce)
				if op == 253 {
					continue
				}
			case 254: // remove a pending event from both
				i++
				if i >= len(data) || len(pendingH) == 0 {
					continue
				}
				j := int(data[i]) % len(pendingH)
				okH := heap.Remove(pendingH[j])
				okC := cal.Remove(pendingC[j])
				if okH != okC {
					t.Fatalf("remove mismatch: heap=%v calendar=%v", okH, okC)
				}
				pendingH = append(pendingH[:j], pendingH[j+1:]...)
				pendingC = append(pendingC[:j], pendingC[j+1:]...)
			default: // push at now + op/8 (clustered times force ties)
				tm := now + float64(op)/8
				he := &Event{Time: tm, seq: seq}
				ce := &Event{Time: tm, seq: seq}
				seq++
				heap.Push(he)
				cal.Push(ce)
				pendingH = append(pendingH, he)
				pendingC = append(pendingC, ce)
			}
			checkLen()
			checkPeek()
		}
	})
}

func dropEvent(list []*Event, ev *Event) []*Event {
	for i, e := range list {
		if e == ev {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
