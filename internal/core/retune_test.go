package core

import (
	"errors"
	"math"
	"testing"
)

// retunableKinds lists every scheduler with a live parameter vector; the
// seam tests and FuzzRetune iterate it.
var retunableKinds = []Kind{KindWTP, KindBPR, KindWFQ, KindAdditive, KindPAD, KindHPD, KindDRR, KindIWRR, KindPF}

func TestRetuneDispatch(t *testing.T) {
	sdp := []float64{1, 2, 4, 8}
	for _, kind := range retunableKinds {
		s, err := New(kind, sdp, 100)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(Retuner); !ok {
			t.Errorf("%s does not implement Retuner", kind)
			continue
		}
		if err := Retune(s, []float64{1, 3, 5, 9}); err != nil {
			t.Errorf("%s: Retune rejected a valid vector: %v", kind, err)
		}
	}
	for _, kind := range []Kind{KindFCFS, KindStrict} {
		s, _ := New(kind, sdp, 100)
		if err := Retune(s, sdp); !errors.Is(err, ErrNotRetunable) {
			t.Errorf("%s: Retune = %v, want ErrNotRetunable", kind, err)
		}
	}
}

func TestRetuneRejectsBadParamsAndLeavesStateIntact(t *testing.T) {
	bad := [][]float64{
		nil,
		{},
		{1, 2, 4},        // wrong length
		{1, 2, 4, 8, 16}, // wrong length
		{0, 1, 2, 3},     // zero
		{-1, 2, 4, 8},    // negative
		{1, 2, math.NaN(), 8},
		{1, 2, math.Inf(1), math.Inf(1)},
		{1, 4, 2, 8}, // decreasing
	}
	for _, kind := range retunableKinds {
		s, err := New(kind, []float64{1, 2, 4, 8}, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Build a small deterministic backlog first so a buggy reject
		// path that mutates state anyway would be visible downstream.
		for i := 0; i < 8; i++ {
			s.Enqueue(mkPkt(uint64(i+1), i%4, 100, float64(i)), float64(i))
		}
		for _, params := range bad {
			if err := s.(Retuner).Retune(params); err == nil {
				t.Errorf("%s: Retune(%v) accepted invalid params", kind, params)
			}
		}
		// The backlog must drain fully and in FIFO order per class.
		lastID := make(map[int]uint64)
		for n := 0; n < 8; n++ {
			p := s.Dequeue(100 + float64(n))
			if p == nil {
				t.Fatalf("%s: backlog lost after rejected retunes", kind)
			}
			if prev, ok := lastID[p.Class]; ok && p.ID < prev {
				t.Fatalf("%s: FIFO within class %d broken (%d after %d)", kind, p.Class, p.ID, prev)
			}
			lastID[p.Class] = p.ID
		}
		if s.Backlogged() {
			t.Fatalf("%s: packets remain after full drain", kind)
		}
	}
}

// A retuned WTP must select under the new SDPs: a younger class-1 head
// outranks an older class-0 head under SDPs {1,8}, and the flattened vector
// hands service back to the longest-waiting packet.
func TestWTPRetuneChangesSelection(t *testing.T) {
	s := NewWTP([]float64{1, 8})
	s.Enqueue(mkPkt(1, 0, 100, 0), 0)
	s.Enqueue(mkPkt(2, 1, 100, 5), 5)
	s.Enqueue(mkPkt(3, 1, 100, 6), 6)
	// Priorities at t=10: class 0 waits 10·1, class 1 waits 5·8.
	if p := s.Dequeue(10); p.ID != 2 {
		t.Fatalf("pre-retune Dequeue served packet %d, want 2 (class 1)", p.ID)
	}
	if err := s.Retune([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	// Under {1,8} class 1 would win again (4·8 > 10·1); under {1,1} it loses.
	if p := s.Dequeue(10); p.ID != 1 {
		t.Fatalf("post-retune Dequeue served packet %d, want 1 (class 0)", p.ID)
	}
	if got := s.SDP(1); got != 1 {
		t.Fatalf("SDP(1) = %g after retune, want 1", got)
	}
}

func TestDRRRetuneRecomputesQuanta(t *testing.T) {
	s := NewDRR([]float64{1, 2, 4, 8})
	if err := s.Retune([]float64{1, 1, 1, 16}); err != nil {
		t.Fatal(err)
	}
	want := []float64{baseQuantum, baseQuantum, baseQuantum, 16 * baseQuantum}
	for i, q := range s.quantum {
		if q != want[i] {
			t.Fatalf("quantum = %v, want %v", s.quantum, want)
		}
	}
}

func TestIWRRRetuneClampsScanPosition(t *testing.T) {
	s := NewIWRR([]float64{1, 2, 4, 8})
	if s.wmax != 8 {
		t.Fatalf("wmax = %d, want 8", s.wmax)
	}
	s.cycle = 7 // deep in the old round
	if err := s.Retune([]float64{1, 1, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.Weights(); got[0] != 1 || got[1] != 1 || got[2] != 2 || got[3] != 2 {
		t.Fatalf("weights = %v, want [1 1 2 2]", got)
	}
	if s.wmax != 2 || s.cycle != 0 {
		t.Fatalf("wmax=%d cycle=%d after shrink, want wmax=2 cycle=0", s.wmax, s.cycle)
	}
}

// The zero-steady-state-alloc gate must survive a flapping controller:
// interleaving a Retune into every warm enqueue+dequeue cycle may not
// touch the heap (same class count ⇒ in-place parameter swap).
func TestRetuneSteadyStateZeroAllocs(t *testing.T) {
	paramsA := []float64{1, 2, 4, 8}
	paramsB := []float64{1, 3, 9, 27}
	for _, kind := range retunableKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			sched, err := New(kind, paramsA, 441.0/11.2)
			if err != nil {
				t.Fatal(err)
			}
			warmCycle(t, sched)
			ret := sched.(Retuner)
			now := 1000.0
			flip := false
			allocs := testing.AllocsPerRun(200, func() {
				now++
				params := paramsA
				if flip = !flip; flip {
					params = paramsB
				}
				if err := ret.Retune(params); err != nil {
					t.Fatal(err)
				}
				p := sched.Dequeue(now)
				p.Arrival = now
				sched.Enqueue(p, now)
			})
			if allocs != 0 {
				t.Errorf("%s retune+enqueue+dequeue: %.1f allocs/op, want 0", kind, allocs)
			}
		})
	}
}

// FuzzRetune is the retune-seam property test: arbitrary parameter
// vectors fired into a live scheduler mid-run — interleaved with enqueues
// and dequeues — must never break conservation, FIFO order within a
// class, or the accounting counters, whether the vectors are valid or
// garbage. Invalid vectors must be rejected with an error, never a panic.
func FuzzRetune(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 2, 4, 8}, uint8(0))
	f.Add([]byte{0, 0, 0, 5, 5, 5, 9, 9}, []byte{8, 4, 2, 1}, uint8(3))
	f.Add([]byte{7, 7, 7, 7, 2, 2}, []byte{0, 0, 0, 0}, uint8(6))
	f.Fuzz(func(t *testing.T, ops []byte, raw []byte, kindSel uint8) {
		kind := retunableKinds[int(kindSel)%len(retunableKinds)]
		s, err := New(kind, []float64{1, 2, 4, 8}, 100)
		if err != nil {
			t.Fatal(err)
		}
		ret := s.(Retuner)

		// Decode the fuzzed parameter vector: raw bytes become floats,
		// including zeros and wild magnitudes, so both the accept and
		// reject paths run.
		params := make([]float64, len(raw))
		for i, b := range raw {
			params[i] = float64(b) * 0.25
		}

		now := 0.0
		var id uint64
		enq, deq := make([]int, 4), make([]int, 4)
		lastID := make([]uint64, 4)
		for _, op := range ops {
			now += float64(op%7) + 0.5
			switch op % 4 {
			case 0, 1: // enqueue
				id++
				class := int(op/4) % 4
				s.Enqueue(mkPkt(id, class, int64(40+int(op)*5), now), now)
				enq[class]++
			case 2: // dequeue
				if p := s.Dequeue(now); p != nil {
					deq[p.Class]++
					if lastID[p.Class] != 0 && p.ID < lastID[p.Class] {
						t.Fatalf("%s: FIFO broken in class %d: %d after %d",
							kind, p.Class, p.ID, lastID[p.Class])
					}
					lastID[p.Class] = p.ID
				}
			case 3: // retune mid-run with whatever the fuzzer brought
				vec := params
				if op >= 128 && len(params) >= 4 {
					vec = params[:4] // right length more often
				}
				if err := ret.Retune(vec); err == nil {
					if CheckRetuneParams(vec, 4) != nil {
						t.Fatalf("%s: Retune accepted invalid %v", kind, vec)
					}
				}
			}
			// Accounting must match the mirror counts after every op.
			total := 0
			for c := 0; c < 4; c++ {
				if got, want := s.Len(c), enq[c]-deq[c]; got != want {
					t.Fatalf("%s: Len(%d) = %d, mirror %d", kind, c, got, want)
				}
				total += enq[c] - deq[c]
			}
			if s.Backlogged() != (total > 0) {
				t.Fatalf("%s: Backlogged = %v with %d queued", kind, s.Backlogged(), total)
			}
		}
		// Conservation: everything enqueued drains, in class-FIFO order.
		for s.Backlogged() {
			now++
			p := s.Dequeue(now)
			if p == nil {
				t.Fatalf("%s: Dequeue nil with backlog", kind)
			}
			deq[p.Class]++
			if lastID[p.Class] != 0 && p.ID < lastID[p.Class] {
				t.Fatalf("%s: FIFO broken in class %d during drain", kind, p.Class)
			}
			lastID[p.Class] = p.ID
		}
		for c := 0; c < 4; c++ {
			if enq[c] != deq[c] {
				t.Fatalf("%s: class %d enqueued %d dequeued %d", kind, c, enq[c], deq[c])
			}
		}
	})
}
