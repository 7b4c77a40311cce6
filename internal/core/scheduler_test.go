package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func mkPkt(id uint64, class int, size int64, arrival float64) *Packet {
	return &Packet{ID: id, Class: class, Size: size, Arrival: arrival}
}

func TestNewAllKinds(t *testing.T) {
	sdp := []float64{1, 2, 4, 8}
	for _, k := range Kinds() {
		s, err := New(k, sdp, 39.375)
		if err != nil {
			t.Fatalf("New(%q): %v", k, err)
		}
		if s.NumClasses() != 4 {
			t.Fatalf("%q NumClasses = %d", k, s.NumClasses())
		}
		if s.Name() == "" {
			t.Fatalf("%q has empty name", k)
		}
		if s.Backlogged() {
			t.Fatalf("%q backlogged when fresh", k)
		}
		if s.Dequeue(0) != nil {
			t.Fatalf("%q dequeued from empty", k)
		}
	}
	if _, err := New("nonsense", sdp, 1); err == nil {
		t.Fatal("unknown kind did not error")
	}
}

func TestValidateSDPs(t *testing.T) {
	for _, bad := range [][]float64{
		nil,
		{},
		{0},
		{-1, 2},
		{2, 1}, // decreasing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ValidateSDPs(%v) did not panic", bad)
				}
			}()
			ValidateSDPs(bad)
		}()
	}
	ValidateSDPs([]float64{1, 1, 2}) // nondecreasing is allowed
}

// New refuses invalid SDPs with an error for every kind, FCFS and strict
// priority included, instead of letting a constructor panic.
func TestNewRejectsInvalidSDPs(t *testing.T) {
	cases := []struct {
		name string
		sdp  []float64
	}{
		{"none", nil},
		{"empty", []float64{}},
		{"zero", []float64{0, 1, 4, 8}},
		{"negative", []float64{-1, 2}},
		{"decreasing", []float64{2, 1, 4, 8}},
		{"NaN", []float64{1, math.NaN()}},
		{"infinite", []float64{1, math.Inf(1)}},
		{"65 classes", make65()},
	}
	for _, tc := range cases {
		if err := CheckSDPs(tc.sdp); err == nil {
			t.Errorf("CheckSDPs(%s) accepted", tc.name)
		}
		for _, k := range Kinds() {
			if s, err := New(k, tc.sdp, 39.375); err == nil || s != nil {
				t.Errorf("New(%q, %s) = %v, %v; want an error", k, tc.name, s, err)
			}
		}
	}
	if err := CheckSDPs([]float64{1, 1, 2}); err != nil {
		t.Errorf("nondecreasing SDPs rejected: %v", err)
	}
}

// make65 returns 65 equal SDPs, one class past the limit.
func make65() []float64 {
	sdp := make([]float64, 65)
	for i := range sdp {
		sdp[i] = 1
	}
	return sdp
}

func TestFCFSOrder(t *testing.T) {
	s := NewFCFS(2)
	s.Enqueue(mkPkt(1, 1, 100, 0), 0)
	s.Enqueue(mkPkt(2, 0, 100, 1), 1)
	s.Enqueue(mkPkt(3, 1, 100, 2), 2)
	if s.Len(1) != 2 || s.Len(0) != 1 || s.Bytes(1) != 200 {
		t.Fatal("FCFS per-class accounting wrong")
	}
	for want := uint64(1); want <= 3; want++ {
		if got := s.Dequeue(10).ID; got != want {
			t.Fatalf("FCFS dequeued %d, want %d", got, want)
		}
	}
	if s.Backlogged() {
		t.Fatal("FCFS backlogged after draining")
	}
}

func TestStrictServesHighestFirst(t *testing.T) {
	s := NewStrict(3)
	s.Enqueue(mkPkt(1, 0, 100, 0), 0)
	s.Enqueue(mkPkt(2, 2, 100, 0), 0)
	s.Enqueue(mkPkt(3, 1, 100, 0), 0)
	s.Enqueue(mkPkt(4, 2, 100, 0), 0)
	wantClasses := []int{2, 2, 1, 0}
	for _, want := range wantClasses {
		if got := s.Dequeue(1).Class; got != want {
			t.Fatalf("strict served class %d, want %d", got, want)
		}
	}
}

func TestWTPPriorityOrder(t *testing.T) {
	// Class 0 (s=1) waited 10; class 1 (s=2) waited 6: priorities 10 vs
	// 12, so class 1 goes first even though class 0 arrived earlier.
	s := NewWTP([]float64{1, 2})
	s.Enqueue(mkPkt(1, 0, 100, 0), 0)
	s.Enqueue(mkPkt(2, 1, 100, 4), 4)
	if got := s.Dequeue(10).ID; got != 2 {
		t.Fatalf("WTP served %d first, want 2", got)
	}
	if got := s.Dequeue(10).ID; got != 1 {
		t.Fatalf("WTP served %d second, want 1", got)
	}
}

func TestWTPTieFavorsHigherClass(t *testing.T) {
	s := NewWTP([]float64{1, 1, 1})
	s.Enqueue(mkPkt(1, 0, 100, 0), 0)
	s.Enqueue(mkPkt(2, 2, 100, 0), 0)
	s.Enqueue(mkPkt(3, 1, 100, 0), 0)
	if got := s.Dequeue(5).Class; got != 2 {
		t.Fatalf("WTP tie served class %d, want 2", got)
	}
}

func TestWTPEqualWaitHigherSDPWins(t *testing.T) {
	s := NewWTP([]float64{1, 2, 4, 8})
	for c := 0; c < 4; c++ {
		s.Enqueue(mkPkt(uint64(c), c, 100, 0), 0)
	}
	for want := 3; want >= 0; want-- {
		if got := s.Dequeue(10).Class; got != want {
			t.Fatalf("WTP served class %d, want %d", got, want)
		}
	}
}

func TestWTPSDPAccessor(t *testing.T) {
	s := NewWTP([]float64{1, 2})
	if s.SDP(0) != 1 || s.SDP(1) != 2 {
		t.Fatal("SDP accessor wrong")
	}
}

func TestAdditivePriorityOrder(t *testing.T) {
	// Additive: p = wait + s. Class 0 waited 10 (p=10+1=11); class 1
	// waited 6 (p=6+5=11): tie, higher class wins.
	s := NewAdditive([]float64{1, 5})
	s.Enqueue(mkPkt(1, 0, 100, 0), 0)
	s.Enqueue(mkPkt(2, 1, 100, 4), 4)
	if got := s.Dequeue(10).ID; got != 2 {
		t.Fatalf("additive served %d first, want 2", got)
	}
	// Packet 1 (p=11) still outranks fresh arrivals; then a fresh
	// class-1 packet (p=0+5) beats a class-0 packet that waited 2
	// (p=2+1): class 1 wins on offset alone.
	s.Enqueue(mkPkt(3, 1, 100, 10), 10)
	s.Enqueue(mkPkt(4, 0, 100, 8), 8)
	for _, want := range []uint64{1, 3, 4} {
		if got := s.Dequeue(10).ID; got != want {
			t.Fatalf("additive served %d, want %d", got, want)
		}
	}
}

func TestWFQWeightsShareBandwidth(t *testing.T) {
	// Two always-backlogged classes with weights 1 and 3 and equal packet
	// sizes: over a long run class 1 should be served ~3x as often.
	s := NewWFQ([]float64{1, 3})
	var id uint64
	for i := 0; i < 400; i++ {
		id++
		s.Enqueue(mkPkt(id, 0, 100, 0), 0)
		id++
		s.Enqueue(mkPkt(id, 1, 100, 0), 0)
	}
	counts := [2]int{}
	for i := 0; i < 400; i++ {
		counts[s.Dequeue(float64(i)).Class]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("WFQ service ratio = %.2f (counts %v), want ~3", ratio, counts)
	}
}

func TestWFQRespectsFIFOWithinClass(t *testing.T) {
	s := NewWFQ([]float64{1, 2})
	for i := uint64(0); i < 10; i++ {
		s.Enqueue(mkPkt(i, int(i%2), 100+int64(i), 0), 0)
	}
	last := map[int]uint64{0: 0, 1: 0}
	seen := map[int]bool{}
	for s.Backlogged() {
		p := s.Dequeue(0)
		if seen[p.Class] && p.ID < last[p.Class] {
			t.Fatalf("WFQ reordered within class %d: %d after %d", p.Class, p.ID, last[p.Class])
		}
		last[p.Class] = p.ID
		seen[p.Class] = true
	}
}

func TestBPRSmallestRemainingWorkFirst(t *testing.T) {
	// Two fresh heads (v=0): BPR serves the smaller packet first
	// (argmin L - v).
	s := NewBPR([]float64{1, 2}, 100)
	s.Enqueue(mkPkt(1, 0, 40, 0), 0)
	s.Enqueue(mkPkt(2, 1, 1500, 0), 0)
	if got := s.Dequeue(0).ID; got != 1 {
		t.Fatalf("BPR served %d first, want 1 (smaller remaining work)", got)
	}
}

func TestBPRTieFavorsHigherClass(t *testing.T) {
	s := NewBPR([]float64{1, 2}, 100)
	s.Enqueue(mkPkt(1, 0, 500, 0), 0)
	s.Enqueue(mkPkt(2, 1, 500, 0), 0)
	if got := s.Dequeue(0).Class; got != 1 {
		t.Fatalf("BPR tie served class %d, want 1", got)
	}
}

func TestBPRVirtualServiceFavorsBackloggedHighSDP(t *testing.T) {
	// Build identical byte backlogs in both classes; the high-SDP class
	// accumulates virtual service faster, so after the first departure
	// epoch its head should complete first even with equal sizes.
	s := NewBPR([]float64{1, 4}, 100)
	now := 0.0
	var id uint64
	for i := 0; i < 4; i++ {
		id++
		s.Enqueue(mkPkt(id, 0, 500, now), now)
		id++
		s.Enqueue(mkPkt(id, 1, 500, now), now)
	}
	first := s.Dequeue(now) // tie: class 1 (higher) wins
	if first.Class != 1 {
		t.Fatalf("first departure class %d, want 1", first.Class)
	}
	// Transmit for 5 time units (500 bytes at rate 100); during this the
	// class-1 queue earns rate 4x class-0's rate per unit backlog.
	now = 5
	second := s.Dequeue(now)
	if second.Class != 1 {
		t.Fatalf("second departure class %d, want 1 (virtual service lead)", second.Class)
	}
}

func TestBPRConstructorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBPR with zero rate did not panic")
		}
	}()
	NewBPR([]float64{1, 2}, 0)
}

func TestClassQueuesPanicsOnBadClass(t *testing.T) {
	s := NewWTP([]float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue with out-of-range class did not panic")
		}
	}()
	s.Enqueue(mkPkt(1, 7, 100, 0), 0)
}

func TestDropTail(t *testing.T) {
	s := NewWTP([]float64{1, 2})
	s.Enqueue(mkPkt(1, 0, 100, 0), 0)
	s.Enqueue(mkPkt(2, 0, 200, 1), 1)
	var td TailDropper = s
	p := td.DropTail(0)
	if p == nil || p.ID != 2 {
		t.Fatalf("DropTail = %v, want packet 2", p)
	}
	if s.Len(0) != 1 || s.Bytes(0) != 100 {
		t.Fatal("accounting wrong after DropTail")
	}
	if td.DropTail(1) != nil {
		t.Fatal("DropTail on empty class returned a packet")
	}
}

// Property: every per-class scheduler preserves FIFO order within a class,
// for arbitrary interleavings of enqueues and dequeues.
func TestSchedulersFIFOWithinClassProperty(t *testing.T) {
	mk := func(kind Kind) Scheduler {
		s, err := New(kind, []float64{1, 2, 4}, 100)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, kind := range Kinds() {
		kind := kind
		f := func(seed uint64, opsCount uint16) bool {
			rng := rand.New(rand.NewPCG(seed, 7))
			s := mk(kind)
			now := 0.0
			var id uint64
			lastOut := make([]uint64, 3)
			ops := int(opsCount%300) + 10
			for k := 0; k < ops; k++ {
				now += rng.Float64()
				if rng.IntN(2) == 0 {
					id++
					c := rng.IntN(3)
					s.Enqueue(mkPkt(id, c, int64(40+rng.IntN(1460)), now), now)
				} else if p := s.Dequeue(now); p != nil {
					if lastOut[p.Class] != 0 && p.ID < lastOut[p.Class] {
						return false
					}
					lastOut[p.Class] = p.ID
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// Property: Len/Bytes/Backlogged stay consistent with enqueued-minus-
// dequeued across arbitrary operation sequences, for every scheduler.
func TestSchedulersAccountingProperty(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		f := func(seed uint64, opsCount uint16) bool {
			rng := rand.New(rand.NewPCG(seed, 11))
			s, err := New(kind, []float64{1, 2, 4, 8}, 50)
			if err != nil {
				return false
			}
			now := 0.0
			var id uint64
			count := make([]int, 4)
			bytes := make([]int64, 4)
			ops := int(opsCount%400) + 10
			for k := 0; k < ops; k++ {
				now += rng.Float64()
				if rng.IntN(3) != 0 {
					id++
					c := rng.IntN(4)
					sz := int64(40 + rng.IntN(1460))
					s.Enqueue(mkPkt(id, c, sz, now), now)
					count[c]++
					bytes[c] += sz
				} else if p := s.Dequeue(now); p != nil {
					count[p.Class]--
					bytes[p.Class] -= p.Size
				}
				total := 0
				for c := 0; c < 4; c++ {
					if s.Len(c) != count[c] || s.Bytes(c) != bytes[c] {
						return false
					}
					total += count[c]
				}
				if s.Backlogged() != (total > 0) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestPacketWaitAndString(t *testing.T) {
	p := mkPkt(5, 1, 550, 3)
	p.Start = 10
	if p.Wait() != 7 {
		t.Fatalf("Wait = %g, want 7", p.Wait())
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}
