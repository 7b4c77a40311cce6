package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %g, want 3", e.Now())
	}
	if e.Executed() != 3 {
		t.Fatalf("Executed = %d, want 3", e.Executed())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-broken order = %v, want insertion order", got)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.At(2, func() {
		e.After(3, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 5 {
		t.Fatalf("After fired at %g, want 5", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	if ev.Canceled() {
		t.Fatal("fresh event reports canceled")
	}
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("canceled event does not report canceled")
	}
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
	e.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after RunAll", e.Pending())
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []float64
	var evs []*Event
	for _, tm := range []float64{5, 1, 9, 3, 7, 2, 8} {
		tm := tm
		evs = append(evs, e.At(tm, func() { got = append(got, tm) }))
	}
	e.Cancel(evs[0]) // t=5
	e.Cancel(evs[2]) // t=9
	e.RunAll()
	want := []float64{1, 2, 3, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		e.At(tm, func() { got = append(got, tm) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) executed %d events, want 3", len(got))
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(10)
	if len(got) != 5 {
		t.Fatalf("RunUntil(10) executed %d events total, want 5", len(got))
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.RunAll()
}

// Property: for any multiset of event times, the engine executes them in
// nondecreasing time order, and equal times run in insertion order.
func TestEngineSortsArbitraryTimes(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		e := NewEngine()
		count := int(n%64) + 1
		times := make([]float64, count)
		type fired struct {
			tm  float64
			seq int
		}
		var got []fired
		for i := 0; i < count; i++ {
			// Coarse grid forces many ties.
			tm := float64(rng.IntN(8))
			times[i] = tm
			i := i
			e.At(tm, func() { got = append(got, fired{tm, i}) })
		}
		e.RunAll()
		sort.Float64s(times)
		if len(got) != count {
			return false
		}
		for i := range got {
			if got[i].tm != times[i] {
				return false
			}
			if i > 0 && got[i].tm == got[i-1].tm && got[i].seq < got[i-1].seq {
				return false // tie broken out of insertion order
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// reentrantRig drives an engine and a sorted-slice reference of its pending
// set through the same schedule and cancel calls.
type reentrantRig struct {
	t       *testing.T
	e       *Engine
	ref     []refEvent // pending, sorted by (at, seq)
	handles map[uint64]*Event
	nextSeq uint64
	fired   int
}

type refEvent struct {
	at  float64
	seq uint64
}

// schedule adds an event to both sides. When it fires it must be the
// reference's earliest, and then runs body.
func (r *reentrantRig) schedule(at float64, body func()) uint64 {
	seq := r.nextSeq
	r.nextSeq++
	ev := r.e.At(at, func() {
		r.fired++
		if len(r.ref) == 0 || r.ref[0] != (refEvent{r.e.Now(), seq}) {
			r.t.Fatalf("firing %d is (t=%g seq=%d), reference pending %v", r.fired, r.e.Now(), seq, r.ref)
		}
		r.ref = r.ref[1:]
		delete(r.handles, seq)
		if body != nil {
			body()
		}
	})
	if ev.seq != seq {
		r.t.Fatalf("engine assigned seq %d, rig expected %d", ev.seq, seq)
	}
	r.handles[seq] = ev
	r.ref = append(r.ref, refEvent{at, seq})
	sort.Slice(r.ref, func(i, j int) bool {
		a, b := r.ref[i], r.ref[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
	return seq
}

// cancel removes the i-th earliest pending event from both sides.
func (r *reentrantRig) cancel(i int) {
	if i >= len(r.ref) {
		return
	}
	seq := r.ref[i].seq
	r.ref = append(r.ref[:i], r.ref[i+1:]...)
	r.e.Cancel(r.handles[seq])
	delete(r.handles, seq)
}

func (r *reentrantRig) cancelSeq(seq uint64) {
	for i, p := range r.ref {
		if p.seq == seq {
			r.cancel(i)
			return
		}
	}
	r.t.Fatalf("seq %d is not pending", seq)
}

func (r *reentrantRig) checkPending() {
	if got := r.e.Pending(); got != len(r.ref) {
		r.t.Fatalf("after %d firings Pending() = %d, reference holds %d", r.fired, got, len(r.ref))
	}
}

// Handlers run between the heap's Pop and whatever queue call comes next,
// which is the window in which its root is vacant. Whatever a handler does
// there, both backends must fire the same (Time, seq) sequence as a sorted
// slice. Only the cases that say so read Pending() inside a handler: the
// reading itself closes the window.
func TestEngineReentrantHandlers(t *testing.T) {
	cases := []struct {
		name string
		act  func(r *reentrantRig)
	}{
		{"schedules nothing", func(r *reentrantRig) {}},
		{"schedules one earlier than everything pending", func(r *reentrantRig) {
			r.schedule(r.e.Now()+0.25, nil)
		}},
		{"schedules one at now", func(r *reentrantRig) {
			r.schedule(r.e.Now(), nil)
		}},
		{"schedules one later than everything pending", func(r *reentrantRig) {
			r.schedule(r.e.Now()+100, nil)
		}},
		{"schedules three", func(r *reentrantRig) {
			r.schedule(r.e.Now()+2.5, nil)
			r.schedule(r.e.Now()+0.25, nil)
			r.schedule(r.e.Now()+100, nil)
		}},
		{"cancels the earliest pending, then schedules", func(r *reentrantRig) {
			r.cancel(0)
			r.schedule(r.e.Now()+0.25, nil)
		}},
		{"cancels a middle pending, then schedules", func(r *reentrantRig) {
			r.cancel(len(r.ref) / 2)
			r.schedule(r.e.Now()+0.25, nil)
		}},
		{"schedules, then cancels the earliest other", func(r *reentrantRig) {
			r.schedule(r.e.Now()+0.25, nil)
			r.cancel(1)
		}},
		{"schedules, then cancels the latest pending", func(r *reentrantRig) {
			r.schedule(r.e.Now()+0.25, nil)
			r.cancel(len(r.ref) - 1)
		}},
		{"only cancels", func(r *reentrantRig) {
			r.cancel(len(r.ref) / 2)
		}},
		{"reads Pending before and after scheduling", func(r *reentrantRig) {
			r.checkPending()
			r.schedule(r.e.Now()+0.25, nil)
			r.checkPending()
		}},
		{"reads Pending after scheduling", func(r *reentrantRig) {
			r.schedule(r.e.Now()+0.25, nil)
			r.checkPending()
		}},
		{"cancels the event it just scheduled", func(r *reentrantRig) {
			r.cancelSeq(r.schedule(r.e.Now()+0.25, nil))
			r.checkPending()
		}},
	}
	engines := []struct {
		name string
		mk   func() *Engine
	}{{"heap", NewEngine}, {"calendar", NewEngineCalendar}}
	drivers := []struct {
		name string
		run  func(e *Engine)
	}{
		{"RunUntil", func(e *Engine) { e.RunUntil(1e6) }}, // Peek between events
		{"RunAll", (*Engine).RunAll},                      // Pop straight after Pop
	}
	for _, tc := range cases {
		for _, eng := range engines {
			for _, drv := range drivers {
				t.Run(tc.name+"/"+eng.name+"/"+drv.name, func(t *testing.T) {
					r := &reentrantRig{t: t, e: eng.mk(), handles: map[uint64]*Event{}}
					// Bystanders on a grid with a tie, deep enough for three
					// heap levels; the handler under test runs first, in the
					// middle, and last, when the queue is otherwise empty.
					for _, at := range []float64{3, 9, 1, 7, 12, 7, 2, 11, 4, 8, 6, 10} {
						r.schedule(at, nil)
					}
					for _, at := range []float64{0, 5, 5, 20} {
						r.schedule(at, func() { tc.act(r) })
					}
					r.checkPending()
					drv.run(r.e)
					r.checkPending()
					if len(r.ref) != 0 {
						t.Fatalf("%d firings, reference still holds %v", r.fired, r.ref)
					}
				})
			}
		}
	}
}
