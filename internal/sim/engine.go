// Package sim implements a minimal deterministic discrete-event simulation
// engine: a simulation clock and a time-ordered event queue with stable
// (insertion-order) tie-breaking. Two interchangeable event structures are
// provided, with identical ordering semantics: a binary heap with inline
// keys whose Pop leaves the root for the next Push to fill (NewEngine, what
// every experiment runs on) and a Brown-style calendar queue
// (NewEngineCalendar). The calendar wins a hold model with thousands of
// pending events; as the engine under the paper's workloads it measured
// 56 % fewer simulated packets per second than the heap at ~5 pending
// events (one link) and 10 % fewer at ~80 (the 8-hop Study-B path).
//
// The engine is single-threaded by design. Determinism matters more than
// parallelism for reproducing the paper's experiments: two runs with the
// same seeds must produce bit-identical schedules.
package sim

import (
	"fmt"
	"math"
)

// Event is a unit of work executed at a simulated time instant.
//
// Event nodes are pooled: once an event fires (or is canceled) the engine
// recycles its node for a later At/AtFunc call, so steady-state scheduling
// performs no heap allocation. The handle returned by At is therefore valid
// only while the event is pending — callers may pass it to Cancel before the
// event fires, but must not retain or inspect it afterwards.
type Event struct {
	// Time is the absolute simulation time at which Run fires.
	Time float64
	// Run is the event body. It may schedule further events.
	Run func()

	// fn/arg are the closure-free form of Run used by AtFunc: fn is a
	// shared (typically package-level) function and arg its single
	// argument. Storing a pointer in an interface does not allocate, so
	// hot paths that would otherwise box a fresh closure per event pass a
	// static fn plus their receiver instead.
	fn  func(arg any)
	arg any

	seq uint64 // insertion sequence, breaks Time ties FIFO
	// index is the event's slot in the heap's entry slice (heapQueue.h), or
	// 0 if queued in a calendar; -1 once out. The heap rewrites it whenever
	// it moves the entry, and Remove trusts it only if h[index] is this event.
	index int
}

// Canceled reports whether Cancel was called on the event (or it already
// fired). A canceled event is removed from the queue immediately.
func (e *Event) Canceled() bool { return e.index < 0 }

// eventQueue is the time-ordered pending set. Implementations must pop in
// strict (Time, seq) order.
type eventQueue interface {
	Push(*Event)
	Pop() *Event
	Peek() *Event
	Remove(*Event) bool
	Len() int
}

// Engine owns the simulation clock and the pending event set.
// The zero value is not ready to use; call NewEngine.
type Engine struct {
	now    float64
	queue  eventQueue
	nextID uint64
	// Count of events executed so far; useful for progress accounting
	// and as a cheap sanity check in tests.
	executed uint64
	// free is the event-node free list: fired and canceled nodes are
	// recycled here so steady-state scheduling allocates nothing.
	free []*Event
}

// NewEngine returns an engine backed by the heap, with the clock at zero
// and no pending events.
func NewEngine() *Engine {
	return &Engine{queue: &heapQueue{}}
}

// NewEngineCalendar returns an engine backed by a calendar queue — the
// classic network-DES structure, amortized O(1) per operation for the
// near-uniform event spacing a loaded link produces.
func NewEngineCalendar() *Engine {
	return &Engine{queue: newCalendarQueue()}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }

// schedule validates t, takes a node from the free list (or allocates one),
// stamps its time and sequence, and inserts it into the queue. The caller
// fills in the body (Run or fn/arg) afterwards; nothing executes until Step.
func (e *Engine) schedule(t float64) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.Time = t
	ev.seq = e.nextID
	e.nextID++
	e.queue.Push(ev)
	return ev
}

// release returns a node that left the queue (fired or canceled) to the
// free list, clearing its body so recycled nodes never leak references.
func (e *Engine) release(ev *Event) {
	ev.Run, ev.fn, ev.arg = nil, nil, nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t and returns the event handle,
// which may be passed to Cancel while the event is pending. Scheduling in
// the past (t < Now) panics: it is always a logic error in a discrete-event
// model.
//
// The fn closure is allocated by the caller; per-event hot paths should use
// AtFunc, which takes a shared function plus one pointer argument and
// allocates nothing.
func (e *Engine) At(t float64, fn func()) *Event {
	ev := e.schedule(t)
	ev.Run = fn
	return ev
}

// After schedules fn to run d time units from now.
func (e *Engine) After(d float64, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// AtFunc schedules fn(arg) to run at absolute time t. Unlike At it boxes no
// closure: with a package-level fn and a pointer-typed arg the call is
// allocation-free, which is what the per-packet paths (source emission,
// link transmission completion) use.
func (e *Engine) AtFunc(t float64, fn func(arg any), arg any) *Event {
	ev := e.schedule(t)
	ev.fn = fn
	ev.arg = arg
	return ev
}

// AfterFunc schedules fn(arg) to run d time units from now; see AtFunc.
func (e *Engine) AfterFunc(d float64, fn func(arg any), arg any) *Event {
	return e.AtFunc(e.now+d, fn, arg)
}

// ticker is the closure-free state behind Every: a package-level fire
// function plus this record keeps periodic scheduling allocation-free after
// the first tick.
type ticker struct {
	engine *Engine
	period float64
	fn     func(arg any) bool
	arg    any
}

// tickerFire runs one tick and reschedules while fn keeps returning true.
func tickerFire(a any) {
	t := a.(*ticker)
	if t.fn(t.arg) {
		t.engine.AtFunc(t.engine.now+t.period, tickerFire, t)
	}
}

// Every schedules fn(arg) at start and then every period time units until
// fn returns false. It is the periodic-sampling primitive used by
// observability and chaos harnesses (telemetry snapshots, scenario
// monitors); like AtFunc it boxes no closure per tick.
func (e *Engine) Every(start, period float64, fn func(arg any) bool, arg any) {
	if !(period > 0) {
		panic(fmt.Sprintf("sim: Every period %g must be > 0", period))
	}
	e.AtFunc(start, tickerFire, &ticker{engine: e, period: period, fn: fn, arg: arg})
}

// Cancel removes a pending event so it will never run. Canceling an event
// that already fired (or was already canceled) is a no-op, but the handle
// must not be retained past the event's scheduled time: the engine recycles
// fired nodes, so a stale handle may alias a different pending event.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	if e.queue.Remove(ev) {
		ev.index = -1
		e.release(ev)
	}
}

// Step executes the single earliest pending event, advancing the clock to
// its time. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	ev := e.queue.Pop()
	if ev == nil {
		return false
	}
	e.now = ev.Time
	e.executed++
	// Copy the body out and recycle the node before running it, so events
	// scheduled by the body can reuse it immediately.
	run, fn, arg := ev.Run, ev.fn, ev.arg
	e.release(ev)
	if run != nil {
		run()
	} else {
		fn(arg)
	}
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event would fire strictly after horizon. The clock is left at the time of
// the last executed event (it does not jump forward on an empty queue).
func (e *Engine) RunUntil(horizon float64) {
	for {
		head := e.queue.Peek()
		if head == nil || head.Time > horizon {
			return
		}
		e.Step()
	}
}

// RunAll executes events until none remain. The caller is responsible for
// ensuring event generation terminates.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// heapEntry is one slot of the heap. The key is stored inline so a
// comparison reads the slice only, never the event node.
type heapEntry struct {
	t   float64
	seq uint64
	ev  *Event
}

func (a heapEntry) before(b heapEntry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// heapQueue is a binary min-heap on (Time, seq). Pop hands out the root and
// leaves its slot vacant: nearly every handler schedules exactly one
// successor, so the Push that follows drops it into the vacant root and
// sifts down — usually a level or two — where a classic pop would sift a
// far-future leaf all the way down and the push sift up again. Every other
// operation first settles the vacancy the classic way. The zero value is an
// empty queue.
type heapQueue struct {
	h      []heapEntry
	vacant bool // h[0] is the hole the last Pop left
}

func (q *heapQueue) Push(ev *Event) {
	e := heapEntry{t: ev.Time, seq: ev.seq, ev: ev}
	if q.vacant {
		q.vacant = false
		q.siftDown(0, e)
		return
	}
	q.h = append(q.h, heapEntry{})
	q.siftUp(len(q.h)-1, e)
}

func (q *heapQueue) Pop() *Event {
	q.settle()
	if len(q.h) == 0 {
		return nil
	}
	ev := q.h[0].ev
	ev.index = -1
	q.vacant = true
	return ev
}

func (q *heapQueue) Peek() *Event {
	q.settle()
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0].ev
}

func (q *heapQueue) Remove(ev *Event) bool {
	q.settle()
	if ev.index < 0 || ev.index >= len(q.h) || q.h[ev.index].ev != ev {
		return false
	}
	q.fill(ev.index)
	ev.index = -1
	return true
}

func (q *heapQueue) Len() int {
	q.settle()
	return len(q.h)
}

// settle closes the hole a Pop left at the root, if no Push filled it.
func (q *heapQueue) settle() {
	if q.vacant {
		q.vacant = false
		q.fill(0)
	}
}

// fill closes the hole at i with the last leaf, as a classic heap removal
// does.
func (q *heapQueue) fill(i int) {
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = heapEntry{}
	q.h = q.h[:n]
	if i == n {
		return // the hole was the last leaf
	}
	if i > 0 && last.before(q.h[(i-1)/2]) {
		q.siftUp(i, last)
	} else {
		q.siftDown(i, last)
	}
}

// siftUp places e at or above the hole at i.
func (q *heapQueue) siftUp(i int, e heapEntry) {
	h := q.h
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = e
	e.ev.index = i
}

// siftDown places e at or below the hole at i.
func (q *heapQueue) siftDown(i int, e heapEntry) {
	h := q.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].ev.index = i
		i = c
	}
	h[i] = e
	e.ev.index = i
}
