// Package conformance is a reusable invariant-checking harness for the
// packet schedulers in internal/core. It exists so that every scheduler —
// WTP, BPR, FCFS, strict, WFQ/SCFQ, DRR, additive, PAD and HPD — can be
// driven through the same seeded traffic scenarios while a set of observers
// verifies, on every enqueue and dequeue event, the properties the paper's
// analysis takes for granted:
//
//   - Work conservation: the server never idles while any class is
//     backlogged (the premise of the conservation law, Eq. 5).
//   - Intra-class FIFO order: within a class, packets depart in arrival
//     order (assumed throughout §3-§4).
//   - Packet conservation: no packet is lost, invented, or served twice,
//     and the scheduler's own Len/Bytes accounting matches an
//     independently maintained mirror of its contents.
//   - WTP selection: each dequeue serves the maximum normalized-waiting-
//     time packet (§4.2), verified against a brute-force scan of every
//     queued packet (see WTPOracle).
//   - BPR packetization: the packetized Appendix-3 service tracks the
//     fluid Backlog-Proportional Rate reference of §4.1 within a stated
//     tolerance (see BPRFluidObserver).
//
// The harness runs every scenario through link.RunWithScheduler, the code
// the experiments ship, and records compact deterministic event traces (see
// Opts.TraceWriter) that are committed as golden files and compared
// byte-for-byte in CI, turning figure-driving simulation runs into
// regression tests.
//
// The structural invariants mirror the per-packet service bounds derived in
// the round-robin analysis literature (Tabatabaee et al., "Interleaved
// Weighted Round-Robin: A Network Calculus Analysis"; Boyer et al.'s DRR
// service curves): each is a property checkable on every event of a single
// run, which is what lets a hot-path rewrite prove it changed speed, not
// semantics.
package conformance

import (
	"fmt"

	"pdds/internal/core"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Observer names the check that fired (e.g. "fifo", "wtp-oracle").
	Observer string
	// Time is the simulation time of the offending event.
	Time float64
	// Msg describes the breach.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%g: %s", v.Observer, v.Time, v.Msg)
}

// maxViolationsPerCheck caps recorded violations per named check so a
// systematically broken scheduler reports a readable sample, not millions
// of lines.
const maxViolationsPerCheck = 16

// recorder accumulates violations with per-check capping.
type recorder struct {
	violations []Violation
	perCheck   map[string]int
	suppressed int
}

func newRecorder() *recorder {
	return &recorder{perCheck: make(map[string]int)}
}

func (r *recorder) addf(check string, now float64, format string, args ...any) {
	if r.perCheck[check] >= maxViolationsPerCheck {
		r.suppressed++
		return
	}
	r.perCheck[check]++
	r.violations = append(r.violations, Violation{
		Observer: check,
		Time:     now,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Observer checks scheduler invariants as the harness replays a scenario.
// Implementations record violations internally and report them via
// Violations once the run finishes.
//
// The *State passed to each hook is the harness's independent mirror of the
// scheduler contents: on OnEnqueue it already includes p, on OnDequeue it
// still includes p (the state the scheduler chose from). Observers must not
// retain it across calls.
type Observer interface {
	// Name identifies the observer in violation reports.
	Name() string
	// OnEnqueue fires after packet p entered the scheduler at time now.
	OnEnqueue(now float64, p *core.Packet, st *State)
	// OnDequeue fires when the scheduler selected p at time now, before
	// p is removed from the mirror state.
	OnDequeue(now float64, p *core.Packet, st *State)
	// Done fires once at the end of the run with the final state.
	Done(st *State)
	// Violations returns everything the observer found.
	Violations() []Violation
}

// State is a read-only mirror of the scheduler's per-class FIFO contents,
// maintained by the harness independently of the scheduler under test so
// checks never trust the implementation they are checking.
type State struct {
	q        []shadowQueue
	bytes    []int64
	total    int
	enqueued uint64
	dequeued uint64
}

// shadowQueue is a minimal FIFO of packets (head-indexed slice).
type shadowQueue struct {
	buf  []*core.Packet
	head int
}

func (s *shadowQueue) len() int { return len(s.buf) - s.head }

func (s *shadowQueue) push(p *core.Packet) { s.buf = append(s.buf, p) }

func (s *shadowQueue) at(i int) *core.Packet { return s.buf[s.head+i] }

func (s *shadowQueue) pop() *core.Packet {
	p := s.buf[s.head]
	s.buf[s.head] = nil
	s.head++
	if s.head == len(s.buf) {
		s.buf = s.buf[:0]
		s.head = 0
	}
	return p
}

// removeAt deletes the i-th packet from the head (used only to keep the
// mirror coherent after a FIFO violation was already reported).
func (s *shadowQueue) removeAt(i int) {
	idx := s.head + i
	copy(s.buf[idx:], s.buf[idx+1:])
	s.buf = s.buf[:len(s.buf)-1]
}

func newState(n int) *State {
	return &State{q: make([]shadowQueue, n), bytes: make([]int64, n)}
}

// NumClasses returns the class count.
func (st *State) NumClasses() int { return len(st.q) }

// Len returns the mirrored packet count of class i.
func (st *State) Len(i int) int { return st.q[i].len() }

// Total returns the mirrored packet count over all classes.
func (st *State) Total() int { return st.total }

// Bytes returns the mirrored byte backlog of class i.
func (st *State) Bytes(i int) int64 { return st.bytes[i] }

// Head returns the oldest queued packet of class i, or nil if none.
func (st *State) Head(i int) *core.Packet {
	if st.q[i].len() == 0 {
		return nil
	}
	return st.q[i].at(0)
}

// At returns the j-th packet from the head of class i (0 = head).
func (st *State) At(i, j int) *core.Packet { return st.q[i].at(j) }

// Enqueued returns the total packets that entered the scheduler.
func (st *State) Enqueued() uint64 { return st.enqueued }

// Dequeued returns the total packets the scheduler served.
func (st *State) Dequeued() uint64 { return st.dequeued }

func (st *State) push(p *core.Packet) {
	st.q[p.Class].push(p)
	st.bytes[p.Class] += p.Size
	st.total++
	st.enqueued++
}

// remove deletes the j-th packet of class i from the mirror.
func (st *State) remove(i, j int) {
	p := st.q[i].at(j)
	if j == 0 {
		st.q[i].pop()
	} else {
		st.q[i].removeAt(j)
	}
	st.bytes[i] -= p.Size
	st.total--
	st.dequeued++
}

// find locates packet p in class i's mirror queue, returning its position
// from the head or -1.
func (st *State) find(i int, p *core.Packet) int {
	for j := 0; j < st.q[i].len(); j++ {
		if st.q[i].at(j) == p {
			return j
		}
	}
	return -1
}
