package core

// FCFS is a single shared first-come-first-served queue. It ignores class
// except for bookkeeping. FCFS is the reference "work-conserving FCFS
// server" of the conservation law (Eq. 5) and of the feasibility conditions
// (Eq. 7): simulating it on the aggregate (or a subset) of the traffic
// yields the d̄(λ) terms.
type FCFS struct {
	n     int
	q     fifo
	bytes []int64
	count []int
}

// NewFCFS returns a FCFS scheduler that accepts classes 0..n-1.
func NewFCFS(n int) *FCFS {
	ValidateClasses(n)
	return &FCFS{n: n, bytes: make([]int64, n), count: make([]int, n)}
}

// Name implements Scheduler.
func (s *FCFS) Name() string { return "FCFS" }

// NumClasses implements Scheduler.
func (s *FCFS) NumClasses() int { return s.n }

// Enqueue implements Scheduler.
func (s *FCFS) Enqueue(p *Packet, now float64) {
	if p.Class < 0 || p.Class >= s.n {
		panic("core: FCFS packet class out of range")
	}
	s.q.Push(p)
	s.bytes[p.Class] += p.Size
	s.count[p.Class]++
}

// Dequeue implements Scheduler.
func (s *FCFS) Dequeue(now float64) *Packet {
	p := s.q.Pop()
	if p != nil {
		s.bytes[p.Class] -= p.Size
		s.count[p.Class]--
	}
	return p
}

// Backlogged implements Scheduler.
func (s *FCFS) Backlogged() bool { return s.q.Len() > 0 }

// Len implements Scheduler.
func (s *FCFS) Len(i int) int { return s.count[i] }

// Bytes implements Scheduler.
func (s *FCFS) Bytes(i int) int64 { return s.bytes[i] }
