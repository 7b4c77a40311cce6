package core

// WFQ implements capacity differentiation (§2.1) via self-clocked fair
// queueing (SCFQ), a standard packetized approximation of GPS: each packet
// receives a finish tag
//
//	F = max(V(t), F_prev) + L/w_i
//
// where V(t) is the virtual time (the finish tag of the packet in service)
// and w_i the class weight; packets are served in increasing tag order.
//
// The paper's point about this family (§2.1) — which the ablation
// experiments reproduce — is that static bandwidth shares make the *delay*
// ratios between classes depend on the class loads and burstiness, so
// capacity differentiation is controllable in bandwidth but not in delay.
//
// Retune replaces the weights. Finish tags already assigned keep their old
// spacing (per-class tags stay monotone, so FIFO within a class is
// untouched); packets enqueued after the retune are tagged with the new
// weights.
type WFQ struct {
	classQueues
	paramVec             // class weights
	tags     []floatRing // finish tags, parallel to each class FIFO
	last     []float64   // last assigned finish tag per class
	vtime    float64     // virtual time: tag of packet in (or last in) service
}

// NewWFQ returns an SCFQ scheduler with the given per-class weights
// (higher weight → larger bandwidth share).
func NewWFQ(weights []float64) *WFQ {
	ValidateSDPs(weights)
	n := len(weights)
	s := &WFQ{
		classQueues: newClassQueues(n),
		paramVec:    append(paramVec(nil), weights...),
		tags:        make([]floatRing, n),
		last:        make([]float64, n),
	}
	return s
}

// Name implements Scheduler.
func (s *WFQ) Name() string { return "WFQ" }

// Enqueue implements Scheduler.
func (s *WFQ) Enqueue(p *Packet, now float64) {
	start := s.vtime
	if s.last[p.Class] > start {
		start = s.last[p.Class]
	}
	tag := start + float64(p.Size)/s.paramVec[p.Class]
	s.last[p.Class] = tag
	s.push(p)
	s.tags[p.Class].Push(tag)
}

// Dequeue implements Scheduler.
func (s *WFQ) Dequeue(now float64) *Packet {
	best := -1
	var bestTag float64
	for i := range s.q {
		if s.q[i].Empty() {
			continue
		}
		tag := s.tags[i].Peek()
		// Ties favor the higher class (scan order + >=), matching the
		// convention used by WTP and BPR.
		if best == -1 || tag <= bestTag {
			best, bestTag = i, tag
		}
	}
	if best == -1 {
		return nil
	}
	s.tags[best].Pop()
	s.vtime = bestTag
	return s.pop(best)
}

// floatRing is a growable ring buffer of float64, mirroring fifo.
type floatRing struct {
	buf  []float64
	head int
	n    int
}

// Push appends v at the tail.
func (r *floatRing) Push(v float64) {
	if r.n == len(r.buf) {
		size := len(r.buf) * 2
		if size == 0 {
			size = 16
		}
		buf := make([]float64, size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// Pop removes and returns the head value; it panics on an empty ring.
func (r *floatRing) Pop() float64 {
	if r.n == 0 {
		panic("core: pop from empty floatRing")
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// Peek returns the head value; it panics on an empty ring.
func (r *floatRing) Peek() float64 {
	if r.n == 0 {
		panic("core: peek at empty floatRing")
	}
	return r.buf[r.head]
}

// Len returns the number of queued values.
func (r *floatRing) Len() int { return r.n }
