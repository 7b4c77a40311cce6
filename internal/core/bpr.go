package core

// BPR is the packetized Backlog-Proportional Rate scheduler (§4.1 and
// Appendix 3). The underlying fluid discipline distributes the link rate R
// over the backlogged queues so that
//
//	r_i(t)/r_j(t) = s_i·q_i(t) / (s_j·q_j(t))   with  Σ r_i(t) = R
//
// where q_i(t) is the byte backlog of class i. Heavily backlogged (i.e.
// recently underserved) classes automatically receive more rate, which is
// what makes the differentiation load-independent in heavy load; the
// long-term delay ratios tend to the inverse SDP ratios (Eq. 10).
//
// The packetization follows Appendix 3: a per-queue virtual service v_i
// approximates the fluid service the head packet of queue i would have
// received since it reached the head of the queue. Rates are re-solved only
// at departure epochs and held constant in between; at each epoch the
// scheduler transmits the head packet minimizing L_i − v_i (the one the
// fluid server would finish first), breaking ties in favor of the higher
// class.
//
// Retune replaces the SDPs; the fluid rates are re-solved from them at the
// next departure epoch, exactly as they would be after any backlog change.
type BPR struct {
	classQueues
	paramVec         // SDPs
	rate     float64 // link rate R, bytes per time unit

	v         []float64 // virtual service of each queue's head packet
	r         []float64 // service rates fixed at the last epoch
	lastEpoch float64
}

// NewBPR returns a packetized BPR scheduler with the given SDPs for a link
// of the given rate (bytes per time unit).
func NewBPR(sdp []float64, rate float64) *BPR {
	ValidateSDPs(sdp)
	if !(rate > 0) {
		panic("core: BPR requires a positive link rate")
	}
	n := len(sdp)
	s := &BPR{
		classQueues: newClassQueues(n),
		paramVec:    append(paramVec(nil), sdp...),
		rate:        rate,
		v:           make([]float64, n),
		r:           make([]float64, n),
	}
	return s
}

// Name implements Scheduler.
func (s *BPR) Name() string { return "BPR" }

// Rate returns the configured link rate in bytes per time unit.
func (s *BPR) Rate() float64 { return s.rate }

// SetRate updates the link rate distributed by the fluid split. Scenario
// harnesses call it when the simulated link's capacity changes mid-run
// (see link.Link.SetRate); rates in effect stay fixed until the next
// departure epoch, exactly like any other backlog change.
func (s *BPR) SetRate(rate float64) {
	if !(rate > 0) {
		panic("core: BPR requires a positive link rate")
	}
	s.rate = rate
}

// Enqueue implements Scheduler.
func (s *BPR) Enqueue(p *Packet, now float64) {
	wasEmpty := s.q[p.Class].Empty()
	s.push(p)
	if wasEmpty {
		// The packet reaches the head of its queue on arrival, so its
		// virtual service starts from zero (the t^{k-1} < a_i case of
		// Appendix 3). Its rate stays 0 until the next departure epoch.
		s.v[p.Class] = 0
		s.r[p.Class] = 0
	}
}

// Dequeue implements Scheduler.
func (s *BPR) Dequeue(now float64) *Packet {
	if s.total == 0 {
		s.lastEpoch = now
		return nil
	}

	// Integrate virtual service over (lastEpoch, now] with the rates
	// fixed at the previous epoch. Queues that were empty then carry
	// rate 0, so freshly headed packets accumulate nothing, as required.
	dt := now - s.lastEpoch
	if dt > 0 {
		for i := range s.v {
			if !s.q[i].Empty() && s.r[i] > 0 {
				s.v[i] += s.r[i] * dt
			}
		}
	}
	s.lastEpoch = now

	// Select the head packet the fluid server would complete first:
	// argmin over backlogged queues of remaining work L_i − v_i.
	// Ties favor the higher class (low-to-high scan with <=).
	best := -1
	var bestRem float64
	for i := range s.q {
		head := s.q[i].Peek()
		if head == nil {
			continue
		}
		rem := float64(head.Size) - s.v[i]
		if best == -1 || rem <= bestRem {
			best, bestRem = i, rem
		}
	}
	p := s.pop(best)
	// The next packet of the served queue reaches the head now.
	s.v[best] = 0

	// Re-solve the fluid rates (Eq. 8 + 9) over the byte backlogs that
	// remain after the departing packet moved to the transmitter; these
	// rates hold until the next departure epoch.
	var denom float64
	for i := range s.q {
		if !s.q[i].Empty() {
			denom += s.paramVec[i] * float64(s.bytes[i])
		}
	}
	for i := range s.r {
		if denom > 0 && !s.q[i].Empty() {
			s.r[i] = s.rate * s.paramVec[i] * float64(s.bytes[i]) / denom
		} else {
			s.r[i] = 0
		}
	}
	return p
}
