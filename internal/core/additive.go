package core

// Additive is the additive delay differentiation scheduler sketched in §2.1
// (Eq. 3): a priority scheduler where the head packet of class i has
// priority
//
//	p_i(t) = w_i(t) + s_i
//
// Under heavy load it tends to an *additive* delay spacing
// d_i − d_j = s_j − s_i between classes, rather than the proportional
// spacing WTP produces. It is included as the paper's "interesting case of
// another relative differentiation model" for the ablation benches.
// Retune replaces the offset vector s.
type Additive struct {
	classQueues
	paramVec // additive offsets
}

// NewAdditive returns an additive-differentiation scheduler with the given
// per-class offsets (nondecreasing, strictly positive).
func NewAdditive(sdp []float64) *Additive {
	ValidateSDPs(sdp)
	s := &Additive{classQueues: newClassQueues(len(sdp))}
	s.paramVec = append(paramVec(nil), sdp...)
	return s
}

// Name implements Scheduler.
func (s *Additive) Name() string { return "Additive" }

// Enqueue implements Scheduler.
func (s *Additive) Enqueue(p *Packet, now float64) { s.push(p) }

// Dequeue implements Scheduler.
func (s *Additive) Dequeue(now float64) *Packet {
	best := -1
	var bestPri float64
	for i, q := range s.q {
		head := q.Peek()
		if head == nil {
			continue
		}
		pri := (now - head.Arrival) + s.paramVec[i]
		if best == -1 || pri >= bestPri {
			best, bestPri = i, pri
		}
	}
	if best == -1 {
		return nil
	}
	return s.pop(best)
}
