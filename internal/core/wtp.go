package core

// WTP is the Waiting-Time Priority scheduler (§4.2), Kleinrock's
// Time-Dependent Priorities discipline: at each service-selection instant t
// the head packet of each backlogged class i has priority
//
//	p_i(t) = w_i(t) · s_i
//
// where w_i(t) is that packet's waiting time and s_i the class's Scheduler
// Differentiation Parameter. The packet with the highest priority is served;
// ties are broken in favor of the higher class. Under heavy load the
// long-term average class delays satisfy d_i/d_j → s_j/s_i (Eq. 10/13), i.e.
// WTP approximates the proportional differentiation model with DDP ratios
// equal to the inverse SDP ratios.
//
// The selection scan is O(N) per departure as discussed in §4.2. Retune
// replaces the SDP vector: queued packets keep their positions and future
// selection scans use the new priorities.
type WTP struct {
	classQueues
	paramVec // SDPs
}

// NewWTP returns a WTP scheduler with the given SDPs
// (one per class, nondecreasing, strictly positive).
func NewWTP(sdp []float64) *WTP {
	ValidateSDPs(sdp)
	s := &WTP{classQueues: newClassQueues(len(sdp))}
	s.paramVec = append(paramVec(nil), sdp...)
	return s
}

// Name implements Scheduler.
func (s *WTP) Name() string { return "WTP" }

// SDP returns the scheduler differentiation parameter of class i.
func (s *WTP) SDP(i int) float64 { return s.paramVec[i] }

// Enqueue implements Scheduler.
func (s *WTP) Enqueue(p *Packet, now float64) { s.push(p) }

// Dequeue implements Scheduler.
func (s *WTP) Dequeue(now float64) *Packet {
	best := s.selectClass(now)
	if best == -1 {
		return nil
	}
	return s.pop(best)
}

// selectClass runs the §4.2 selection scan: the backlogged class whose head
// packet has the highest waiting-time priority, or -1 when all queues are
// empty.
func (s *WTP) selectClass(now float64) int {
	best, bestPri := -1, 0.0
	for i, q := range s.q {
		head := q.Peek()
		if head == nil {
			continue
		}
		pri := (now - head.Arrival) * s.paramVec[i]
		// >= implements "ties favor the higher class" because the scan
		// runs from the lowest class upward.
		if best == -1 || pri >= bestPri {
			best, bestPri = i, pri
		}
	}
	return best
}
