package core

// PF is an EWMA proportional-fair scheduler, the packet-queue analog of
// the classic cellular proportional-fair downlink rule: at each selection
// instant the backlogged class maximizing
//
//	p_i = w_i · L_i / R_i
//
// is served, where L_i is the head packet's size (the "instantaneous
// rate" the class achieves if scheduled now), w_i the class's QoS weight,
// and R_i an exponentially weighted moving average of the bytes the class
// actually received per selection slot:
//
//	R_i ← (1 − 1/T)·R_i + served_i·(1/T)·L_i
//
// with time scale T slots. Classes that have been underserved relative to
// their weight see their R_i decay and their priority rise, so long-run
// byte shares among continuously backlogged classes converge to the
// weight proportions — class-level Discriminatory Processor Sharing
// behaviour, which is what internal/model's DPS fluid reference tests it
// against. Like the other capacity-differentiation members (WFQ, DRR,
// IWRR) the resulting *delay* ratios drift with class loads; PF's
// distinguishing feature is the memory: after an idle spell a returning
// class briefly catches up, where DRR and WFQ restart it from scratch.
//
// Retune replaces the weights while the EWMA state carries over, so a
// controller step shifts the equilibrium shares without forgetting who was
// recently served.
type PF struct {
	classQueues
	paramVec           // per-class QoS weights (SDP-style, nondecreasing)
	ltRate   []float64 // EWMA long-term served bytes per selection slot
	tScale   float64
}

// DefaultPFTimeScale is the EWMA horizon in selection slots. A few
// hundred slots spans many paper-size packets, long enough to smooth
// per-packet size noise and short enough to track class-mix shifts
// within a chaos segment.
const DefaultPFTimeScale = 256

// pfFloor bounds the EWMA rate away from zero so priorities stay finite
// after arbitrarily long idle decay.
const pfFloor = 1e-6

// NewPF returns a proportional-fair scheduler with the given per-class
// weights (nondecreasing, strictly positive).
func NewPF(weights []float64) *PF {
	ValidateSDPs(weights)
	n := len(weights)
	s := &PF{
		classQueues: newClassQueues(n),
		paramVec:    append(paramVec(nil), weights...),
		ltRate:      make([]float64, n),
		tScale:      DefaultPFTimeScale,
	}
	for i := range s.ltRate {
		// Start every class at the floor: the first selections go to the
		// highest-weight backlogged class, then the EWMA takes over.
		s.ltRate[i] = pfFloor
	}
	return s
}

// Name implements Scheduler.
func (s *PF) Name() string { return "PF" }

// Weights returns the per-class QoS weights.
func (s *PF) Weights() []float64 { return s.paramVec }

// Enqueue implements Scheduler.
func (s *PF) Enqueue(p *Packet, now float64) { s.push(p) }

// Dequeue implements Scheduler: serve the backlogged class with the
// highest weighted instantaneous-to-average rate ratio, ties favoring the
// higher class (low-to-high scan with >=), then roll every class's EWMA
// forward one slot.
func (s *PF) Dequeue(now float64) *Packet {
	best := -1
	var bestPri float64
	for i, q := range s.q {
		head := q.Peek()
		if head == nil {
			continue
		}
		pri := s.paramVec[i] * float64(head.Size) / s.ltRate[i]
		if best == -1 || pri >= bestPri {
			best, bestPri = i, pri
		}
	}
	if best == -1 {
		return nil
	}
	p := s.pop(best)
	decay := 1 - 1/s.tScale
	for i := range s.ltRate {
		s.ltRate[i] *= decay
		if s.ltRate[i] < pfFloor {
			s.ltRate[i] = pfFloor
		}
	}
	s.ltRate[best] += float64(p.Size) / s.tScale
	return p
}
