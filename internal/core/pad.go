package core

// PAD and HPD address the open question §7 poses — WTP and BPR drift from
// the proportional model in moderate load, so "it is interesting to know
// the form of an 'optimal proportional differentiation scheduler'". The
// authors' follow-up work (Dovrolis, Stiliadis, Ramanathan, IEEE/ACM ToN
// 10(1), 2002) answers with two schedulers implemented here as extensions:
//
//   - PAD (Proportional Average Delay) drives the *long-term* normalized
//     average delays together: it serves the backlogged class whose
//     running average delay, counting the head packet as if served now
//     and normalized by the DDP (equivalently multiplied by the SDP),
//     is largest. PAD meets the proportional model whenever it is
//     feasible — including moderate loads where WTP undershoots — but
//     has weak short-timescale behaviour.
//
//   - HPD (Hybrid Proportional Delay) mixes PAD's long-term normalized
//     average delay with WTP's instantaneous normalized waiting time,
//     p_i = g·w̃_i + (1−g)·d̃_i, retaining PAD's long-term accuracy and
//     most of WTP's short-timescale accuracy. g ≈ 0.875 is the
//     recommended operating point.
//
// Retune replaces the SDPs and deliberately keeps the departed-delay
// history (sum/count): PAD's normalized average is a long-run quantity,
// and resetting it on every controller step would turn each retune into a
// transient of its own.
type PAD struct {
	classQueues
	paramVec // SDPs
	// sum and count accumulate the delays of departed packets per
	// class.
	sum   []float64
	count []float64
}

// NewPAD returns a Proportional Average Delay scheduler with the given
// SDPs.
func NewPAD(sdp []float64) *PAD {
	ValidateSDPs(sdp)
	n := len(sdp)
	s := &PAD{
		classQueues: newClassQueues(n),
		paramVec:    append(paramVec(nil), sdp...),
		sum:         make([]float64, n),
		count:       make([]float64, n),
	}
	return s
}

// Name implements Scheduler.
func (s *PAD) Name() string { return "PAD" }

// Enqueue implements Scheduler.
func (s *PAD) Enqueue(p *Packet, now float64) { s.push(p) }

// normAvg returns class i's normalized average delay assuming its head
// packet (waiting w) were served now.
func (s *PAD) normAvg(i int, w float64) float64 {
	return (s.sum[i] + w) / (s.count[i] + 1) * s.paramVec[i]
}

// Dequeue implements Scheduler.
func (s *PAD) Dequeue(now float64) *Packet {
	best := -1
	var bestVal float64
	for i, q := range s.q {
		head := q.Peek()
		if head == nil {
			continue
		}
		v := s.normAvg(i, now-head.Arrival)
		if best == -1 || v >= bestVal {
			best, bestVal = i, v
		}
	}
	if best == -1 {
		return nil
	}
	p := s.pop(best)
	s.sum[best] += now - p.Arrival
	s.count[best]++
	return p
}

// HPD is the hybrid proportional delay scheduler: a convex combination of
// WTP's normalized head waiting time and PAD's normalized average delay.
// Like PAD's, its delay history survives a Retune.
type HPD struct {
	classQueues
	paramVec // SDPs
	g        float64
	sum      []float64
	count    []float64
}

// DefaultHPDG is the recommended mixing factor g.
const DefaultHPDG = 0.875

// NewHPD returns a hybrid proportional delay scheduler. g in [0,1] weights
// the WTP term (g=1 is pure WTP behaviour, g=0 pure PAD).
func NewHPD(sdp []float64, g float64) *HPD {
	ValidateSDPs(sdp)
	if g < 0 || g > 1 {
		panic("core: HPD g must be in [0,1]")
	}
	n := len(sdp)
	return &HPD{
		classQueues: newClassQueues(n),
		paramVec:    append(paramVec(nil), sdp...),
		g:           g,
		sum:         make([]float64, n),
		count:       make([]float64, n),
	}
}

// Name implements Scheduler.
func (s *HPD) Name() string { return "HPD" }

// G returns the mixing factor.
func (s *HPD) G() float64 { return s.g }

// Enqueue implements Scheduler.
func (s *HPD) Enqueue(p *Packet, now float64) { s.push(p) }

// Dequeue implements Scheduler.
func (s *HPD) Dequeue(now float64) *Packet {
	best := -1
	var bestVal float64
	for i, q := range s.q {
		head := q.Peek()
		if head == nil {
			continue
		}
		w := now - head.Arrival
		wtpTerm := w * s.paramVec[i]
		padTerm := (s.sum[i] + w) / (s.count[i] + 1) * s.paramVec[i]
		v := s.g*wtpTerm + (1-s.g)*padTerm
		if best == -1 || v >= bestVal {
			best, bestVal = i, v
		}
	}
	if best == -1 {
		return nil
	}
	p := s.pop(best)
	s.sum[best] += now - p.Arrival
	s.count[best]++
	return p
}
