package core

import "fmt"

// Scheduler is a work-conserving multi-class packet scheduler. A link
// harness calls Enqueue on packet arrival and Dequeue each time the output
// link becomes free; Dequeue picks the next packet to transmit according to
// the discipline and returns nil when no packet is backlogged.
//
// Schedulers are not safe for concurrent use; the simulation engine is
// single-threaded and the real-network forwarder serializes access.
type Scheduler interface {
	// Name returns the discipline's short name (e.g. "WTP").
	Name() string
	// NumClasses returns the number of service classes N.
	NumClasses() int
	// Enqueue adds p to its class queue at time now.
	Enqueue(p *Packet, now float64)
	// Dequeue removes and returns the packet to transmit next at time
	// now, or nil if all queues are empty.
	Dequeue(now float64) *Packet
	// Backlogged reports whether any packet is queued.
	Backlogged() bool
	// Len returns the number of packets queued in class i.
	Len(i int) int
	// Bytes returns the byte backlog of class i.
	Bytes(i int) int64
}

// Kind names a scheduler discipline for construction by configuration.
type Kind string

// Supported scheduler kinds.
const (
	KindWTP      Kind = "wtp"      // Waiting-Time Priority (§4.2)
	KindBPR      Kind = "bpr"      // Backlog-Proportional Rate (§4.1, Appendix 3)
	KindFCFS     Kind = "fcfs"     // single shared FIFO (reference server)
	KindStrict   Kind = "strict"   // strict prioritization (§2.1)
	KindWFQ      Kind = "wfq"      // capacity differentiation via fair queueing (§2.1)
	KindAdditive Kind = "additive" // additive delay differentiation (§2.1, Eq. 3)
	KindPAD      Kind = "pad"      // proportional average delay (§7 follow-up)
	KindHPD      Kind = "hpd"      // hybrid WTP/PAD (§7 follow-up)
	KindDRR      Kind = "drr"      // deficit round robin (capacity differentiation)
	KindIWRR     Kind = "iwrr"     // interleaved weighted round robin (capacity differentiation)
	KindPF       Kind = "pf"       // EWMA proportional fair (capacity differentiation)
)

// Kinds lists every supported scheduler kind.
func Kinds() []Kind {
	return []Kind{KindWTP, KindBPR, KindFCFS, KindStrict, KindWFQ, KindAdditive, KindPAD, KindHPD, KindDRR, KindIWRR, KindPF}
}

// New constructs a scheduler of the given kind for len(sdp) classes.
//
// The SDP slice is interpreted per discipline: WTP/BPR/additive use it as
// the paper's scheduler differentiation parameters; WFQ uses it as the
// per-class service weights; FCFS and strict priority only use its length.
// rate is the output link rate in bytes per time unit (needed by BPR to
// split service among backlogged queues; ignored by the others). Invalid
// SDPs (see CheckSDPs) are an error, whatever the kind.
func New(kind Kind, sdp []float64, rate float64) (Scheduler, error) {
	if err := CheckSDPs(sdp); err != nil {
		return nil, err
	}
	switch kind {
	case KindWTP:
		return NewWTP(sdp), nil
	case KindBPR:
		return NewBPR(sdp, rate), nil
	case KindFCFS:
		return NewFCFS(len(sdp)), nil
	case KindStrict:
		return NewStrict(len(sdp)), nil
	case KindWFQ:
		return NewWFQ(sdp), nil
	case KindAdditive:
		return NewAdditive(sdp), nil
	case KindPAD:
		return NewPAD(sdp), nil
	case KindHPD:
		return NewHPD(sdp, DefaultHPDG), nil
	case KindDRR:
		return NewDRR(sdp), nil
	case KindIWRR:
		return NewIWRR(sdp), nil
	case KindPF:
		return NewPF(sdp), nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler kind %q", kind)
	}
}

// classQueues is the shared per-class FIFO state embedded by every
// discipline except FCFS.
type classQueues struct {
	q     []fifo
	bytes []int64
	total int
}

func newClassQueues(n int) classQueues {
	ValidateClasses(n)
	return classQueues{q: make([]fifo, n), bytes: make([]int64, n)}
}

func (c *classQueues) push(p *Packet) {
	if p.Class < 0 || p.Class >= len(c.q) {
		panic(fmt.Sprintf("core: packet class %d out of range [0,%d)", p.Class, len(c.q)))
	}
	c.q[p.Class].Push(p)
	c.bytes[p.Class] += p.Size
	c.total++
}

func (c *classQueues) pop(i int) *Packet {
	p := c.q[i].Pop()
	if p != nil {
		c.bytes[i] -= p.Size
		c.total--
	}
	return p
}

// NumClasses returns the class count.
func (c *classQueues) NumClasses() int { return len(c.q) }

// Backlogged reports whether any class queue is nonempty.
func (c *classQueues) Backlogged() bool { return c.total > 0 }

// Len returns the packet count of class i.
func (c *classQueues) Len(i int) int { return c.q[i].Len() }

// Bytes returns the byte backlog of class i.
func (c *classQueues) Bytes(i int) int64 { return c.bytes[i] }
