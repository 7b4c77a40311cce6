package netio

import "pdds/internal/core"

// pacer is the transmit decision with the clock taken out: the one scheduler,
// the merge of the shard rings into it, and a virtual egress link paced on an
// absolute clock — nextFree advances one transmission time per packet, so the
// shell's write time is paid out of link credit. Seconds on the epoch.
type pacer struct {
	sched    core.Scheduler
	rings    []*spscRing // shard → transmitter, each stamp-sorted
	rate     float64     // bytes per second
	nextFree float64     // when the virtual link frees
	idle     bool        // the last serve found nothing queued
}

func newPacer(sched core.Scheduler, rings []*spscRing, rate float64) *pacer {
	return &pacer{sched: sched, rings: rings, rate: rate, idle: true}
}

// admit merges every published packet into the scheduler, smallest-stamped
// ring head first (ties to the lower shard), so it sees the sequence one
// ingress socket would have produced (DESIGN.md §3h), and reports whether
// anything is queued.
func (c *pacer) admit() bool {
	for {
		var from *spscRing
		var next *core.Packet
		for _, r := range c.rings {
			if p := r.Peek(); p != nil && (next == nil || p.Arrival < next.Arrival) {
				from, next = r, p
			}
		}
		if next == nil {
			return c.sched.Backlogged()
		}
		from.advance()
		c.sched.Enqueue(next, next.Arrival)
	}
}

// serve admits and takes the next packet at now; nil when nothing is queued.
// Credit accrues only within a busy period: an empty serve ends it.
func (c *pacer) serve(now float64) *core.Packet {
	if !c.admit() {
		c.idle = true
		return nil
	}
	return c.take(now)
}

// take dequeues at now (priorities are evaluated at service time), stamps
// Start and advances the link; serve or extend has just admitted a backlog.
func (c *pacer) take(now float64) *core.Packet {
	p := c.sched.Dequeue(now)
	p.Start = now
	if c.idle && c.nextFree < now {
		c.nextFree = now
	}
	c.idle = false
	c.nextFree += float64(p.Size) / c.rate
	return p
}

// extend reports whether a batch may take again at now: the link is behind
// and a backlog is admitted. Unlike serve, running dry here keeps the credit.
func (c *pacer) extend(now float64) bool { return now > c.nextFree && c.admit() }

// wake returns when the next packet is due; a shell past it is behind.
func (c *pacer) wake() float64 { return c.nextFree }
