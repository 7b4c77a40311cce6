// Package link drives a core.Scheduler as the output queue of a simulated
// work-conserving transmission link, and provides the single-link
// experiment harness used throughout Study A (§5).
package link

import (
	"fmt"

	"pdds/internal/core"
	"pdds/internal/sim"
	"pdds/internal/telemetry"
)

// Link is a work-conserving output link: arriving packets enter the
// scheduler; whenever the transmitter is free and a packet is backlogged,
// the scheduler picks one and the link transmits it at Rate bytes per time
// unit. Infinite buffering is the paper's §3 lossless model (ECN-governed
// sources); set MaxPackets for the finite-buffer extension.
type Link struct {
	engine *sim.Engine
	rate   float64
	sched  core.Scheduler

	// OnDepart, if set, observes every packet as its transmission
	// completes (Start/Departure/QueueingDelay already filled in).
	OnDepart func(*core.Packet)

	// MaxPackets bounds the total queued packets (0 = unbounded). On
	// overflow the victim is chosen by Dropper if set (push-out PLR
	// policy), else the arriving packet is dropped (drop-tail).
	MaxPackets int
	// Dropper selects overflow victims (proportional or strict loss
	// differentiation); optional.
	Dropper core.DropPolicy
	// OnDrop, if set, observes dropped packets.
	OnDrop func(*core.Packet)

	// Telemetry, if set, receives per-class arrival/departure/drop
	// counts and queueing-delay samples for every packet (live
	// observability; see internal/telemetry). Each event costs one
	// branch when unset.
	Telemetry *telemetry.Registry

	// Pool, if set, receives every packet this link terminates — after
	// OnDepart returns for departures, after OnDrop returns for drops —
	// so the per-packet hot path recycles instead of allocating. Set it
	// only when this link is the packet's last stop: multi-hop harnesses
	// that forward packets onward from OnDepart must leave it nil and
	// recycle at the path's exit points instead. Callbacks must not
	// retain the *Packet (see core.PacketPool).
	Pool *core.PacketPool

	busy      bool
	busySince float64
	busyTime  float64
	departed  uint64
	dropped   uint64
	txBytes   int64
	inflight  *core.Packet
}

// New returns a link on the engine with the given rate (bytes per time
// unit) and scheduler.
func New(engine *sim.Engine, rate float64, sched core.Scheduler) *Link {
	if engine == nil || sched == nil {
		panic("link: nil engine or scheduler")
	}
	if !(rate > 0) {
		panic(fmt.Sprintf("link: rate %g must be > 0", rate))
	}
	return &Link{engine: engine, rate: rate, sched: sched}
}

// Rate returns the link rate in bytes per time unit.
func (l *Link) Rate() float64 { return l.rate }

// SetRate changes the link rate, effective for transmissions started after
// the call; a transmission already in flight completes at the old rate
// (its completion event is scheduled). Chaos/scenario harnesses use it to
// model capacity changes (rerouting, rate renegotiation) mid-run. Rate-
// aware schedulers (BPR's fluid split) are informed through their own
// SetRate.
func (l *Link) SetRate(rate float64) {
	if !(rate > 0) {
		panic(fmt.Sprintf("link: rate %g must be > 0", rate))
	}
	l.rate = rate
	if ra, ok := l.sched.(interface{ SetRate(float64) }); ok {
		ra.SetRate(rate)
	}
}

// Scheduler returns the attached scheduler.
func (l *Link) Scheduler() core.Scheduler { return l.sched }

// Departed returns the number of completed transmissions.
func (l *Link) Departed() uint64 { return l.departed }

// Dropped returns the number of packets lost to buffer overflow.
func (l *Link) Dropped() uint64 { return l.dropped }

// BusyTime returns the cumulative transmitter busy time (updated through
// the current instant).
func (l *Link) BusyTime() float64 { return l.BusyTimeAt(l.engine.Now()) }

// BusyTimeAt returns the cumulative transmitter busy time through instant
// t, counting a transmission in flight up to t; t must not precede the
// link's last event. It measures links that run on separate engines
// against one common end instant.
func (l *Link) BusyTimeAt(t float64) float64 {
	if l.busy {
		return l.busyTime + (t - l.busySince)
	}
	return l.busyTime
}

// Utilization returns BusyTime divided by elapsed simulation time.
func (l *Link) Utilization() float64 {
	now := l.engine.Now()
	if now == 0 {
		return 0
	}
	return l.BusyTime() / now
}

// TxBytes returns the total bytes transmitted.
func (l *Link) TxBytes() int64 { return l.txBytes }

// Busy reports whether a transmission is in progress.
func (l *Link) Busy() bool { return l.busy }

// Arrive delivers a packet to the link at the current simulation time.
// It restamps the packet's hop-local Arrival, so the same packet object can
// traverse multiple links (Study B).
func (l *Link) Arrive(p *core.Packet) {
	now := l.engine.Now()
	p.Arrival = now
	if l.Telemetry != nil {
		l.Telemetry.Arrival(p.Class, p.Size, now)
	}
	if l.Dropper != nil {
		l.Dropper.RecordArrival(p.Class)
	}
	if l.MaxPackets > 0 && l.totalQueued() >= l.MaxPackets {
		l.drop(p)
		return
	}
	l.sched.Enqueue(p, now)
	if !l.busy {
		l.startService()
	}
}

func (l *Link) totalQueued() int {
	total := 0
	for i := 0; i < l.sched.NumClasses(); i++ {
		total += l.sched.Len(i)
	}
	return total
}

// drop handles a buffer overflow for arriving packet p.
func (l *Link) drop(p *core.Packet) {
	victim := p
	if l.Dropper != nil {
		class := l.Dropper.Victim(l.sched, p.Class)
		if class != p.Class {
			if td, ok := l.sched.(core.TailDropper); ok {
				if evicted := td.DropTail(class); evicted != nil {
					// Push out the victim and admit p.
					l.sched.Enqueue(p, l.engine.Now())
					victim = evicted
				}
			}
		}
		l.Dropper.RecordLoss(victim.Class)
	}
	l.dropped++
	if l.Telemetry != nil {
		l.Telemetry.Drop(victim.Class, l.engine.Now())
	}
	if l.OnDrop != nil {
		l.OnDrop(victim)
	}
	wasVictimArriving := victim == p
	if l.Pool != nil {
		l.Pool.Put(victim)
	}
	if !wasVictimArriving && !l.busy {
		l.startService()
	}
}

// linkFinish is the shared transmission-completion event body: a
// package-level func with the *Link as argument, so completing a packet
// schedules no closure (see sim.AtFunc). A link transmits at most one
// packet at a time, so the in-flight packet lives in the Link itself.
func linkFinish(arg any) { arg.(*Link).finish() }

func (l *Link) startService() {
	now := l.engine.Now()
	p := l.sched.Dequeue(now)
	if p == nil {
		return
	}
	l.busy = true
	l.busySince = now
	p.Start = now
	l.inflight = p
	txTime := float64(p.Size) / l.rate
	l.engine.AfterFunc(txTime, linkFinish, l)
}

func (l *Link) finish() {
	p := l.inflight
	l.inflight = nil
	now := l.engine.Now()
	p.Departure = now
	p.QueueingDelay += p.Wait()
	p.Hops++
	l.departed++
	l.txBytes += p.Size
	l.busyTime += now - l.busySince
	l.busy = false
	if l.Telemetry != nil {
		l.Telemetry.Departure(p.Class, p.Size, now, p.Wait())
	}
	if l.OnDepart != nil {
		l.OnDepart(p)
	}
	if l.Pool != nil {
		l.Pool.Put(p)
	}
	if l.sched.Backlogged() {
		l.startService()
	}
}
