package telemetry

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ClassMetrics is the per-class instrument set: event counters plus the
// queueing-delay histogram. All fields are updated atomically.
type ClassMetrics struct {
	Arrivals      atomic.Uint64
	Departures    atomic.Uint64
	Drops         atomic.Uint64
	ArrivedBytes  atomic.Uint64
	DepartedBytes atomic.Uint64
	Delay         Histogram
}

// Registry is the root of the telemetry subsystem: one ClassMetrics per
// service class plus the DDP targets the observed ratios are judged
// against. A nil *Registry is a valid "telemetry disabled" value for every
// method, so instrumentation points can call through unconditionally or
// guard with a single nil check.
//
// Ordering contract: instrumented systems must record a packet's Arrival
// strictly before its matching Departure or Drop (the simulation engine
// does so by construction; the UDP forwarder records both under its queue
// mutex). Counter-derived backlogs (arrivals − departures − drops) are
// only meaningful under this contract — ClassSnapshot.Backlog clamps an
// underflow to 0 rather than reporting a transient lie.
type Registry struct {
	classes []ClassMetrics
	names   []string  // optional class labels, set via SetClassNames
	target  []float64 // target adjacent ratio: delay(i)/delay(i+1) = SDP[i+1]/SDP[i]
	started time.Time

	// OnEnqueue, OnDequeue and OnDrop, if non-nil, observe every event
	// after the counters update: class index, event time in the
	// caller's time base, and (for OnDequeue) the recorded queueing
	// delay. They run synchronously on the hot path — keep them cheap.
	// When nil (the default) each instrumented event costs exactly one
	// extra branch.
	OnEnqueue func(class int, now float64)
	OnDequeue func(class int, now, delay float64)
	OnDrop    func(class int, now float64)
}

// New returns a registry for n classes with no ratio targets.
func New(n int) *Registry {
	if n < 1 {
		panic(fmt.Sprintf("telemetry: class count %d must be >= 1", n))
	}
	return &Registry{classes: make([]ClassMetrics, n), started: time.Now()}
}

// NewWithSDP returns a registry whose ratio targets derive from scheduler
// differentiation parameters: the proportional model pins
// delay(i)/delay(i+1) to SDP[i+1]/SDP[i].
func NewWithSDP(sdp []float64) *Registry {
	r := New(len(sdp))
	if len(sdp) > 1 {
		r.target = make([]float64, len(sdp)-1)
		for i := 0; i+1 < len(sdp); i++ {
			if sdp[i] > 0 {
				r.target[i] = sdp[i+1] / sdp[i]
			}
		}
	}
	return r
}

// SetClassNames labels the classes (typically from a traffic-class
// config) so snapshots and the metrics endpoints identify them by name.
// No-op on a nil registry; names must cover every class.
func (r *Registry) SetClassNames(names []string) {
	if r == nil {
		return
	}
	if len(names) != len(r.classes) {
		panic(fmt.Sprintf("telemetry: %d names for %d classes", len(names), len(r.classes)))
	}
	r.names = append([]string(nil), names...)
}

// NumClasses returns the class count (0 for a nil registry).
func (r *Registry) NumClasses() int {
	if r == nil {
		return 0
	}
	return len(r.classes)
}

// Class returns class i's metrics for direct inspection.
func (r *Registry) Class(i int) *ClassMetrics { return &r.classes[i] }

// TargetRatios returns the configured adjacent-class delay ratio targets
// (nil when none were configured).
func (r *Registry) TargetRatios() []float64 {
	if r == nil {
		return nil
	}
	return r.target
}

// Arrival records a packet of the given size entering class's queue.
// No-op on a nil registry or out-of-range class.
func (r *Registry) Arrival(class int, size int64, now float64) {
	if r == nil || class < 0 || class >= len(r.classes) {
		return
	}
	c := &r.classes[class]
	c.Arrivals.Add(1)
	c.ArrivedBytes.Add(uint64(size))
	if h := r.OnEnqueue; h != nil {
		h(class, now)
	}
}

// Departure records a packet leaving class's queue after waiting delay.
func (r *Registry) Departure(class int, size int64, now, delay float64) {
	if r == nil || class < 0 || class >= len(r.classes) {
		return
	}
	c := &r.classes[class]
	c.Departures.Add(1)
	c.DepartedBytes.Add(uint64(size))
	c.Delay.Record(delay)
	if h := r.OnDequeue; h != nil {
		h(class, now, delay)
	}
}

// Drop records a packet of class being dropped.
func (r *Registry) Drop(class int, now float64) {
	if r == nil || class < 0 || class >= len(r.classes) {
		return
	}
	r.classes[class].Drops.Add(1)
	if h := r.OnDrop; h != nil {
		h(class, now)
	}
}

// ClassSnapshot is a point-in-time copy of one class's metrics.
type ClassSnapshot struct {
	Class int `json:"class"`
	// Name is the class's configured label; empty (and omitted from
	// JSON) when the registry's classes are unnamed, so unlabeled
	// deployments keep their exact historical metrics encoding.
	Name          string       `json:"name,omitempty"`
	Arrivals      uint64       `json:"arrivals"`
	Departures    uint64       `json:"departures"`
	Drops         uint64       `json:"drops"`
	ArrivedBytes  uint64       `json:"arrived_bytes"`
	DepartedBytes uint64       `json:"departed_bytes"`
	Delay         HistSnapshot `json:"-"`
}

// Backlog returns the packets currently queued as implied by the
// counters: arrivals − departures − drops (0 if the counters were read
// mid-update and momentarily disagree).
func (s ClassSnapshot) Backlog() uint64 {
	out := s.Arrivals - s.Departures - s.Drops
	if out > s.Arrivals { // underflowed
		return 0
	}
	return out
}

// Snapshot is a point-in-time view of a whole registry.
type Snapshot struct {
	// Classes holds one entry per service class, index 0 = lowest.
	Classes []ClassSnapshot
	// Ratios[i] is the observed mean-delay ratio class i / class i+1
	// (the quantity the proportional model pins to DDP targets); 0 when
	// either class has no departures yet.
	Ratios []float64
	// TargetRatios echoes the configured targets (nil if none).
	TargetRatios []float64
	// Uptime is the wall time since the registry was created.
	Uptime time.Duration
}

// Snapshot captures the current state and computes the live ratio view.
// It returns a zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Classes:      make([]ClassSnapshot, len(r.classes)),
		TargetRatios: r.target,
		Uptime:       time.Since(r.started),
	}
	for i := range r.classes {
		c := &r.classes[i]
		name := ""
		if i < len(r.names) {
			name = r.names[i]
		}
		s.Classes[i] = ClassSnapshot{
			Class:         i,
			Name:          name,
			Arrivals:      c.Arrivals.Load(),
			Departures:    c.Departures.Load(),
			Drops:         c.Drops.Load(),
			ArrivedBytes:  c.ArrivedBytes.Load(),
			DepartedBytes: c.DepartedBytes.Load(),
			Delay:         c.Delay.Snapshot(),
		}
	}
	s.computeRatios()
	return s
}

// Sub returns the interval view s − prev: counters and delay
// distributions covering only the events between the two snapshots, with
// ratios recomputed over that window. This is the streaming equivalent of
// the paper's timescale-τ ratio metric R_D.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Classes:      make([]ClassSnapshot, len(s.Classes)),
		TargetRatios: s.TargetRatios,
		Uptime:       s.Uptime - prev.Uptime,
	}
	for i := range s.Classes {
		cur := s.Classes[i]
		if i < len(prev.Classes) {
			p := prev.Classes[i]
			cur.Arrivals -= p.Arrivals
			cur.Departures -= p.Departures
			cur.Drops -= p.Drops
			cur.ArrivedBytes -= p.ArrivedBytes
			cur.DepartedBytes -= p.DepartedBytes
			cur.Delay = cur.Delay.Sub(p.Delay)
		}
		out.Classes[i] = cur
	}
	out.computeRatios()
	return out
}

func (s *Snapshot) computeRatios() {
	if len(s.Classes) < 2 {
		return
	}
	s.Ratios = make([]float64, len(s.Classes)-1)
	for i := 0; i+1 < len(s.Classes); i++ {
		lo, hi := s.Classes[i].Delay, s.Classes[i+1].Delay
		if lo.Count == 0 || hi.Count == 0 || hi.Mean() == 0 {
			continue
		}
		s.Ratios[i] = lo.Mean() / hi.Mean()
	}
}

// MaxDeviation returns the largest relative deviation |ratio/target − 1|
// over adjacent class pairs where both an observed ratio and a target
// exist, and the number of such pairs. This is the single number an
// operator alerts on: 0 means the achieved spacing matches the DDPs
// exactly.
func (s Snapshot) MaxDeviation() (dev float64, pairs int) {
	for i, ratio := range s.Ratios {
		if ratio == 0 || i >= len(s.TargetRatios) || s.TargetRatios[i] == 0 {
			continue
		}
		pairs++
		d := ratio/s.TargetRatios[i] - 1
		if d < 0 {
			d = -d
		}
		if d > dev {
			dev = d
		}
	}
	return dev, pairs
}

// DecreasedFrom compares two cumulative snapshots of the same registry and
// returns a description of every counter that moved backwards (nil when
// all are monotone). Cumulative counters only ever Add, so any decrease is
// an instrumentation bug — the chaos stress harness samples snapshots
// periodically and asserts this stays empty across every perturbation.
func (s Snapshot) DecreasedFrom(prev Snapshot) []string {
	var out []string
	for i := range s.Classes {
		if i >= len(prev.Classes) {
			break
		}
		cur, p := s.Classes[i], prev.Classes[i]
		check := func(name string, now, before uint64) {
			if now < before {
				out = append(out, fmt.Sprintf("class %d %s decreased %d -> %d", i, name, before, now))
			}
		}
		check("arrivals", cur.Arrivals, p.Arrivals)
		check("departures", cur.Departures, p.Departures)
		check("drops", cur.Drops, p.Drops)
		check("arrived-bytes", cur.ArrivedBytes, p.ArrivedBytes)
		check("departed-bytes", cur.DepartedBytes, p.DepartedBytes)
		check("delay-samples", cur.Delay.Count, p.Delay.Count)
	}
	return out
}

// Totals sums the event counters over classes.
func (s Snapshot) Totals() (arrivals, departures, drops uint64) {
	for _, c := range s.Classes {
		arrivals += c.Arrivals
		departures += c.Departures
		drops += c.Drops
	}
	return
}
