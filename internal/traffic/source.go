package traffic

import (
	"fmt"
	"math/rand/v2"

	"pdds/internal/core"
	"pdds/internal/sim"
)

// Sink receives generated packets (typically a link's arrival handler).
type Sink func(*core.Packet)

// Source is a single-class packet source: packets of class Class with
// sizes from Sizes arrive with interarrivals from Inter. This is the §5
// model — "a BPR/WTP scheduler services N packet sources, with one source
// for each service class".
type Source struct {
	Class int
	Inter Interarrival
	Sizes SizeDist
	RNG   *rand.Rand

	// Pool, if set, supplies recycled Packet objects so steady-state
	// emission allocates nothing. The run harness that terminates packets
	// (link departure/drop) returns them; see core.PacketPool for the
	// lifetime rules. A nil Pool allocates per packet.
	Pool *core.PacketPool

	engine  *sim.Engine
	sink    Sink
	nextID  uint64
	idBase  uint64
	pending *sim.Event // the scheduled next emission; nil while emitting or paused
	paused  bool

	// rec, while set, is the arrival memo's recording this source's
	// arrivals go into, in s (see Feed).
	rec *recording
	s   stream
}

// Start begins emitting packets into sink on the engine. The first packet
// arrives one interarrival after the current simulation time. idBase
// namespaces packet IDs so multiple sources never collide.
func (s *Source) Start(engine *sim.Engine, sink Sink, idBase uint64) {
	if s.Inter == nil || s.Sizes == nil || s.RNG == nil {
		panic("traffic: Source requires Inter, Sizes and RNG")
	}
	s.engine = engine
	s.sink = sink
	s.idBase = idBase
	s.scheduleNext()
}

// Emitted returns how many packets the source has generated so far.
func (s *Source) Emitted() uint64 { return s.nextID }

// sourceEmit is the shared event body for source emission: a package-level
// func plus the *Source receiver as the argument, so scheduling the next
// arrival boxes no closure (see sim.AtFunc).
func sourceEmit(arg any) { arg.(*Source).emit() }

func (s *Source) scheduleNext() {
	d := s.Inter.Next(s.RNG)
	// AtFunc at now+d is AfterFunc(d), but inlines: this runs once an
	// arrival.
	s.pending = s.engine.AtFunc(s.engine.Now()+d, sourceEmit, s)
}

// SetInter switches the source to a new interarrival distribution,
// effective immediately: the already-scheduled next arrival is canceled and
// redrawn from the new distribution. An immediate redraw matters for load
// steps under heavy-tailed interarrivals, where the pending draw can lie
// arbitrarily far in the future. No-op while paused (the new distribution
// is used on Resume) or before Start.
func (s *Source) SetInter(inter Interarrival) {
	if inter == nil {
		panic("traffic: SetInter with nil distribution")
	}
	s.Inter = inter
	if s.pending != nil {
		s.engine.Cancel(s.pending)
		s.pending = nil
		s.scheduleNext()
	}
}

// Pause stops emission: the pending next arrival is canceled. No-op when
// already paused or not started.
func (s *Source) Pause() {
	if s.engine == nil || s.paused {
		return
	}
	s.paused = true
	if s.pending != nil {
		s.engine.Cancel(s.pending)
		s.pending = nil
	}
}

// Resume restarts a paused source; the next arrival is one fresh
// interarrival draw after the current simulation time.
func (s *Source) Resume() {
	if s.engine == nil || !s.paused {
		return
	}
	s.paused = false
	s.scheduleNext()
}

func (s *Source) emit() {
	s.pending = nil
	now := s.engine.Now()
	s.nextID++
	p := s.Pool.Get()
	p.ID = s.idBase + s.nextID
	p.Class = s.Class
	p.Size = s.Sizes.Next(s.RNG)
	p.Arrival = now
	p.Birth = now
	if s.rec != nil && (len(s.s.times) < cap(s.s.times) || s.rec.grow(s)) {
		s.s.times = append(s.s.times, now)
		s.s.sizes = append(s.s.sizes, int32(p.Size))
	}
	s.sink(p)
	s.scheduleNext()
}

// LoadSpec describes an offered load for a multi-class source set: total
// utilization rho on a link of linkRate bytes/tu, split across classes by
// Fractions (must sum to 1).
type LoadSpec struct {
	// Rho is the target utilization in (0, ~1]; the paper studies 0.70
	// to 0.999.
	Rho float64
	// Fractions is the class load distribution, e.g. the paper's default
	// {0.40, 0.30, 0.20, 0.10} for classes 1..4.
	Fractions []float64
	// Sizes is the shared packet-size distribution (same for all classes
	// per §3's conservation-law assumption).
	Sizes SizeDist
	// Alpha is the Pareto shape for interarrivals (paper: 1.9). If
	// Poisson is true Alpha is ignored.
	Alpha float64
	// Poisson selects exponential interarrivals instead of Pareto.
	Poisson bool
}

// Validate checks the spec.
func (l LoadSpec) Validate() error {
	if !(l.Rho > 0) || l.Rho > 1.5 {
		return fmt.Errorf("traffic: rho %g out of range", l.Rho)
	}
	if len(l.Fractions) == 0 {
		return fmt.Errorf("traffic: no class fractions")
	}
	var sum float64
	for _, f := range l.Fractions {
		if f < 0 {
			return fmt.Errorf("traffic: negative class fraction %g", f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("traffic: class fractions sum to %g, want 1", sum)
	}
	if l.Sizes == nil {
		return fmt.Errorf("traffic: nil size distribution")
	}
	if !l.Poisson && !(l.Alpha > 1) {
		return fmt.Errorf("traffic: Pareto alpha %g must be > 1", l.Alpha)
	}
	return nil
}

// Rates returns the per-class packet arrival rates (packets per time unit)
// that realize the spec on a link of linkRate bytes per time unit:
// lambda_agg = rho·linkRate/meanSize, lambda_i = f_i·lambda_agg.
func (l LoadSpec) Rates(linkRate float64) []float64 {
	agg := l.Rho * linkRate / l.Sizes.Mean()
	rates := make([]float64, len(l.Fractions))
	for i, f := range l.Fractions {
		rates[i] = f * agg
	}
	return rates
}

// Inter returns the spec's interarrival distribution for an arrival rate
// of lambda packets per time unit — Pareto(Alpha) or exponential per the
// spec. Chaos/scenario harnesses use it to rebuild a source's distribution
// at a new rate mid-run (see Source.SetInter).
func (l LoadSpec) Inter(lambda float64) Interarrival {
	if !(lambda > 0) {
		panic(fmt.Sprintf("traffic: interarrival rate %g must be > 0", lambda))
	}
	mean := 1 / lambda
	if l.Poisson {
		return NewExponential(mean)
	}
	return NewPareto(l.Alpha, mean)
}

// Build creates one Source per class with independent RNG streams derived
// from seed, and returns them (classes with zero fraction get no source).
// Call Start on each to begin the workload.
func (l LoadSpec) Build(linkRate float64, seed uint64) ([]*Source, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	rates := l.Rates(linkRate)
	// One backing array for every source: a cold link.Run builds them
	// once a run.
	built := make([]Source, 0, len(rates))
	sources := make([]*Source, 0, len(rates))
	for class, lambda := range rates {
		if lambda == 0 {
			continue
		}
		built = append(built, Source{
			Class: class,
			Inter: l.Inter(lambda),
			Sizes: l.Sizes,
			RNG:   classRNG(seed, class),
		})
		sources = append(sources, &built[len(built)-1])
	}
	return sources, nil
}

// classRNG is the generator of class's source in a load drawn from seed.
// A distinct second seed per class keeps the streams independent but
// reproducible.
func classRNG(seed uint64, class int) *rand.Rand {
	return NewRNG(seed, 0x9e3779b9+uint64(class))
}

// StartAll starts every source on the engine with non-overlapping ID bases.
func StartAll(engine *sim.Engine, sources []*Source, sink Sink) {
	for i, s := range sources {
		s.Start(engine, sink, uint64(i+1)<<40)
	}
}

// PaperLoad returns the paper's default Study A workload: Pareto α=1.9
// interarrivals, trimodal sizes, class fractions 40/30/20/10 (class 1 is
// the lowest), at utilization rho.
func PaperLoad(rho float64) LoadSpec {
	return LoadSpec{
		Rho:       rho,
		Fractions: []float64{0.40, 0.30, 0.20, 0.10},
		Sizes:     PaperSizes(),
		Alpha:     1.9,
	}
}
