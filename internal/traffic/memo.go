package traffic

import (
	"slices"
	"sync"

	"pdds/internal/core"
	"pdds/internal/sim"
)

// memoCap bounds the arrivals one memo entry holds, summed over its
// classes: at 12 bytes an arrival, 12 MiB. A run that draws more finishes
// live and is not memoised.
const memoCap = 1 << 20

// memo is the process-wide arrival memo behind Feed: one entry, the
// arrivals of the last completed run that could be recorded. An entry is
// read-only from its publication until the memo has dropped it and the last
// run replaying it is done; only then are its buffers recycled, as spare,
// for the next recording.
var memo struct {
	mu    sync.Mutex
	entry *memoEntry
	spare []stream
}

// memoEntry is one recorded workload: the key it was drawn from and, per
// class, every arrival up to the horizon.
type memoEntry struct {
	key     memoKey
	streams []stream
	readers int // runs replaying the entry, guarded by memo.mu
}

// memoKey is everything a run's arrivals depend on. fractions is a private
// copy and sizes is one of the package's immutable size types.
type memoKey struct {
	rho, alpha        float64
	poisson           bool
	fractions         []float64
	sizes             SizeDist
	linkRate, horizon float64
	seed              uint64
}

// stream is one class's recorded arrivals, absolute times and sizes at
// 12 bytes an arrival, and the ID base StartAll gave its source.
type stream struct {
	idBase uint64
	times  []float64
	sizes  []int32
}

// matches reports whether k is the key of load on a link of linkRate for a
// run to horizon from seed. It allocates nothing.
func (k *memoKey) matches(load *LoadSpec, linkRate, horizon float64, seed uint64) bool {
	return k.seed == seed && k.horizon == horizon && k.linkRate == linkRate &&
		k.rho == load.Rho && k.alpha == load.Alpha && k.poisson == load.Poisson &&
		slices.Equal(k.fractions, load.Fractions) && sameSizes(k.sizes, load.Sizes)
}

// memoisable reports whether sizes is a type whose contents cannot change
// after construction, so a key may hold it, and whose sizes fit a stream's
// 4 bytes.
func memoisable(sizes SizeDist) bool {
	switch d := sizes.(type) {
	case FixedSize:
		return d.Bytes == int64(int32(d.Bytes))
	case Discrete:
		for _, b := range d.sizes {
			if b != int64(int32(b)) {
				return false
			}
		}
		return true
	}
	return false
}

// sameSizes reports whether two memoisable size distributions draw the
// same sizes with the same probabilities and mean.
func sameSizes(a, b SizeDist) bool {
	switch a := a.(type) {
	case FixedSize:
		b, ok := b.(FixedSize)
		return ok && a == b
	case Discrete:
		b, ok := b.(Discrete)
		return ok && a.mean == b.mean && slices.Equal(a.sizes, b.sizes) && slices.Equal(a.cum, b.cum)
	}
	return false
}

// Feed delivers load's arrivals on a link of linkRate bytes per time unit
// into sink, drawing packets from pool (nil allocates), and runs engine to
// horizon. The arrivals, their packet IDs and their event order are those
// of Build(linkRate, seed) started with StartAll, bit for bit. A run that
// repeats the previous recorded run's (load, linkRate, horizon, seed)
// replays that run's arrivals instead of drawing them again; any other run
// draws them through Build and StartAll and, if its sizes are memoisable,
// records them while they fit memoCap. engine must be at time zero.
func Feed(engine *sim.Engine, load LoadSpec, linkRate, horizon float64, seed uint64, pool *core.PacketPool, sink Sink) error {
	if engine.Now() != 0 {
		panic("traffic: Feed needs an engine at time zero")
	}
	// Only a load Build validated was ever recorded, so a key match needs
	// no validation of its own; a miss is validated by Build.
	if e := acquire(&load, linkRate, horizon, seed); e != nil {
		feeders := make([]feeder, len(e.streams))
		for class, s := range e.streams {
			feeders[class] = feeder{engine: engine, sink: sink, pool: pool, class: class, s: s}
			if len(s.times) > 0 {
				engine.AtFunc(s.times[0], feedEmit, &feeders[class])
			}
		}
		engine.RunUntil(horizon)
		e.release()
		return nil
	}

	sources, err := load.Build(linkRate, seed)
	if err != nil {
		return err
	}
	for _, s := range sources {
		s.Pool = pool
	}
	var rec *recording
	if memoisable(load.Sizes) {
		rec = record(sources, horizon)
	}
	StartAll(engine, sources, sink)
	engine.RunUntil(horizon)
	if rec == nil || rec.abandoned {
		return nil
	}
	e := &memoEntry{
		key: memoKey{
			rho: load.Rho, alpha: load.Alpha, poisson: load.Poisson,
			fractions: slices.Clone(load.Fractions),
			sizes:     load.Sizes,
			linkRate:  linkRate, horizon: horizon, seed: seed,
		},
		streams: rec.spare[:0],
	}
	// The spare streams' buffers now belong to the sources; their slice
	// holds the new entry's streams, one per class, empty where a class
	// has no source.
	if n := len(load.Fractions); cap(e.streams) >= n {
		e.streams = e.streams[:n]
		clear(e.streams)
	} else {
		e.streams = make([]stream, n)
	}
	for _, s := range sources {
		s.s.idBase = s.idBase
		e.streams[s.Class] = s.s
	}
	memo.mu.Lock()
	memo.entry = e
	memo.mu.Unlock()
	return nil
}

// acquire returns the memo entry if it holds this key, counting the caller
// as one of its readers until release.
func acquire(load *LoadSpec, linkRate, horizon float64, seed uint64) *memoEntry {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	e := memo.entry
	if e == nil || !e.key.matches(load, linkRate, horizon, seed) {
		return nil
	}
	e.readers++
	return e
}

// release ends one replay of e. The last reader of an entry the memo has
// already dropped recycles its buffers.
func (e *memoEntry) release() {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	e.readers--
	if e.readers == 0 && memo.entry != e {
		memo.spare = e.streams
	}
}

// recording is what a live run's sources share while they record.
type recording struct {
	sources   []*Source
	spare     []stream // the dropped entry's streams, buffers reused
	abandoned bool
}

// record starts recording the sources: it drops the memo's entry, so the
// old entry and its replacement never coexist, and gives each source's
// stream room for its expected arrival count λ·horizon, the whole scaled
// to fit memoCap, reusing spare buffers where they are large enough.
// Streams grow past that room only through grow, which holds the cap.
func record(sources []*Source, horizon float64) *recording {
	memo.mu.Lock()
	if e := memo.entry; e != nil {
		memo.entry = nil
		if e.readers == 0 {
			memo.spare = e.streams
		}
	}
	spare := memo.spare
	memo.spare = nil
	memo.mu.Unlock()

	r := &recording{sources: sources, spare: spare}
	var want float64
	for _, s := range sources {
		want += horizon / s.Inter.Mean()
	}
	scale := 1.05
	if want*scale > memoCap {
		scale = memoCap / want
	}
	room := memoCap
	for _, s := range sources {
		s.rec = r
		n := min(int(horizon/s.Inter.Mean()*scale)+16, room)
		room -= n
		if c := s.Class; c < len(spare) && cap(spare[c].times) >= n {
			s.s.times, s.s.sizes = spare[c].times[:0], spare[c].sizes[:0]
		} else {
			s.s.times, s.s.sizes = make([]float64, 0, n), make([]int32, 0, n)
		}
	}
	return r
}

// grow makes room for more arrivals in s's stream, at most what memoCap
// leaves, or abandons the recording once the cap is reached.
func (r *recording) grow(s *Source) bool {
	total := 0
	for _, o := range r.sources {
		total += len(o.s.times)
	}
	n := len(s.s.times)
	room := min(n+16, memoCap-total)
	if room <= 0 {
		r.abandon()
		return false
	}
	times, sizes := make([]float64, n, n+room), make([]int32, n, n+room)
	copy(times, s.s.times)
	copy(sizes, s.s.sizes)
	s.s.times, s.s.sizes = times, sizes
	return true
}

// abandon stops recording; the run goes on drawing live.
func (r *recording) abandon() {
	r.abandoned = true
	for _, s := range r.sources {
		s.rec = nil
		s.s.times, s.s.sizes = nil, nil
	}
}

// feeder replays one class's recorded arrivals through a single chained
// event, as Source emits them: each emission schedules the next after the
// sink returns.
type feeder struct {
	engine *sim.Engine
	sink   Sink
	pool   *core.PacketPool
	class  int
	s      stream
	k      int // arrivals emitted so far
}

// feedEmit is the shared closure-free event body for feeders.
func feedEmit(arg any) { arg.(*feeder).emit() }

func (f *feeder) emit() {
	now := f.engine.Now()
	f.k++
	p := f.pool.Get()
	p.ID = f.s.idBase + uint64(f.k)
	p.Class = f.class
	p.Size = int64(f.s.sizes[f.k-1])
	p.Arrival = now
	p.Birth = now
	f.sink(p)
	if f.k < len(f.s.times) {
		f.engine.AtFunc(f.s.times[f.k], feedEmit, f)
	}
}
