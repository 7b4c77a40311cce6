package telemetry

import (
	"math"
	"sync/atomic"
)

// The histogram uses a fixed log-linear bucket layout (HDR-histogram
// style): each power-of-two range ("octave") of the value axis is split
// into histSub equal-width linear sub-buckets. Bucket width within an
// octave is 2^(e-1)/histSub for values in [2^(e-1), 2^e), so the relative
// quantization error of any recorded value is at most 1/histSub
// (RelError); quantile estimates return bucket midpoints, halving that in
// expectation. The layout is fixed at compile time, which keeps Record
// branch-free after index computation and makes snapshots of any two
// histograms mergeable bucket-by-bucket.
const (
	histSubBits = 5
	// histSub is the number of linear sub-buckets per octave.
	histSub = 1 << histSubBits
	// histMinExp/histMaxExp bound the tracked exponent range. With
	// values in seconds this spans ~1 ns to ~4·10^9 s; with values in
	// simulation time units it comfortably covers every run in this
	// repository. Out-of-range values clamp to the edge buckets.
	histMinExp = -30
	histMaxExp = 32
	// histBuckets is the total bucket count ((32-(-30))·32 = 1984).
	histBuckets = (histMaxExp - histMinExp) * histSub
)

// RelError is the documented worst-case relative error of histogram
// quantiles versus exact order statistics, for values within the tracked
// range: one sub-bucket width relative to the bucket's lower edge.
const RelError = 1.0 / histSub

// Histogram is a fixed-layout log-linear histogram of positive float64
// values (delays). Record is allocation-free and safe for concurrent use;
// Snapshot copies the state for querying and merging. The zero value is
// ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomicFloat // CAS-accumulated Σv for Mean
	max    atomicMax   // CAS-maintained max(v)
}

// bucketIndex maps a value to its bucket. Non-positive (and NaN) values
// clamp to bucket 0; values beyond the tracked range clamp to the edges.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	if exp <= histMinExp {
		return 0
	}
	if exp > histMaxExp {
		return histBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * histSub)) // ∈ [0, histSub)
	return (exp-histMinExp-1)*histSub + sub
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	exp := histMinExp + 1 + i/histSub
	sub := i % histSub
	lo := math.Ldexp(0.5+float64(sub)/(2*histSub), exp)
	width := math.Ldexp(1.0/(2*histSub), exp)
	return lo + width/2
}

// Record adds one observation. It performs a handful of atomic updates
// and never allocates. The observation count is carried by the bucket
// counters themselves (no separate counter), keeping the hot path to one
// bucket increment, one sum accumulation, and a max check.
func (h *Histogram) Record(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.max.Observe(v)
}

// Snapshot copies the histogram state. Concurrent Records may or may not
// be included; Count is the bucket total, so quantile walks are always
// internally consistent with it.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Sum: h.sum.Load(),
		Max: h.max.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c != 0 {
			if s.Counts == nil {
				s.Counts = make([]uint64, histBuckets)
			}
			s.Counts[i] = c
			s.Count += c
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable and
// subtractable with snapshots of any other Histogram (the bucket layout is
// global). Counts is nil when the snapshot is empty.
type HistSnapshot struct {
	Counts []uint64
	Count  uint64
	Sum    float64
	Max    float64
}

// Mean returns the mean recorded value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the p-quantile (p ∈ [0,1]) as a bucket midpoint,
// clamped to the observed maximum. It returns 0 when the snapshot is
// empty. The estimate is within RelError of the exact order statistic for
// in-range values.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return math.Min(bucketMid(i), s.Max)
		}
	}
	return s.Max
}

// Merge folds other into s, returning the union snapshot.
func (s HistSnapshot) Merge(other HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count: s.Count + other.Count,
		Sum:   s.Sum + other.Sum,
		Max:   math.Max(s.Max, other.Max),
	}
	if s.Counts == nil && other.Counts == nil {
		return out
	}
	out.Counts = make([]uint64, histBuckets)
	copy(out.Counts, s.Counts)
	for i, c := range other.Counts {
		out.Counts[i] += c
	}
	return out
}

// Sub returns the interval histogram s minus an earlier snapshot prev of
// the same histogram: the distribution of values recorded between the two.
// Max carries over from s (the true interval max is not recoverable from
// cumulative state; bucket-derived quantiles remain exact for the
// interval).
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count: s.Count - min(prev.Count, s.Count),
		Sum:   s.Sum - prev.Sum,
		Max:   s.Max,
	}
	if out.Sum < 0 {
		out.Sum = 0
	}
	if s.Counts == nil {
		return out
	}
	out.Counts = make([]uint64, histBuckets)
	copy(out.Counts, s.Counts)
	for i, c := range prev.Counts {
		if out.Counts[i] >= c {
			out.Counts[i] -= c
		} else {
			out.Counts[i] = 0
		}
	}
	return out
}

// atomicFloat is a float64 accumulated with compare-and-swap.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		cur := math.Float64frombits(old)
		if a.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// atomicMax tracks a running maximum of non-negative float64s. For
// non-negative values the IEEE-754 bit pattern is order-preserving as a
// uint64, so max reduces to an integer CAS loop.
type atomicMax struct{ bits atomic.Uint64 }

func (a *atomicMax) Observe(v float64) {
	if !(v > 0) {
		return
	}
	b := math.Float64bits(v)
	for {
		old := a.bits.Load()
		if old >= b {
			return
		}
		if a.bits.CompareAndSwap(old, b) {
			return
		}
	}
}

func (a *atomicMax) Load() float64 { return math.Float64frombits(a.bits.Load()) }
