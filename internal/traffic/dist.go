// Package traffic generates the synthetic workloads of the paper's
// evaluation: Pareto-interarrival packet sources (α = 1.9, bursty,
// infinite-variance), the trimodal packet-size distribution (40 B 40%,
// 550 B 50%, 1500 B 10%), per-class load splitting, and the paced user
// flows of Study B. All randomness is drawn from explicitly seeded PCG
// generators so every experiment is exactly reproducible.
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Interarrival is a distribution of interarrival times.
type Interarrival interface {
	// Next draws an interarrival time (strictly positive).
	Next(rng *rand.Rand) float64
	// Mean returns the distribution mean.
	Mean() float64
	// String describes the distribution.
	String() string
}

// Pareto is the heavy-tailed Pareto distribution with shape Alpha and scale
// Xm: P(X > x) = (Xm/x)^Alpha for x >= Xm. The paper uses Alpha = 1.9, for
// which the mean is finite (Alpha·Xm/(Alpha−1)) but the variance is
// infinite — the source of the burstiness over many timescales that makes
// short-timescale differentiation hard.
type Pareto struct {
	Alpha float64
	Xm    float64
	// yf is 1/Alpha − 1 when NewPareto built the value with 1 < Alpha < 2
	// (else 0): the fractional exponent math.Pow(u, −1/Alpha) reduces to,
	// fixed once so Next can replay Pow's float operations directly.
	yf float64
}

// NewPareto returns a Pareto distribution with the given shape and the
// scale chosen so the mean equals mean.
func NewPareto(alpha, mean float64) Pareto {
	if !(alpha > 1) {
		panic(fmt.Sprintf("traffic: Pareto alpha %g must be > 1 for a finite mean", alpha))
	}
	if !(mean > 0) {
		panic("traffic: Pareto mean must be > 0")
	}
	p := Pareto{Alpha: alpha, Xm: mean * (alpha - 1) / alpha}
	// Pow(u, y) splits |y| into integer and fraction and, for a fraction
	// above 0.5, takes yi = 1 and yf = |y| − 1. With |y| = 1/α that is
	// every 1 < α < 2 (α = 2 takes Pow's 1/Sqrt case instead).
	if y := 1 / alpha; y > 0.5 {
		p.yf = y - 1
	}
	return p
}

// Next implements Interarrival by inversion: Xm·U^(−1/α).
func (p Pareto) Next(rng *rand.Rand) float64 {
	// Float64 returns [0,1); complementing avoids a zero (which would
	// yield +Inf).
	u := 1 - rng.Float64()
	if p.yf == 0 {
		return p.Xm * math.Pow(u, -1/p.Alpha)
	}
	return p.Xm * powNegInv(u, p.yf)
}

// powNegInv returns math.Pow(u, −1/α) bit for bit, for u in (0, 1] and
// yf = 1/α − 1 with 1 < α < 2: the exact float operations Pow performs on
// that input (u^yf by Exp∘Log, one Frexp step for the integer exponent 1,
// then the reciprocal and the power-of-two rescale), minus its case
// analysis.
func powNegInv(u, yf float64) float64 {
	a1 := math.Exp(yf * math.Log(u))
	x1, xe := math.Frexp(u)
	a1 *= x1
	return math.Ldexp(1/a1, -xe)
}

// Mean implements Interarrival.
func (p Pareto) Mean() float64 { return p.Alpha * p.Xm / (p.Alpha - 1) }

func (p Pareto) String() string {
	return fmt.Sprintf("Pareto(alpha=%.3g, xm=%.4g)", p.Alpha, p.Xm)
}

// Exponential models Poisson arrivals with the given mean interarrival.
// The paper's analysis references (Kleinrock, Coffman–Mitrani) assume
// Poisson arrivals; it is provided for validation against those results.
type Exponential struct {
	MeanVal float64
}

// NewExponential returns an exponential distribution with the given mean.
func NewExponential(mean float64) Exponential {
	if !(mean > 0) {
		panic("traffic: Exponential mean must be > 0")
	}
	return Exponential{MeanVal: mean}
}

// Next implements Interarrival.
func (e Exponential) Next(rng *rand.Rand) float64 {
	return rng.ExpFloat64() * e.MeanVal
}

// Mean implements Interarrival.
func (e Exponential) Mean() float64 { return e.MeanVal }

func (e Exponential) String() string { return fmt.Sprintf("Exp(mean=%.4g)", e.MeanVal) }

// Constant is a deterministic interarrival (periodic source).
type Constant struct {
	Value float64
}

// NewConstant returns a constant interarrival of the given period.
func NewConstant(period float64) Constant {
	if !(period > 0) {
		panic("traffic: Constant period must be > 0")
	}
	return Constant{Value: period}
}

// Next implements Interarrival.
func (c Constant) Next(rng *rand.Rand) float64 { return c.Value }

// Mean implements Interarrival.
func (c Constant) Mean() float64 { return c.Value }

func (c Constant) String() string { return fmt.Sprintf("Const(%.4g)", c.Value) }

// SizeDist is a distribution of packet sizes in bytes.
type SizeDist interface {
	// Next draws a packet size.
	Next(rng *rand.Rand) int64
	// Mean returns the mean size in bytes.
	Mean() float64
	// String describes the distribution.
	String() string
}

// Discrete is a finite discrete size distribution.
type Discrete struct {
	sizes []int64
	cum   []float64 // cumulative probabilities, last = 1
	mean  float64
}

// NewDiscrete builds a discrete distribution from sizes and matching
// probabilities (must sum to 1 within 1e-9).
func NewDiscrete(sizes []int64, probs []float64) Discrete {
	if len(sizes) == 0 || len(sizes) != len(probs) {
		panic("traffic: NewDiscrete requires matching nonempty sizes/probs")
	}
	var sum, mean float64
	cum := make([]float64, len(probs))
	for i, p := range probs {
		if p < 0 {
			panic("traffic: negative probability")
		}
		if sizes[i] <= 0 {
			panic("traffic: nonpositive packet size")
		}
		sum += p
		cum[i] = sum
		mean += p * float64(sizes[i])
	}
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("traffic: probabilities sum to %g, want 1", sum))
	}
	cum[len(cum)-1] = 1 // guard against rounding
	return Discrete{sizes: append([]int64(nil), sizes...), cum: cum, mean: mean}
}

// PaperSizes returns the packet length distribution of §5: 40% 40-byte,
// 50% 550-byte, 10% 1500-byte packets (mean 441 bytes).
func PaperSizes() Discrete {
	return NewDiscrete([]int64{40, 550, 1500}, []float64{0.40, 0.50, 0.10})
}

// Next implements SizeDist.
func (d Discrete) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	for i, c := range d.cum {
		if u < c {
			return d.sizes[i]
		}
	}
	return d.sizes[len(d.sizes)-1]
}

// Mean implements SizeDist.
func (d Discrete) Mean() float64 { return d.mean }

func (d Discrete) String() string { return fmt.Sprintf("Discrete(mean=%.4g B)", d.mean) }

// FixedSize is a constant packet size.
type FixedSize struct {
	Bytes int64
}

// NewFixedSize returns a constant size distribution.
func NewFixedSize(bytes int64) FixedSize {
	if bytes <= 0 {
		panic("traffic: FixedSize must be > 0")
	}
	return FixedSize{Bytes: bytes}
}

// Next implements SizeDist.
func (f FixedSize) Next(rng *rand.Rand) int64 { return f.Bytes }

// Mean implements SizeDist.
func (f FixedSize) Mean() float64 { return float64(f.Bytes) }

func (f FixedSize) String() string { return fmt.Sprintf("Fixed(%d B)", f.Bytes) }

// NewRNG returns a deterministic PCG generator for the given seed pair.
// Every experiment derives its generators from recorded seeds through this
// helper so runs are reproducible.
func NewRNG(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}
