package traffic

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestParetoMedianAndTail(t *testing.T) {
	// The Pareto median is xm·2^(1/alpha) — unlike the mean it is robust
	// to the infinite variance at alpha=1.9, so test it tightly.
	p := NewPareto(1.9, 11.2)
	rng := NewRNG(1, 2)
	const n = 200000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = p.Next(rng)
		if samples[i] < p.Xm {
			t.Fatalf("sample %g below scale %g", samples[i], p.Xm)
		}
	}
	sort.Float64s(samples)
	median := samples[n/2]
	want := p.Xm * math.Pow(2, 1/p.Alpha)
	if math.Abs(median-want)/want > 0.02 {
		t.Fatalf("median = %g, want %g", median, want)
	}
	// Tail check: P(X > 4·xm) = 4^-alpha.
	thresh := 4 * p.Xm
	count := sort.SearchFloat64s(samples, thresh)
	tailFrac := float64(n-count) / n
	wantTail := math.Pow(4, -p.Alpha)
	if math.Abs(tailFrac-wantTail)/wantTail > 0.10 {
		t.Fatalf("tail fraction = %g, want %g", tailFrac, wantTail)
	}
}

func TestParetoMean(t *testing.T) {
	// With alpha=3 the variance is finite and the sample mean converges
	// fast; verify Mean() and the sampler agree.
	p := NewPareto(3, 10)
	if math.Abs(p.Mean()-10) > 1e-12 {
		t.Fatalf("Mean = %g, want 10", p.Mean())
	}
	rng := NewRNG(7, 7)
	var sum float64
	const n = 500000
	for i := 0; i < n; i++ {
		sum += p.Next(rng)
	}
	got := sum / n
	if math.Abs(got-10)/10 > 0.02 {
		t.Fatalf("sample mean = %g, want 10", got)
	}
}

func TestParetoValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPareto(1, 5) },
		func() { NewPareto(0.5, 5) },
		func() { NewPareto(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestExponentialMean(t *testing.T) {
	e := NewExponential(5)
	if e.Mean() != 5 {
		t.Fatal("Mean wrong")
	}
	rng := NewRNG(3, 3)
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += e.Next(rng)
	}
	if got := sum / n; math.Abs(got-5)/5 > 0.02 {
		t.Fatalf("sample mean = %g, want 5", got)
	}
}

func TestConstant(t *testing.T) {
	c := NewConstant(2.5)
	rng := NewRNG(1, 1)
	for i := 0; i < 10; i++ {
		if c.Next(rng) != 2.5 {
			t.Fatal("Constant not constant")
		}
	}
	if c.Mean() != 2.5 {
		t.Fatal("Mean wrong")
	}
}

func TestPaperSizes(t *testing.T) {
	d := PaperSizes()
	if math.Abs(d.Mean()-441) > 1e-9 {
		t.Fatalf("paper mean size = %g, want 441", d.Mean())
	}
	rng := NewRNG(11, 13)
	counts := map[int64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[d.Next(rng)]++
	}
	for _, c := range []struct {
		size int64
		frac float64
	}{{40, 0.40}, {550, 0.50}, {1500, 0.10}} {
		got := float64(counts[c.size]) / n
		if math.Abs(got-c.frac) > 0.01 {
			t.Fatalf("size %d fraction = %g, want %g", c.size, got, c.frac)
		}
	}
}

func TestDiscreteValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewDiscrete(nil, nil) },
		func() { NewDiscrete([]int64{40}, []float64{0.5, 0.5}) },
		func() { NewDiscrete([]int64{40, 550}, []float64{0.5, 0.6}) },
		func() { NewDiscrete([]int64{40, 550}, []float64{-0.1, 1.1}) },
		func() { NewDiscrete([]int64{0}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFixedSize(t *testing.T) {
	f := NewFixedSize(500)
	rng := NewRNG(1, 1)
	if f.Next(rng) != 500 || f.Mean() != 500 {
		t.Fatal("FixedSize wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("FixedSize(0) did not panic")
		}
	}()
	NewFixedSize(0)
}

func TestStringers(t *testing.T) {
	for _, s := range []interface{ String() string }{
		NewPareto(1.9, 11.2),
		NewExponential(1),
		NewConstant(1),
		PaperSizes(),
		NewFixedSize(500),
	} {
		if s.String() == "" {
			t.Fatalf("%T has empty String()", s)
		}
	}
}

// Property: interarrival samples are always strictly positive and finite.
func TestInterarrivalsPositiveProperty(t *testing.T) {
	f := func(seed uint64, meanScaled uint16) bool {
		mean := 0.01 + float64(meanScaled%1000)/10
		rng := NewRNG(seed, 1)
		dists := []Interarrival{
			NewPareto(1.9, mean),
			NewExponential(mean),
			NewConstant(mean),
		}
		for _, d := range dists {
			for i := 0; i < 50; i++ {
				v := d.Next(rng)
				if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42, 17), NewRNG(42, 17)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(42, 18)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42, 17).Float64() != c.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different-seed RNGs identical")
	}
}

// paretoShapes are the 1 < α < 2 shapes the Pow replay is checked at,
// the paper's 1.9 among them, plus the largest float below 2.
var paretoShapes = []float64{1.05, 1.2, 1.5, 1.9, 1.99, math.Nextafter(2, 0)}

// checkParetoMatchesPow fails t unless, at every shape, Next's replay of
// math.Pow agrees with Pow bit for bit on draws uniform draws plus edge
// values of u, and a Pareto literal (which keeps Pow) draws the same
// stream as NewPareto's.
func checkParetoMatchesPow(t *testing.T, draws int) {
	t.Helper()
	edges := []float64{1, math.Nextafter(1, 0), 0.5, math.Nextafter(0.5, 0), 0x1p-53, 0x1p-1022, math.SmallestNonzeroFloat64}
	for i, alpha := range paretoShapes {
		p := NewPareto(alpha, 1)
		if p.yf == 0 {
			t.Fatalf("alpha %v: NewPareto kept math.Pow", alpha)
		}
		y := -1 / alpha
		for _, u := range edges {
			if got, want := powNegInv(u, p.yf), math.Pow(u, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha %v u %v: %v, math.Pow %v", alpha, u, got, want)
			}
		}
		rng := NewRNG(uint64(i), 42)
		for n := 0; n < draws; n++ {
			u := 1 - rng.Float64()
			if got, want := powNegInv(u, p.yf), math.Pow(u, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha %v draw %d u %v: %v, math.Pow %v", alpha, n, u, got, want)
			}
		}
		lit := Pareto{Alpha: p.Alpha, Xm: p.Xm}
		a, b := NewRNG(uint64(i), 43), NewRNG(uint64(i), 43)
		for n := 0; n < 1000; n++ {
			if got, want := p.Next(a), lit.Next(b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha %v draw %d: Next %v, literal %v", alpha, n, got, want)
			}
		}
	}
	for _, alpha := range []float64{2, 2.5, 3} {
		if p := NewPareto(alpha, 1); p.yf != 0 {
			t.Errorf("alpha %v: yf %v, want math.Pow kept", alpha, p.yf)
		}
	}
}

// TestParetoNextMatchesPow checks the Pow replay on 200k draws a shape;
// the fullsweep build checks 50M (make differential).
func TestParetoNextMatchesPow(t *testing.T) { checkParetoMatchesPow(t, 200_000) }
