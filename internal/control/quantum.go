package control

import "math"

// The DRR retune path picks its step size by minimizing
//
//	J(α) = (1−α)²·E + λ·α²,  α ∈ [0, αmax]
//
// where E is the window's summed squared log ratio error (the cost of
// correcting only a fraction α of it, since a full multiplicative step
// α=1 would cancel the measured error exactly if the plant were ideal)
// and λ·α² penalizes quantum movement — the anti-flap term that keeps
// marginal errors from producing large quantum swings. J is a strictly
// convex parabola, the shape Mukherjee, Kuri and Singh establish for
// the DRR quantum-assignment objective; convexity is what licenses a 1-D
// line search instead of a global search over quantum vectors. The
// unconstrained optimum is E/(E+λ); QuantumStep finds it by golden-
// section search (kept deliberately derivative-free so the objective can
// grow non-quadratic terms later) and the tests pin the search against
// the closed form.

// goldenSectionMin minimizes a unimodal f over [lo, hi] to within tol.
func goldenSectionMin(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949 // (√5 − 1)/2
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 <= f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return (a + b) / 2
}

// QuantumStep returns the step size α ∈ [0, maxAlpha] minimizing the
// convex retune objective for squared log error e and move penalty
// lambda. e ≤ 0 returns 0 (nothing to correct).
func QuantumStep(e, lambda, maxAlpha float64) float64 {
	if !(e > 0) || !(maxAlpha > 0) {
		return 0
	}
	if lambda <= 0 {
		return maxAlpha
	}
	f := func(a float64) float64 {
		return (1-a)*(1-a)*e + lambda*a*a
	}
	a := goldenSectionMin(f, 0, maxAlpha, 1e-9)
	// Guard the boundaries: golden section never lands exactly on them.
	if f(0) < f(a) {
		return 0
	}
	if f(maxAlpha) < f(a) {
		return maxAlpha
	}
	return a
}

// quantumClosedForm is the analytic optimum the tests compare against.
func quantumClosedForm(e, lambda, maxAlpha float64) float64 {
	a := e / (e + lambda)
	return math.Min(a, maxAlpha)
}
