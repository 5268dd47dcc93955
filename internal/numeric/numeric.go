// Package numeric provides the small numerical toolkit the analytic model
// needs: robust 1-D root finding (Brent, safeguarded Newton), damped
// fixed-point iteration, and the sweep grids of the paper's figures.
//
// All routines are pure functions over float64 and deterministic; errors are
// returned (never panicked) so the model layer can degrade gracefully.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root finder is called on an interval whose
// endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrNoConverge is returned when an iteration exhausts its budget without
// meeting its tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// DefaultTol is the default absolute tolerance for the root finders.
const DefaultTol = 1e-12

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection safeguards). It converges superlinearly on
// smooth functions while retaining bisection's robustness.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (float64(3*a)+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = a + float64((b-a)/2)
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d, c, fc = c, b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrNoConverge
}

// NewtonBracketed runs Newton's method safeguarded by a bracket [a, b]:
// whenever a Newton step leaves the bracket or fails to shrink it fast
// enough, it falls back to bisection. f(a), f(b) must bracket a root.
// df is the derivative of f.
func NewtonBracketed(f, df func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	x := a + float64((b-a)/2)
	for i := 0; i < 100; i++ {
		fx := f(x)
		if fx == 0 {
			return x, nil
		}
		// Maintain bracket.
		if math.Signbit(fx) == math.Signbit(fa) {
			a, fa = x, fx
		} else {
			b = x
		}
		if b-a < tol {
			return x, nil
		}
		dfx := df(x)
		var next float64
		if dfx != 0 {
			next = x - fx/dfx
		}
		if dfx == 0 || next <= a || next >= b {
			next = a + float64((b-a)/2) // bisection fallback
		}
		if math.Abs(next-x) < tol {
			return next, nil
		}
		x = next
	}
	return x, ErrNoConverge
}

// FixedPoint iterates x <- (1-damping)*x + damping*g(x) from x0 until
// successive iterates differ by less than tol, for at most maxIter steps.
// damping must be in (0, 1]; 1 is undamped iteration.
func FixedPoint(g func(float64) float64, x0, damping, tol float64, maxIter int) (float64, error) {
	if damping <= 0 || damping > 1 {
		return 0, fmt.Errorf("numeric: damping %g outside (0,1]", damping)
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	x := x0
	for i := 0; i < maxIter; i++ {
		next := float64((1-damping)*x) + float64(damping*g(x))
		if math.Abs(next-x) < tol {
			return next, nil
		}
		x = next
	}
	return x, ErrNoConverge
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be >= 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("numeric: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(float64(i)*step)
	}
	out[n-1] = hi // avoid accumulated rounding at the endpoint
	return out
}

// Arange returns lo, lo+step, ... up to and including hi (within a half-step
// tolerance, matching how the paper sweeps "1.10 to 6.7 step 0.4").
func Arange(lo, hi, step float64) []float64 {
	if step <= 0 {
		panic("numeric: Arange needs positive step")
	}
	var out []float64
	for x := lo; x <= hi+step/2; x += step {
		out = append(out, x)
	}
	return out
}
