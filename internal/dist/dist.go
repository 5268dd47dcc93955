// Package dist provides the discrete fanout distributions P of the gossip
// model Gossip(n, P, q) — the paper's Poisson case study plus the
// traditional fixed fanout and several heavier-tailed families used by the
// ablation studies — together with the probability-generating-function
// machinery (PGF, PGF', PGF”) the analytic model in internal/genfunc is
// built on.
//
// Every Distribution is immutable and safe for concurrent use; sampling
// consumes randomness only from the caller's RNG, so Monte-Carlo runs stay
// deterministic under parallelism.
package dist

import (
	"fmt"
	"math"

	"gossipkit/internal/xrand"
)

// Distribution is a probability distribution over the nonnegative integers,
// used as the gossip fanout distribution P.
type Distribution interface {
	// Name identifies the distribution for reports ("Poisson(4)").
	Name() string
	// Mean returns E[P].
	Mean() float64
	// PMF returns Pr[P = k] (0 for k < 0).
	PMF(k int) float64
	// Sample draws one value, consuming randomness from r.
	Sample(r *xrand.RNG) int
}

// pgfer is an optional closed-form PGF; distributions that implement it
// skip the generic series summation.
type pgfer interface{ PGFAt(x float64) float64 }

// pgfPrimer is an optional closed-form first PGF derivative.
type pgfPrimer interface{ PGFPrimeAt(x float64) float64 }

// pgfPrime2er is an optional closed-form second PGF derivative.
type pgfPrime2er interface{ PGFPrime2At(x float64) float64 }

// maxPGFTerms caps the generic series summation; the tail test inside the
// loop terminates far earlier for every light-tailed distribution.
const maxPGFTerms = 1 << 20

// PGF evaluates the probability generating function G(x) = Σ p_k x^k for
// |x| <= 1. It uses a closed form when the distribution provides one and
// otherwise sums the series until the remaining probability mass is
// negligible.
func PGF(d Distribution, x float64) float64 {
	if c, ok := d.(pgfer); ok {
		return c.PGFAt(x)
	}
	sum, mass := 0.0, 0.0
	xe := 1.0
	for k := 0; k < maxPGFTerms; k++ {
		p := d.PMF(k)
		sum += p * xe
		mass += p
		if mass > 1-1e-14 {
			break
		}
		xe *= x
	}
	return sum
}

// PGFPrime evaluates G'(x) = Σ k p_k x^(k-1).
func PGFPrime(d Distribution, x float64) float64 {
	if c, ok := d.(pgfPrimer); ok {
		return c.PGFPrimeAt(x)
	}
	sum, mass := 0.0, 0.0
	xe := 1.0 // x^(k-1) for k = 1
	for k := 0; k < maxPGFTerms; k++ {
		p := d.PMF(k)
		if k >= 1 {
			sum += float64(k) * p * xe
			xe *= x
		}
		mass += p
		if mass > 1-1e-14 {
			break
		}
	}
	return sum
}

// PGFPrime2 evaluates G”(x) = Σ k(k-1) p_k x^(k-2).
func PGFPrime2(d Distribution, x float64) float64 {
	if c, ok := d.(pgfPrime2er); ok {
		return c.PGFPrime2At(x)
	}
	sum, mass := 0.0, 0.0
	xe := 1.0 // x^(k-2) for k = 2
	for k := 0; k < maxPGFTerms; k++ {
		p := d.PMF(k)
		if k >= 2 {
			sum += float64(k) * float64(k-1) * p * xe
			xe *= x
		}
		mass += p
		if mass > 1-1e-14 {
			break
		}
	}
	return sum
}

// ---------------------------------------------------------------------------
// Poisson

// Poisson is the Po(z) fanout of the paper's case study.
type Poisson struct {
	z float64
	// expNegZ is e^(−z), the stopping threshold of Knuth's product method,
	// computed once: Sample is called per member per replication.
	expNegZ float64
}

// NewPoisson returns the Poisson distribution with mean z >= 0.
func NewPoisson(z float64) Poisson {
	if z < 0 || math.IsNaN(z) || math.IsInf(z, 0) {
		panic(fmt.Sprintf("dist: invalid Poisson mean %g", z))
	}
	return Poisson{z: z, expNegZ: math.Exp(-z)}
}

// Name implements Distribution.
func (p Poisson) Name() string { return fmt.Sprintf("Poisson(%g)", p.z) }

// Mean implements Distribution.
func (p Poisson) Mean() float64 { return p.z }

// PMF implements Distribution.
func (p Poisson) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	if p.z == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lk, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(p.z) - p.z - lk)
}

// Sample implements Distribution: Knuth's product method below
// knuthBelow, Hörmann's PTRS from there on.
func (p Poisson) Sample(r *xrand.RNG) int {
	if p.z <= 0 {
		return 0
	}
	if p.z < knuthBelow {
		return knuthPoisson(r, p.expNegZ)
	}
	return ptrsPoisson(r, p.z)
}

// PGFAt returns the closed form e^{z(x-1)}.
func (p Poisson) PGFAt(x float64) float64 { return math.Exp(p.z * (x - 1)) }

// PGFPrimeAt returns z·e^{z(x-1)}.
func (p Poisson) PGFPrimeAt(x float64) float64 { return p.z * math.Exp(p.z*(x-1)) }

// PGFPrime2At returns z²·e^{z(x-1)}.
func (p Poisson) PGFPrime2At(x float64) float64 { return p.z * p.z * math.Exp(p.z*(x-1)) }

// knuthBelow is the mean from which Poisson.Sample stops multiplying
// uniforms, which costs O(z) of them per draw.
const knuthBelow = 30

// knuthPoisson is Knuth's product method for the threshold l = e^(−z): the
// number of uniforms multiplied before the product falls to l or below.
func knuthPoisson(r *xrand.RNG, l float64) int {
	k := 0
	prod := r.Float64()
	for prod > l {
		k++
		prod *= r.Float64()
	}
	return k
}

// ptrsPoisson draws from Po(z) for z >= 10 by Hörmann's transformed
// rejection with squeeze (PTRS; "The transformed rejection method for
// generating Poisson random variables", 1993): exact, and O(1) expected
// uniform pairs per draw at any mean.
func ptrsPoisson(r *xrand.RNG, z float64) int {
	b := 0.931 + 2.53*math.Sqrt(z)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logZ := math.Log(z)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + z + 0.43)
		if us >= 0.07 && v <= vr {
			return clampDraw(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v)+math.Log(invAlpha)-math.Log(a/(us*us)+b) <= -z+k*logZ-lg {
			return clampDraw(k)
		}
	}
}

// clampDraw converts a non-negative draw to an int no larger than
// math.MaxInt32. Every draw site caps a fanout at its view's n − 1 < 2³¹,
// so no capped value changes, and a huge mean cannot overflow int.
func clampDraw(k float64) int {
	return int(min(k, math.MaxInt32))
}

// ---------------------------------------------------------------------------
// Fixed

// Fixed is the traditional deterministic fanout: every member forwards to
// exactly k targets.
type Fixed struct{ k int }

// NewFixed returns the point mass at k >= 0.
func NewFixed(k int) Fixed {
	if k < 0 {
		panic(fmt.Sprintf("dist: negative fixed fanout %d", k))
	}
	return Fixed{k: k}
}

// Name implements Distribution.
func (f Fixed) Name() string { return fmt.Sprintf("Fixed(%d)", f.k) }

// Mean implements Distribution.
func (f Fixed) Mean() float64 { return float64(f.k) }

// PMF implements Distribution.
func (f Fixed) PMF(k int) float64 {
	if k == f.k {
		return 1
	}
	return 0
}

// Sample implements Distribution.
func (f Fixed) Sample(*xrand.RNG) int { return f.k }

// PGFAt returns x^k.
func (f Fixed) PGFAt(x float64) float64 { return math.Pow(x, float64(f.k)) }

// PGFPrimeAt returns k·x^(k-1).
func (f Fixed) PGFPrimeAt(x float64) float64 {
	if f.k == 0 {
		return 0
	}
	return float64(f.k) * math.Pow(x, float64(f.k-1))
}

// PGFPrime2At returns k(k-1)·x^(k-2).
func (f Fixed) PGFPrime2At(x float64) float64 {
	if f.k < 2 {
		return 0
	}
	return float64(f.k) * float64(f.k-1) * math.Pow(x, float64(f.k-2))
}

// ---------------------------------------------------------------------------
// Geometric

// Geometric is the geometric distribution on {0, 1, ...} with success
// probability p: Pr[k] = p(1−p)^k, mean (1−p)/p.
type Geometric struct{ p float64 }

// NewGeometric returns the geometric distribution with parameter p in (0, 1].
func NewGeometric(p float64) Geometric {
	if !(p > 0 && p <= 1) {
		panic(fmt.Sprintf("dist: geometric parameter %g outside (0,1]", p))
	}
	return Geometric{p: p}
}

// Name implements Distribution.
func (g Geometric) Name() string { return fmt.Sprintf("Geometric(%g)", g.p) }

// Mean implements Distribution.
func (g Geometric) Mean() float64 { return (1 - g.p) / g.p }

// PMF implements Distribution.
func (g Geometric) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	return g.p * math.Pow(1-g.p, float64(k))
}

// Sample implements Distribution (inversion), clamped like every draw to
// math.MaxInt32.
func (g Geometric) Sample(r *xrand.RNG) int {
	if g.p == 1 {
		return 0
	}
	u := 1 - r.Float64() // in (0, 1]
	k := math.Log(u) / math.Log(1-g.p)
	if !(k >= 0) { // 1−p rounded to 1: the quotient is −Inf or NaN
		return math.MaxInt32
	}
	return clampDraw(k)
}

// PGFAt returns p / (1 − (1−p)x).
func (g Geometric) PGFAt(x float64) float64 { return g.p / (1 - (1-g.p)*x) }

// PGFPrimeAt returns p(1−p) / (1 − (1−p)x)².
func (g Geometric) PGFPrimeAt(x float64) float64 {
	d := 1 - (1-g.p)*x
	return g.p * (1 - g.p) / (d * d)
}

// PGFPrime2At returns 2p(1−p)² / (1 − (1−p)x)³.
func (g Geometric) PGFPrime2At(x float64) float64 {
	d := 1 - (1-g.p)*x
	return 2 * g.p * (1 - g.p) * (1 - g.p) / (d * d * d)
}

// ---------------------------------------------------------------------------
// Uniform range

// UniformRange is the uniform distribution on the integers {lo..hi}.
type UniformRange struct{ lo, hi int }

// NewUniformRange returns the uniform distribution on {lo..hi}.
func NewUniformRange(lo, hi int) UniformRange {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("dist: invalid uniform range [%d,%d]", lo, hi))
	}
	return UniformRange{lo: lo, hi: hi}
}

// Name implements Distribution.
func (u UniformRange) Name() string { return fmt.Sprintf("Uniform(%d..%d)", u.lo, u.hi) }

// Mean implements Distribution.
func (u UniformRange) Mean() float64 { return float64(u.lo+u.hi) / 2 }

// PMF implements Distribution.
func (u UniformRange) PMF(k int) float64 {
	if k < u.lo || k > u.hi {
		return 0
	}
	return 1 / float64(u.hi-u.lo+1)
}

// Sample implements Distribution.
func (u UniformRange) Sample(r *xrand.RNG) int { return u.lo + r.Intn(u.hi-u.lo+1) }

// ---------------------------------------------------------------------------
// Negative binomial

// NegBinomial is the overdispersed NB(r, p) on {0, 1, ...}: the number of
// failures before the r-th success, mean r(1−p)/p.
type NegBinomial struct {
	r int
	p float64
}

// NewNegBinomial returns NB(r, p) with r >= 1 successes and success
// probability p in (0, 1].
func NewNegBinomial(r int, p float64) NegBinomial {
	if r < 1 || !(p > 0 && p <= 1) {
		panic(fmt.Sprintf("dist: invalid negative binomial NB(%d, %g)", r, p))
	}
	return NegBinomial{r: r, p: p}
}

// Name implements Distribution.
func (nb NegBinomial) Name() string { return fmt.Sprintf("NegBinomial(%d,%g)", nb.r, nb.p) }

// Mean implements Distribution.
func (nb NegBinomial) Mean() float64 { return float64(nb.r) * (1 - nb.p) / nb.p }

// PMF implements Distribution.
func (nb NegBinomial) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	if nb.p == 1 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lkr, _ := math.Lgamma(float64(k + nb.r))
	lk, _ := math.Lgamma(float64(k) + 1)
	lr, _ := math.Lgamma(float64(nb.r))
	return math.Exp(lkr - lk - lr + float64(nb.r)*math.Log(nb.p) + float64(k)*math.Log1p(-nb.p))
}

// Sample implements Distribution: the sum of r independent geometrics.
func (nb NegBinomial) Sample(r *xrand.RNG) int {
	g := Geometric{p: nb.p}
	k := 0
	for i := 0; i < nb.r; i++ {
		k += g.Sample(r)
	}
	return k
}

// PGFAt returns (p / (1 − (1−p)x))^r.
func (nb NegBinomial) PGFAt(x float64) float64 {
	return math.Pow(nb.p/(1-(1-nb.p)*x), float64(nb.r))
}

// ---------------------------------------------------------------------------
// Zero truncation

// ZeroTruncated conditions a base distribution on being at least 1, so no
// member ever stays silent.
type ZeroTruncated struct {
	base Distribution
	p0   float64
}

// NewZeroTruncated returns base conditioned on {P >= 1}. The base must have
// Pr[P = 0] < 1.
func NewZeroTruncated(base Distribution) ZeroTruncated {
	p0 := base.PMF(0)
	if p0 >= 1 {
		panic("dist: cannot zero-truncate a point mass at zero")
	}
	return ZeroTruncated{base: base, p0: p0}
}

// Name implements Distribution.
func (z ZeroTruncated) Name() string { return "AtLeastOnce(" + z.base.Name() + ")" }

// Mean implements Distribution: E[P | P >= 1] = E[P] / (1 − p0).
func (z ZeroTruncated) Mean() float64 { return z.base.Mean() / (1 - z.p0) }

// PMF implements Distribution.
func (z ZeroTruncated) PMF(k int) float64 {
	if k < 1 {
		return 0
	}
	return z.base.PMF(k) / (1 - z.p0)
}

// Sample implements Distribution (rejection).
func (z ZeroTruncated) Sample(r *xrand.RNG) int {
	for {
		if k := z.base.Sample(r); k >= 1 {
			return k
		}
	}
}

// PGFAt returns (G(x) − p0) / (1 − p0).
func (z ZeroTruncated) PGFAt(x float64) float64 { return (PGF(z.base, x) - z.p0) / (1 - z.p0) }

// PGFPrimeAt returns G'(x) / (1 − p0).
func (z ZeroTruncated) PGFPrimeAt(x float64) float64 { return PGFPrime(z.base, x) / (1 - z.p0) }

// PGFPrime2At returns G”(x) / (1 − p0).
func (z ZeroTruncated) PGFPrime2At(x float64) float64 { return PGFPrime2(z.base, x) / (1 - z.p0) }
