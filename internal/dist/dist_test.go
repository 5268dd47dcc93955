package dist

import (
	"math"
	"testing"

	"gossipkit/internal/xrand"
)

// TestDistributions checks, for every family, the identities the analytic
// model and the samplers both lean on: the PMF is a probability
// distribution, Mean() is the PGF's derivative at 1, and Sample draws from
// the PMF's support with the stated mean.
func TestDistributions(t *testing.T) {
	for _, d := range []Distribution{
		NewPoisson(0),
		NewPoisson(4),
		NewPoisson(45), // above the sampler's Knuth branch: drawn by PTRS
		NewFixed(0),
		NewFixed(3),
		NewGeometric(0.2),
		NewGeometric(1),
		NewUniformRange(1, 5),
		NewUniformRange(2, 2),
		NewNegBinomial(4, 0.5),
		NewZeroTruncated(NewPoisson(3.5)),
		NewZeroTruncated(NewGeometric(0.4)),
	} {
		t.Run(d.Name(), func(t *testing.T) {
			const support = 2000 // every case's mass beyond this is < 1e-15
			var mass float64
			for k := -1; k <= support; k++ {
				p := d.PMF(k)
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("PMF(%d) = %g", k, p)
				}
				if k < 0 && p != 0 {
					t.Fatalf("PMF(%d) = %g, want 0 below the support", k, p)
				}
				mass += p
			}
			if math.Abs(mass-1) > 1e-9 {
				t.Errorf("PMF sums to %.12f", mass)
			}
			if g1 := PGF(d, 1); math.Abs(g1-1) > 1e-9 {
				t.Errorf("G(1) = %.12f", g1)
			}
			mean := d.Mean()
			if gp := PGFPrime(d, 1); math.Abs(gp-mean) > 1e-9*math.Max(1, mean) {
				t.Errorf("Mean() = %.12f but G'(1) = %.12f", mean, gp)
			}

			// Var = G''(1) + G'(1) − G'(1)²; the sample mean of N draws must
			// sit within 4σ/√N of Mean() (fixed seed, so not flaky).
			variance := PGFPrime2(d, 1) + mean - mean*mean
			if variance < -1e-9 {
				t.Fatalf("variance %g from the PGF derivatives", variance)
			}
			const draws = 100_000
			r := xrand.New(2008)
			var sum float64
			for i := 0; i < draws; i++ {
				k := d.Sample(r)
				if d.PMF(k) == 0 {
					t.Fatalf("sampled %d, outside the PMF's support", k)
				}
				sum += float64(k)
			}
			tol := 4*math.Sqrt(math.Max(variance, 0)/draws) + 1e-12
			if got := sum / draws; math.Abs(got-mean) > tol {
				t.Errorf("sample mean %.5f vs Mean() %.5f (4σ tolerance %.5f)", got, mean, tol)
			}
		})
	}
}

// TestConstructorsRejectOutOfRange: invalid parameters are programmer
// error and panic (untrusted input goes through gossipkit.ParseFanout,
// which validates first).
func TestConstructorsRejectOutOfRange(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, build := range map[string]func(){
		"Poisson(-1)":        func() { NewPoisson(-1) },
		"Poisson(NaN)":       func() { NewPoisson(nan) },
		"Poisson(Inf)":       func() { NewPoisson(inf) },
		"Fixed(-1)":          func() { NewFixed(-1) },
		"Geometric(0)":       func() { NewGeometric(0) },
		"Geometric(1.5)":     func() { NewGeometric(1.5) },
		"Geometric(NaN)":     func() { NewGeometric(nan) },
		"Uniform(-1,3)":      func() { NewUniformRange(-1, 3) },
		"Uniform(4,3)":       func() { NewUniformRange(4, 3) },
		"NegBinomial(0,0.5)": func() { NewNegBinomial(0, 0.5) },
		"NegBinomial(2,0)":   func() { NewNegBinomial(2, 0) },
		"ZeroTruncated(δ0)":  func() { NewZeroTruncated(NewFixed(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}

// refSamplePoisson is Poisson.Sample as it stood before NewPoisson cached
// e^(−z): the threshold recomputed on every draw. From z = 30 on it hands
// over to PTRS, which has no threshold to cache.
func refSamplePoisson(r *xrand.RNG, z float64) int {
	if z <= 0 {
		return 0
	}
	if z < 30 {
		l := math.Exp(-z)
		k := 0
		prod := r.Float64()
		for prod > l {
			k++
			prod *= r.Float64()
		}
		return k
	}
	return ptrsPoisson(r, z)
}

// TestPoissonSampleMatchesReference holds the cached threshold to the
// recomputed one draw for draw — same value, same uniforms consumed — on
// both sides of the Knuth/PTRS boundary and at the degenerate means.
func TestPoissonSampleMatchesReference(t *testing.T) {
	for _, z := range []float64{0, 1e-9, 0.3, 5, 29.999, 30, 200} {
		p := NewPoisson(z)
		got, want := xrand.New(7), xrand.New(7)
		for i := 0; i < 5000; i++ {
			if g, w := p.Sample(got), refSamplePoisson(want, z); g != w {
				t.Fatalf("z=%g draw %d: %d, reference %d", z, i, g, w)
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Errorf("z=%g: the streams parted (next Uint64 %#x, reference %#x)", z, g, w)
		}
	}
}

// TestPTRSMatchesPMF holds PTRS to the Poisson PMF by a chi-square test
// over every bin with at least 5 expected draws plus one bin pooling both
// tails. The bound is the chi-square quantile at 1 − 10⁻⁶ (Wilson–Hilferty),
// so a correct sampler fails it at about one seed in 10⁶ per mean.
func TestPTRSMatchesPMF(t *testing.T) {
	const draws = 500_000
	for _, z := range []float64{30, 45.5, 200, 1e4} {
		p := NewPoisson(z)
		counts := map[int]float64{}
		r := xrand.New(11)
		for i := 0; i < draws; i++ {
			counts[p.Sample(r)]++
		}
		lo, hi := int(z), int(z) // the bins with at least 5 expected draws
		for p.PMF(lo-1)*draws >= 5 {
			lo--
		}
		for p.PMF(hi+1)*draws >= 5 {
			hi++
		}
		var chi2, tail, pTail float64 = 0, draws, 1
		for k := lo; k <= hi; k++ {
			e := p.PMF(k) * draws
			chi2 += (counts[k] - e) * (counts[k] - e) / e
			tail -= counts[k]
			pTail -= p.PMF(k)
		}
		if e := pTail * draws; e > 0 {
			chi2 += (tail - e) * (tail - e) / e
		}
		df := float64(hi - lo + 1)
		h := 2 / (9 * df)
		if bound := df * math.Pow(1-h+4.753*math.Sqrt(h), 3); chi2 > bound {
			t.Errorf("Poisson(%g): chi-square %.1f on %g degrees of freedom, bound %.1f", z, chi2, df, bound)
		}
	}
}

// TestPoissonHugeMean: a draw at any accepted mean is non-negative and
// costs O(1) uniforms. The split sampler took 51 ms per draw at z = 10⁷
// and never finished at 10¹². At 10⁹ PTRS's sample mean sits within
// 5σ/√N; past math.MaxInt32 every draw clamps there.
func TestPoissonHugeMean(t *testing.T) {
	r := xrand.New(3)
	const draws = 10_000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += float64(NewPoisson(1e9).Sample(r))
	}
	if got, tol := sum/draws, 5*math.Sqrt(1e9/draws); math.Abs(got-1e9) > tol {
		t.Errorf("Poisson(1e9) sample mean %.0f, want 1e9 ± %.0f", got, tol)
	}
	for _, d := range []Distribution{NewPoisson(1e12), NewPoisson(1e300), NewGeometric(1e-19)} {
		if k := d.Sample(r); k != math.MaxInt32 {
			t.Errorf("%s sampled %d, want math.MaxInt32", d.Name(), k)
		}
	}
}
