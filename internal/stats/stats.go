package stats

import (
	"fmt"
	"math"
	"sort"
)

// ---------------------------------------------------------------------------
// Running moments

// Running accumulates streaming mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += float64(d * (x - r.mean))
}

// N returns the number of samples.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 for no samples).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest sample (0 for no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 for no samples).
func (r *Running) Max() float64 { return r.max }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// CI95 returns the half-width of a ~95% normal-approximation confidence
// interval on the mean.
func (r *Running) CI95() float64 { return 1.96 * r.StdErr() }

// Merge combines another accumulator into r (parallel reduction).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := float64(r.n + o.n)
	d := o.mean - r.mean
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/n
	r.mean += d * float64(o.n) / n
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n += o.n
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram counts integer-valued observations in [0, Bins).
type Histogram struct {
	counts []int64
	total  int64
}

// NewHistogram returns a histogram over {0..bins-1}.
func NewHistogram(bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: invalid bin count %d", bins))
	}
	return &Histogram{counts: make([]int64, bins)}
}

// Add counts one observation of value k; out-of-range values clamp to the
// nearest bin.
func (h *Histogram) Add(k int) {
	if k < 0 {
		k = 0
	}
	if k >= len(h.counts) {
		k = len(h.counts) - 1
	}
	h.counts[k]++
	h.total++
}

// Reset zeroes the counts in place, keeping the bin layout, so pooled
// consumers (the observability probes) reuse one histogram across runs.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int64 {
	return append([]int64(nil), h.counts...)
}

// Count returns the count in bin k.
func (h *Histogram) Count(k int) int64 {
	if k < 0 || k >= len(h.counts) {
		return 0
	}
	return h.counts[k]
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Freq returns the empirical frequency of bin k.
func (h *Histogram) Freq(k int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(k)) / float64(h.total)
}

// ---------------------------------------------------------------------------
// Binomial law (paper Eq. 5)

// BinomialPMF returns Pr[X = k] for X ~ B(n, p), computed in log space.
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return math.Exp(ln - lk - lnk + float64(float64(k)*math.Log(p)) + float64(float64(n-k)*math.Log1p(-p)))
}

// BinomialPMFs returns the full PMF vector of B(n, p) over {0..n}.
func BinomialPMFs(n int, p float64) []float64 {
	out := make([]float64, n+1)
	for k := range out {
		out[k] = BinomialPMF(n, k, p)
	}
	return out
}

// AtLeastOne returns 1 - (1-p)^t: the probability that at least one of t
// independent trials with success probability p succeeds (paper Eq. 5).
func AtLeastOne(p float64, t int) float64 {
	if t <= 0 {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return -math.Expm1(float64(t) * math.Log1p(-p))
}

// MinTrials returns the smallest t with 1 - (1-pr)^t >= ps: the paper's
// Eq. 6, t >= lg(1-ps)/lg(1-pr). It returns an error when the target is
// unreachable (pr <= 0) or the inputs are not probabilities.
func MinTrials(ps, pr float64) (int, error) {
	if !(ps > 0 && ps < 1) {
		return 0, fmt.Errorf("stats: success target %g outside (0,1)", ps)
	}
	if !(pr > 0 && pr <= 1) {
		return 0, fmt.Errorf("stats: per-trial reliability %g outside (0,1]", pr)
	}
	if pr == 1 {
		return 1, nil
	}
	t := math.Log1p(-ps) / math.Log1p(-pr)
	n := int(math.Ceil(t - 1e-12))
	if n < 1 {
		n = 1
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Goodness of fit

// ChiSquare compares observed counts with expected probabilities and returns
// the chi-square statistic, the degrees of freedom, and the p-value.
// Bins with expected count below minExpected (commonly 5) are pooled into
// their neighbor to keep the asymptotic distribution valid.
func ChiSquare(observed []int64, expectedProb []float64, minExpected float64) (stat float64, dof int, p float64, err error) {
	if len(observed) != len(expectedProb) {
		return 0, 0, 0, fmt.Errorf("stats: length mismatch %d vs %d", len(observed), len(expectedProb))
	}
	var total int64
	for _, o := range observed {
		if o < 0 {
			return 0, 0, 0, fmt.Errorf("stats: negative observed count")
		}
		total += o
	}
	if total == 0 {
		return 0, 0, 0, fmt.Errorf("stats: no observations")
	}
	if minExpected <= 0 {
		minExpected = 5
	}
	// Pool adjacent bins until every pooled bin has sufficient expected
	// mass.
	type bin struct {
		obs float64
		exp float64
	}
	var bins []bin
	var accO, accE float64
	for i := range observed {
		accO += float64(observed[i])
		accE += expectedProb[i] * float64(total)
		if accE >= minExpected {
			bins = append(bins, bin{accO, accE})
			accO, accE = 0, 0
		}
	}
	if accE > 0 || accO > 0 {
		if len(bins) > 0 {
			bins[len(bins)-1].obs += accO
			bins[len(bins)-1].exp += accE
		} else {
			bins = append(bins, bin{accO, accE})
		}
	}
	if len(bins) < 2 {
		return 0, 0, 1, nil // everything pooled into one bin: trivially consistent
	}
	for _, b := range bins {
		if b.exp <= 0 {
			return 0, 0, 0, fmt.Errorf("stats: zero expected mass in pooled bin")
		}
		d := b.obs - b.exp
		stat += d * d / b.exp
	}
	dof = len(bins) - 1
	p = ChiSquareSF(stat, dof)
	return stat, dof, p, nil
}

// ChiSquareSF returns the survival function Pr[X > x] for a chi-square
// distribution with k degrees of freedom, via the regularized upper
// incomplete gamma function Q(k/2, x/2).
func ChiSquareSF(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	return regIncGammaQ(float64(k)/2, x/2)
}

// regIncGammaQ computes the regularized upper incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a) using the series expansion for x < a+1 and the
// continued fraction otherwise (Numerical Recipes style).
func regIncGammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - regIncGammaPSeries(a, x)
	}
	return regIncGammaQCF(a, x)
}

func regIncGammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func regIncGammaQCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation on the sorted copy.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: empty sample")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: quantile %g outside [0,1]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
