package stats

import (
	"math"
	"testing"
	"testing/quick"

	"gossipkit/internal/xrand"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 {
		t.Fatal("zero value not clean")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", r.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %g, want %g", r.Variance(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %g/%g", r.Min(), r.Max())
	}
	if r.StdErr() <= 0 || r.CI95() <= r.StdErr() {
		t.Errorf("stderr %g, ci %g", r.StdErr(), r.CI95())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Variance() != 0 || r.Mean() != 3.5 || r.Min() != 3.5 || r.Max() != 3.5 {
		t.Error("single-sample stats wrong")
	}
}

func TestRunningMergeEqualsSequential(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 3 {
			return true
		}
		var all, left, right Running
		split := len(raw) / 2
		for i, v := range raw {
			x := float64(v)/100 - 300
			all.Add(x)
			if i < split {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(right)
		return left.N() == all.N() &&
			math.Abs(left.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(left.Variance()-all.Variance()) < 1e-6*(1+all.Variance()) &&
			left.Min() == all.Min() && left.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(2)
	saved := a
	a.Merge(b) // empty other: no-op
	if a != saved {
		t.Error("merging empty changed accumulator")
	}
	b.Merge(a) // empty receiver: copy
	if b.N() != 2 || b.Mean() != 1.5 {
		t.Error("merge into empty failed")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(5)
	for _, k := range []int{0, 1, 1, 2, 7, -3} { // 7 and -3 clamp
		h.Add(k)
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Count(1) != 2 || h.Count(4) != 1 || h.Count(0) != 2 {
		t.Errorf("counts wrong: %v", h.Counts())
	}
	if math.Abs(h.Freq(1)-2.0/6) > 1e-12 {
		t.Errorf("freq(1) = %g", h.Freq(1))
	}
	if h.Count(99) != 0 || h.Count(-1) != 0 {
		t.Error("out-of-range Count must be 0")
	}
	if got := len(h.Counts()); got != 5 {
		t.Errorf("bins = %d", got)
	}
}

func TestHistogramInvalidBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(0)
}

func TestBinomialPMFKnownValues(t *testing.T) {
	// B(5, 0.5): symmetric, PMF(2) = 10/32.
	if got := BinomialPMF(5, 2, 0.5); math.Abs(got-10.0/32) > 1e-12 {
		t.Errorf("PMF(5,2,0.5) = %g", got)
	}
	if got := BinomialPMF(5, 0, 0.5); math.Abs(got-1.0/32) > 1e-12 {
		t.Errorf("PMF(5,0,0.5) = %g", got)
	}
	// Edge parameters.
	if BinomialPMF(4, 0, 0) != 1 || BinomialPMF(4, 4, 1) != 1 {
		t.Error("degenerate PMFs wrong")
	}
	if BinomialPMF(4, -1, 0.5) != 0 || BinomialPMF(4, 5, 0.5) != 0 {
		t.Error("out-of-support PMFs must be 0")
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw%50) + 1
		p := float64(pRaw%1001) / 1000
		var sum float64
		for k := 0; k <= n; k++ {
			sum += BinomialPMF(n, k, p)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBinomialPMFsVector(t *testing.T) {
	v := BinomialPMFs(20, 0.967)
	if len(v) != 21 {
		t.Fatalf("len = %d", len(v))
	}
	var sum float64
	for _, p := range v {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mass = %g", sum)
	}
	// Mode at k=20 for p=0.967 (paper Figs. 6-7 shape: spike at 20).
	best := 0
	for k, p := range v {
		if p > v[best] {
			best = k
		}
	}
	if best != 20 {
		t.Errorf("mode at %d, want 20", best)
	}
}

func TestAtLeastOne(t *testing.T) {
	// Eq. 5: Pr = 1 - (1-p)^t.
	if got := AtLeastOne(0.5, 2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AtLeastOne(0.5,2) = %g", got)
	}
	if AtLeastOne(0, 10) != 0 || AtLeastOne(1, 1) != 1 || AtLeastOne(0.3, 0) != 0 {
		t.Error("edge cases wrong")
	}
	// High-precision regime: tiny p, many trials. The naive 1-(1-p)^t
	// loses digits; compare against the binomial series
	// t·p − C(t,2)·p² (higher terms < 1e-18).
	got := AtLeastOne(1e-9, 1000)
	want := 1000*1e-9 - (1000*999.0/2)*1e-18
	if math.Abs(got-want) > 1e-16 {
		t.Errorf("precision: %g vs %g", got, want)
	}
}

func TestMinTrialsPaperValues(t *testing.T) {
	// Paper §5.2: ps=0.999, pr=0.967 → t >= lg(0.001)/lg(0.033) ≈ 2.03,
	// so t = 3 per the paper's statement "t should be greater than three"
	// — the exact ceiling is 3 (2.0255... → 3? ceil(2.03) = 3). Verify
	// ceiling arithmetic directly.
	tmin, err := MinTrials(0.999, 0.967)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(math.Log(1-0.999) / math.Log(1-0.967)))
	if tmin != want {
		t.Errorf("MinTrials = %d, want %d", tmin, want)
	}
	if tmin != 3 {
		t.Errorf("MinTrials(0.999, 0.967) = %d, paper says 3", tmin)
	}
}

func TestMinTrialsSatisfiesTarget(t *testing.T) {
	f := func(psRaw, prRaw uint16) bool {
		ps := 0.5 + float64(psRaw%499)/1000 // 0.5 .. 0.998
		pr := 0.01 + float64(prRaw%990)/1000
		tmin, err := MinTrials(ps, pr)
		if err != nil {
			return false
		}
		// t_min achieves the target, t_min - 1 does not.
		if AtLeastOne(pr, tmin) < ps-1e-12 {
			return false
		}
		if tmin > 1 && AtLeastOne(pr, tmin-1) >= ps {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMinTrialsErrors(t *testing.T) {
	for _, c := range []struct{ ps, pr float64 }{
		{0, 0.5}, {1, 0.5}, {0.9, 0}, {0.9, -1}, {0.9, 1.5},
	} {
		if _, err := MinTrials(c.ps, c.pr); err == nil {
			t.Errorf("MinTrials(%g, %g) accepted", c.ps, c.pr)
		}
	}
	if tmin, err := MinTrials(0.999, 1); err != nil || tmin != 1 {
		t.Errorf("MinTrials(_, 1) = %d, %v", tmin, err)
	}
}

func TestChiSquareSFKnownValues(t *testing.T) {
	// Known chi-square critical values: P[X > 3.841] = 0.05 for k=1;
	// P[X > 5.991] = 0.05 for k=2; P[X > 18.307] = 0.05 for k=10.
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{3.841, 1, 0.05},
		{5.991, 2, 0.05},
		{18.307, 10, 0.05},
		{6.635, 1, 0.01},
		{23.209, 10, 0.01},
	}
	for _, c := range cases {
		if got := ChiSquareSF(c.x, c.k); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("SF(%g, %d) = %.5f, want %.2f", c.x, c.k, got, c.want)
		}
	}
	if ChiSquareSF(0, 3) != 1 || ChiSquareSF(-1, 3) != 1 {
		t.Error("SF at non-positive x must be 1")
	}
}

func TestChiSquareGOFAcceptsTrueModel(t *testing.T) {
	// Sample from B(20, 0.7) and test against its own PMF: p-value should
	// rarely be tiny.
	r := xrand.New(99)
	n, p := 20, 0.7
	pmf := BinomialPMFs(n, p)
	obs := make([]int64, n+1)
	const draws = 20000
	for i := 0; i < draws; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if r.Float64() < p {
				k++
			}
		}
		obs[k]++
	}
	stat, dof, pv, err := ChiSquare(obs, pmf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dof < 3 {
		t.Errorf("dof = %d, pooling too aggressive", dof)
	}
	if pv < 0.001 {
		t.Errorf("true model rejected: stat=%.2f dof=%d p=%.5f", stat, dof, pv)
	}
}

func TestChiSquareGOFRejectsWrongModel(t *testing.T) {
	// Sample from B(20, 0.5), test against B(20, 0.7): must reject hard.
	r := xrand.New(7)
	obs := make([]int64, 21)
	for i := 0; i < 20000; i++ {
		k := 0
		for j := 0; j < 20; j++ {
			if r.Float64() < 0.5 {
				k++
			}
		}
		obs[k]++
	}
	_, _, pv, err := ChiSquare(obs, BinomialPMFs(20, 0.7), 5)
	if err != nil {
		t.Fatal(err)
	}
	if pv > 1e-6 {
		t.Errorf("wrong model not rejected: p = %g", pv)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, _, err := ChiSquare([]int64{1, 2}, []float64{1}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, _, err := ChiSquare([]int64{0, 0}, []float64{0.5, 0.5}, 5); err == nil {
		t.Error("empty observations accepted")
	}
	if _, _, _, err := ChiSquare([]int64{-1, 2}, []float64{0.5, 0.5}, 5); err == nil {
		t.Error("negative count accepted")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {1, 5}, {0.125, 1.5},
	} {
		got, err := Quantile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Q(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	// Input must not be mutated (sorted copy).
	if xs[0] != 3 {
		t.Error("Quantile mutated input")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("p > 1 accepted")
	}
}

func BenchmarkRunningAdd(b *testing.B) {
	var r Running
	for i := 0; i < b.N; i++ {
		r.Add(float64(i % 1000))
	}
}

func BenchmarkBinomialPMFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = BinomialPMFs(20, 0.967)
	}
}

func BenchmarkChiSquare(b *testing.B) {
	obs := make([]int64, 21)
	for i := range obs {
		obs[i] = int64(i * 10)
	}
	pmf := BinomialPMFs(20, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ChiSquare(obs, pmf, 5); err != nil {
			b.Fatal(err)
		}
	}
}
