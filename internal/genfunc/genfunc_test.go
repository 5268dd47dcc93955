package genfunc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gossipkit/internal/dist"
)

func TestPoissonCriticalRatio(t *testing.T) {
	// Paper Eq. 10: q_c = 1/z.
	for _, z := range []float64{1, 2, 3.3, 4, 6.7, 10} {
		if got := PoissonCriticalRatio(z); math.Abs(got-1/z) > 1e-15 {
			t.Errorf("qc(%g) = %g, want %g", z, got, 1/z)
		}
	}
	if got := PoissonCriticalRatio(0); !math.IsInf(got, 1) {
		t.Errorf("qc(0) = %g, want +Inf", got)
	}
}

func TestGenericCriticalMatchesPoisson(t *testing.T) {
	// For Po(z): G1'(1) = z, so CriticalRatio = 1/z.
	for _, z := range []float64{0.5, 1, 2.5, 4, 8} {
		m := New(dist.NewPoisson(z))
		if got := m.CriticalRatio(); math.Abs(got-1/z) > 1e-9 {
			t.Errorf("generic qc(Po(%g)) = %g, want %g", z, got, 1/z)
		}
	}
}

func TestCriticalRatioFixedFanout(t *testing.T) {
	// Fixed(k): G1'(1) = k-1, so q_c = 1/(k-1).
	for _, k := range []int{2, 3, 5, 10} {
		m := New(dist.NewFixed(k))
		want := 1 / float64(k-1)
		if got := m.CriticalRatio(); math.Abs(got-want) > 1e-9 {
			t.Errorf("qc(Fixed(%d)) = %g, want %g", k, got, want)
		}
	}
	// Fixed(1): chain graph, never percolates -> +Inf.
	if got := New(dist.NewFixed(1)).CriticalRatio(); !math.IsInf(got, 1) {
		t.Errorf("qc(Fixed(1)) = %g, want +Inf", got)
	}
}

func TestPoissonReliabilitySatisfiesEq11(t *testing.T) {
	// S must satisfy S = 1 - e^{-zqS} to near machine precision.
	for _, z := range []float64{1.5, 2, 3, 4, 6} {
		for _, q := range []float64{0.3, 0.5, 0.8, 1.0} {
			s, err := PoissonReliability(z, q)
			if err != nil {
				t.Fatal(err)
			}
			if z*q <= 1 {
				if s != 0 {
					t.Errorf("subcritical z=%g q=%g: S = %g, want 0", z, q, s)
				}
				continue
			}
			if resid := s - (1 - math.Exp(-z*q*s)); math.Abs(resid) > 1e-12 {
				t.Errorf("z=%g q=%g: Eq.11 residual %g", z, q, resid)
			}
			if s <= 0 || s >= 1 {
				t.Errorf("z=%g q=%g: S = %g outside (0,1)", z, q, s)
			}
		}
	}
}

func TestPoissonReliabilityKnownValues(t *testing.T) {
	// zq = 3.6 is the paper's Fig. 6/7 operating point; paper rounds the
	// reliability to 0.967, exact solution ~0.9694.
	s, err := PoissonReliability(4.0, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.9694) > 5e-4 {
		t.Errorf("S(zq=3.6) = %.6f, want ~0.9694", s)
	}
	s2, err := PoissonReliability(6.0, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-s2) > 1e-12 {
		t.Errorf("S depends only on zq: %.12f vs %.12f", s, s2)
	}
	// Classic giant-component value at zq=2: S ≈ 0.7968.
	s3, _ := PoissonReliability(2.0, 1.0)
	if math.Abs(s3-0.79681213) > 1e-6 {
		t.Errorf("S(2) = %.8f, want 0.79681213", s3)
	}
}

func TestGenericReliabilityMatchesPoissonClosedForm(t *testing.T) {
	// The generic NSW/Callaway solver and the closed-form Poisson solver
	// must agree for Poisson fanout.
	for _, z := range []float64{1.2, 2, 3.5, 5, 6.7} {
		m := New(dist.NewPoisson(z))
		for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
			want, err := PoissonReliability(z, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Reliability(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-8 {
				t.Errorf("z=%g q=%g: generic %.10f vs closed %.10f", z, q, got, want)
			}
		}
	}
}

func TestReliabilityMonotoneInQ(t *testing.T) {
	m := New(dist.NewPoisson(4))
	prev := -1.0
	for q := 0.0; q <= 1.0001; q += 0.05 {
		qq := math.Min(q, 1)
		s, err := m.Reliability(qq)
		if err != nil {
			t.Fatal(err)
		}
		if s < prev-1e-9 {
			t.Fatalf("reliability not monotone at q=%g: %g < %g", qq, s, prev)
		}
		prev = s
	}
}

func TestReliabilityMonotoneInFanout(t *testing.T) {
	prev := -1.0
	for z := 0.5; z <= 8; z += 0.25 {
		s, err := PoissonReliability(z, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if s < prev-1e-9 {
			t.Fatalf("reliability not monotone at z=%g", z)
		}
		prev = s
	}
}

func TestReliabilityZeroBelowCritical(t *testing.T) {
	// Paper Eq. 10 / Fig. 4-5 claim: below q = 1/z reliability vanishes.
	m := New(dist.NewPoisson(5))
	qc := m.CriticalRatio() // 0.2
	for _, q := range []float64{0, 0.05, 0.1, 0.15, 0.19} {
		s, err := m.Reliability(q)
		if err != nil {
			t.Fatal(err)
		}
		if s != 0 {
			t.Errorf("q=%g < qc=%g: S = %g, want 0", q, qc, s)
		}
	}
	for _, q := range []float64{0.25, 0.4, 1.0} {
		s, err := m.Reliability(q)
		if err != nil {
			t.Fatal(err)
		}
		if s <= 0 {
			t.Errorf("q=%g > qc=%g: S = %g, want > 0", q, qc, s)
		}
	}
}

func TestPoissonMeanFanoutInvertsReliability(t *testing.T) {
	// Eq. 12 round trip: z -> S -> z.
	for _, q := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		for _, s := range []float64{0.3, 0.5, 0.9, 0.99, 0.9999} {
			z, err := PoissonMeanFanout(s, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PoissonReliability(z, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-s) > 1e-9 {
				t.Errorf("q=%g S=%g: round-trip S = %.12f", q, s, got)
			}
		}
	}
}

func TestPoissonMeanFanoutPaperRange(t *testing.T) {
	// Fig. 2: at q=1, S=0.9999 needs z ≈ 9.21; at q=0.2 five times that.
	z1, err := PoissonMeanFanout(0.9999, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z1-9.2113) > 1e-3 {
		t.Errorf("z(S=0.9999, q=1) = %.4f, want ~9.2113", z1)
	}
	z02, err := PoissonMeanFanout(0.9999, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z02-5*z1) > 1e-9 {
		t.Errorf("z scales as 1/q: %g vs %g", z02, 5*z1)
	}
}

func TestPoissonMeanFanoutRejectsBadInput(t *testing.T) {
	for _, c := range []struct{ s, q float64 }{
		{0, 0.5}, {1, 0.5}, {1.2, 0.5}, {-0.1, 0.5}, {0.5, 0}, {0.5, 1.5},
	} {
		_, err := PoissonMeanFanout(c.s, c.q)
		if err == nil {
			t.Errorf("PoissonMeanFanout(%g, %g) accepted", c.s, c.q)
		} else if c.s == 0.5 && !strings.Contains(err.Error(), "(0,1]") {
			t.Errorf("PoissonMeanFanout(%g, %g): %q does not state the (0,1] bound it enforces", c.s, c.q, err)
		}
	}
}

func TestMeanComponentSize(t *testing.T) {
	m := New(dist.NewPoisson(4))
	// Subcritical q: finite mean size.
	s, err := m.MeanComponentSize(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(s, 0) || s <= 0 {
		t.Errorf("subcritical mean size = %g", s)
	}
	// Supercritical: diverges (+Inf by convention).
	s, err = m.MeanComponentSize(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(s, 1) {
		t.Errorf("supercritical mean size = %g, want +Inf", s)
	}
}

func TestMeanComponentSizeDivergesAtCritical(t *testing.T) {
	// Approaching qc from below the mean size must blow up.
	m := New(dist.NewPoisson(5))
	qc := m.CriticalRatio()
	s1, _ := m.MeanComponentSize(qc * 0.5)
	s2, _ := m.MeanComponentSize(qc * 0.9)
	s3, _ := m.MeanComponentSize(qc * 0.99)
	if !(s1 < s2 && s2 < s3) {
		t.Errorf("mean size not increasing toward qc: %g %g %g", s1, s2, s3)
	}
	if s3 < 10 {
		t.Errorf("mean size near qc = %g, expected large", s3)
	}
}

func TestInvalidRatios(t *testing.T) {
	m := New(dist.NewPoisson(3))
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := m.Reliability(q); err == nil {
			t.Errorf("Reliability(%g) accepted", q)
		}
		if _, err := m.MeanComponentSize(q); err == nil {
			t.Errorf("MeanComponentSize(%g) accepted", q)
		}
		if _, err := PoissonReliability(3, q); err == nil {
			t.Errorf("PoissonReliability(3, %g) accepted", q)
		}
	}
}

func TestFixedFanoutReliabilityKnownStructure(t *testing.T) {
	// Fixed(3), q=1: u solves u = G1(u) = u^2 -> u = 0 (smallest root),
	// S = 1 - G0(0) = 1. A 3-regular random graph is fully connected
	// in the NSW sense (no finite components in the limit).
	m := New(dist.NewFixed(3))
	s, err := m.Reliability(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("S(Fixed(3), q=1) = %.12f, want 1", s)
	}
}

func TestFixedFanoutReliabilityWithFailures(t *testing.T) {
	// Fixed(3), q=0.8: u = 1 - q + q u^2 has roots u=1 and u=(1-q)/q=0.25.
	// S = 1 - G0(u) = 1 - u^3 = 1 - 0.015625 = 0.984375.
	m := New(dist.NewFixed(3))
	s, err := m.Reliability(0.8)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(0.25, 3)
	if math.Abs(s-want) > 1e-9 {
		t.Errorf("S(Fixed(3), q=0.8) = %.12f, want %.12f", s, want)
	}
}

func TestGeometricReliability(t *testing.T) {
	// Geometric has heavier tail than Poisson with same mean; its excess
	// degree branching factor G1'(1) = 2(1-p)/p is twice its mean, so the
	// critical q is half of Poisson's with equal mean.
	g := dist.NewGeometric(1.0 / 3) // mean 2
	m := New(g)
	wantQc := 1 / (2 * g.Mean())
	if got := m.CriticalRatio(); math.Abs(got-wantQc) > 1e-9 {
		t.Errorf("qc(Geom mean 2) = %g, want %g", got, wantQc)
	}
	mp := New(dist.NewPoisson(2))
	if got := mp.CriticalRatio(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("qc(Po(2)) = %g, want 0.5", got)
	}
}

func TestForwardReachEqualsPoissonClosedForm(t *testing.T) {
	for _, z := range []float64{1.5, 3, 4.5} {
		for _, q := range []float64{0.4, 0.9} {
			a, err := ForwardReach(z, q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := PoissonReliability(z, q)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("ForwardReach(%g,%g) = %g != %g", z, q, a, b)
			}
		}
	}
}

func TestFiniteForwardReachConvergesToAsymptotic(t *testing.T) {
	p := dist.NewPoisson(4)
	asym, err := ForwardReach(4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	prevGap := math.Inf(1)
	for _, n := range []int{100, 1000, 10000, 100000} {
		y, err := FiniteForwardReach(p, n, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		gap := math.Abs(y - asym)
		if gap > prevGap+1e-9 {
			t.Errorf("n=%d: finite-size gap %g did not shrink (prev %g)", n, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 1e-3 {
		t.Errorf("n=100000 gap to asymptotic = %g, want < 1e-3", prevGap)
	}
}

func TestFiniteForwardReachRejectsBadInput(t *testing.T) {
	p := dist.NewPoisson(3)
	if _, err := FiniteForwardReach(p, 1, 0.5); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := FiniteForwardReach(p, 100, -0.5); err == nil {
		t.Error("q=-0.5 accepted")
	}
}

func TestFiniteForwardReachSubcritical(t *testing.T) {
	p := dist.NewPoisson(0.5)
	y, err := FiniteForwardReach(p, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if y != 0 {
		t.Errorf("subcritical finite reach = %g, want 0", y)
	}
}

func TestReliabilityQuickProperty(t *testing.T) {
	// For any Poisson fanout and ratio, the generic solver stays in [0,1]
	// and satisfies its own self-consistency equation.
	f := func(zRaw, qRaw uint16) bool {
		z := 0.1 + float64(zRaw%80)/10 // 0.1 .. 8.0
		q := float64(qRaw%101) / 100   // 0 .. 1
		m := New(dist.NewPoisson(z))
		s, err := m.Reliability(q)
		if err != nil || s < 0 || s > 1 {
			return false
		}
		if z*q > 1.05 && s > 1e-6 {
			// Supercritical: verify S = 1 - G0(u), u = 1-q+q*G1(u)
			// indirectly through the Poisson closed form.
			want, err := PoissonReliability(z, q)
			if err != nil {
				return false
			}
			return math.Abs(s-want) < 1e-6
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReliabilityNearCriticality walks q = q_c·(1+10⁻ᵏ), k = 1…15, down
// to the critical point. S must fall monotonically to 0 there — below the
// solver's resolution the answer is the critical one (u = 1, S = 0), never
// an unconverged iterate — and for Poisson it must track Eq. 11's closed
// form.
func TestReliabilityNearCriticality(t *testing.T) {
	for _, d := range []dist.Distribution{
		dist.NewPoisson(2), dist.NewPoisson(4), dist.NewGeometric(0.2),
		dist.NewFixed(5), dist.NewUniformRange(1, 7),
	} {
		m := New(d)
		qc := m.CriticalRatio()
		prev := math.Inf(1)
		for k := 1; k <= 15; k++ {
			q := qc * (1 + math.Pow(10, -float64(k)))
			s, err := m.Reliability(q)
			if err != nil {
				t.Fatalf("%s q=%.17g: %v", d.Name(), q, err)
			}
			if s > prev {
				t.Errorf("%s: S = %.3g at q = q_c(1+1e-%d) exceeds %.3g one decade further from q_c", d.Name(), s, k, prev)
			}
			prev = s
			if p, ok := d.(dist.Poisson); ok {
				want, err := PoissonReliability(p.Mean(), q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(s-want) > 1e-8 {
					t.Errorf("%s k=%d: S = %.10g, Eq. 11 closed form %.10g", d.Name(), k, s, want)
				}
			}
		}
	}
}

func BenchmarkPoissonReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PoissonReliability(4, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenericReliabilityPoisson(b *testing.B) {
	m := New(dist.NewPoisson(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Reliability(0.9); err != nil {
			b.Fatal(err)
		}
	}
}
