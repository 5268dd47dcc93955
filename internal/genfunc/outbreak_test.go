package genfunc

import (
	"math"
	"testing"
	"testing/quick"

	"gossipkit/internal/dist"
)

func TestOutbreakProbabilityPoissonEqualsS(t *testing.T) {
	// For Poisson fanout the offspring PGF equals the excess-degree PGF,
	// so Pr(outbreak) = S.
	for _, z := range []float64{1.5, 2.5, 4, 6} {
		for _, q := range []float64{0.5, 0.9, 1.0} {
			ob, err := OutbreakProbability(dist.NewPoisson(z), q)
			if err != nil {
				t.Fatal(err)
			}
			s, err := PoissonReliability(z, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ob-s) > 1e-8 {
				t.Errorf("z=%g q=%g: outbreak %.10f, S %.10f", z, q, ob, s)
			}
		}
	}
}

func TestOutbreakProbabilityFixedNoExtinction(t *testing.T) {
	// Fixed(k>=2) at q=1: every infected member produces exactly k
	// offspring; extinction is impossible.
	for _, k := range []int{2, 3, 5} {
		ob, err := OutbreakProbability(dist.NewFixed(k), 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ob-1) > 1e-9 {
			t.Errorf("Fixed(%d) q=1: outbreak %.10f, want 1", k, ob)
		}
	}
}

func TestOutbreakProbabilityFixedWithFailures(t *testing.T) {
	// Fixed(2), q=0.8: offspring ~ Bin(2, 0.8); extinction prob solves
	// η = (0.2 + 0.8η)², smallest root = 0.0625.
	ob, err := OutbreakProbability(dist.NewFixed(2), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.0625
	if math.Abs(ob-want) > 1e-9 {
		t.Errorf("outbreak %.10f, want %.10f", ob, want)
	}
}

func TestOutbreakSubcritical(t *testing.T) {
	ob, err := OutbreakProbability(dist.NewPoisson(4), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if ob != 0 {
		t.Errorf("subcritical outbreak %.10f", ob)
	}
	if _, err := OutbreakProbability(dist.NewPoisson(4), -1); err == nil {
		t.Error("bad ratio accepted")
	}
}

func TestOutbreakShapeDependence(t *testing.T) {
	// Same mean 4, same q: Fixed has a strictly higher outbreak
	// probability than Poisson, which beats the heavy-tailed Geometric.
	q := 0.9
	obF, _ := OutbreakProbability(dist.NewFixed(4), q)
	obP, _ := OutbreakProbability(dist.NewPoisson(4), q)
	obG, _ := OutbreakProbability(dist.NewGeometric(0.2), q)
	if !(obF > obP && obP > obG) {
		t.Errorf("outbreak ordering violated: Fixed %.4f, Poisson %.4f, Geom %.4f", obF, obP, obG)
	}
}

func TestExpectedOneShotReachPoissonIsSSquared(t *testing.T) {
	for _, z := range []float64{2, 4, 6} {
		q := 0.9
		got, err := ExpectedOneShotReach(dist.NewPoisson(z), q)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := PoissonReliability(z, q)
		if math.Abs(got-s*s) > 1e-8 {
			t.Errorf("z=%g: one-shot %.8f, want S² = %.8f", z, got, s*s)
		}
	}
}

func TestExpectedOneShotReachSubcritical(t *testing.T) {
	got, err := ExpectedOneShotReach(dist.NewPoisson(0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("subcritical one-shot reach %.8f", got)
	}
}

func TestJointReliabilityNoLossMatchesEq11(t *testing.T) {
	p := dist.NewPoisson(4)
	a, err := JointReliability(p, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonReliability(4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("loss=0: %.10f vs %.10f", a, b)
	}
}

func TestJointReliabilityLossThinsFanout(t *testing.T) {
	p := dist.NewPoisson(5)
	q := 0.8
	withLoss, err := JointReliability(p, q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	thinned, err := PoissonReliability(5*0.75, q)
	if err != nil {
		t.Fatal(err)
	}
	if withLoss != thinned {
		t.Errorf("loss thinning: %.10f vs %.10f", withLoss, thinned)
	}
	noLoss, _ := JointReliability(p, q, 0)
	if withLoss >= noLoss {
		t.Error("loss did not reduce reliability")
	}
}

func TestJointReliabilityValidation(t *testing.T) {
	p := dist.NewPoisson(4)
	if _, err := JointReliability(p, 0.9, -0.1); err == nil {
		t.Error("negative loss accepted")
	}
	if _, err := JointReliability(p, 0.9, 1.5); err == nil {
		t.Error("loss > 1 accepted")
	}
	if _, err := JointReliability(p, 2, 0); err == nil {
		t.Error("bad ratio accepted")
	}
}

func TestOutbreakQuickProperties(t *testing.T) {
	f := func(zRaw, qRaw uint16) bool {
		z := 0.2 + float64(zRaw%70)/10
		q := float64(qRaw%101) / 100
		ob, err := OutbreakProbability(dist.NewPoisson(z), q)
		if err != nil || ob < 0 || ob > 1 {
			return false
		}
		reach, err := ExpectedOneShotReach(dist.NewPoisson(z), q)
		if err != nil || reach < 0 || reach > ob+1e-12 {
			return false // one-shot reach cannot exceed outbreak prob
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOutbreakProbability(b *testing.B) {
	p := dist.NewPoisson(4)
	for i := 0; i < b.N; i++ {
		if _, err := OutbreakProbability(p, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}
