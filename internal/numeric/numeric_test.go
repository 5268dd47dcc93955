package numeric

import (
	"errors"
	"math"
	"testing"
)

func TestBrentKnownRoots(t *testing.T) {
	cases := []struct {
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{func(x float64) float64 { return math.Sin(x) - 0.5 }, 0, 1, math.Pi / 6},
		{func(x float64) float64 { return math.Exp(-x) - x }, 0, 1, 0.5671432904097838}, // the omega constant
	}
	for i, c := range cases {
		rb, err := Brent(c.f, c.a, c.b, 1e-13)
		if err != nil {
			t.Fatalf("Brent fn %d: %v", i, err)
		}
		if math.Abs(rb-c.want) > 1e-9 {
			t.Errorf("fn %d: Brent %.14f, want %.14f", i, rb, c.want)
		}
		if math.Abs(c.f(rb)) > 1e-9 {
			t.Errorf("fn %d: |f(root)| = %g", i, math.Abs(c.f(rb)))
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := Brent(f, -2, 2, 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestNewtonBracketed(t *testing.T) {
	// The percolation-style equation: s - 1 + exp(-a s) = 0 with a = 3.
	a := 3.0
	f := func(s float64) float64 { return s - 1 + math.Exp(-a*s) }
	df := func(s float64) float64 { return 1 - a*math.Exp(-a*s) }
	got, err := NewtonBracketed(f, df, 1e-9, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f(got)) > 1e-12 {
		t.Errorf("residual %g", f(got))
	}
	// Known value: S solves S = 1 - e^{-3S}; S ≈ 0.940479...
	if math.Abs(got-0.9404798) > 1e-6 {
		t.Errorf("root %.7f, want ~0.9404798", got)
	}
}

func TestNewtonBracketedFlatDerivative(t *testing.T) {
	// df returns zero everywhere; must still converge by bisection.
	f := func(x float64) float64 { return x - 0.25 }
	df := func(float64) float64 { return 0 }
	got, err := NewtonBracketed(f, df, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-10 {
		t.Errorf("root %.12f, want 0.25", got)
	}
}

func TestFixedPointContraction(t *testing.T) {
	// g(x) = cos(x) has the Dottie number as unique fixed point.
	got, err := FixedPoint(math.Cos, 0.5, 1, 1e-13, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.7390851332151607) > 1e-9 {
		t.Errorf("fixed point %.14f", got)
	}
}

func TestFixedPointDamping(t *testing.T) {
	// g(x) = 2.8(1-x)x: undamped iteration oscillates for the logistic
	// map at r=2.8? (r<3 converges, but slowly); damping should converge.
	g := func(x float64) float64 { return 2.8 * x * (1 - x) }
	got, err := FixedPoint(g, 0.3, 0.5, 1e-12, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 1/2.8
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("fixed point %.12f, want %.12f", got, want)
	}
}

func TestFixedPointBadDamping(t *testing.T) {
	if _, err := FixedPoint(math.Cos, 0, 0, 1e-12, 10); err == nil {
		t.Error("damping 0 accepted")
	}
	if _, err := FixedPoint(math.Cos, 0, 1.5, 1e-12, 10); err == nil {
		t.Error("damping 1.5 accepted")
	}
}

func TestFixedPointNoConverge(t *testing.T) {
	g := func(x float64) float64 { return -x } // oscillates forever
	if _, err := FixedPoint(g, 1, 1, 1e-15, 50); !errors.Is(err, ErrNoConverge) {
		t.Errorf("want ErrNoConverge, got %v", err)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(xs) != len(want) {
		t.Fatalf("len %d", len(xs))
	}
	for i := range xs {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Errorf("xs[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
}

func TestLinspaceEndpointExact(t *testing.T) {
	xs := Linspace(1.1, 6.7, 15)
	if xs[len(xs)-1] != 6.7 {
		t.Errorf("last element %.17f, want exactly 6.7", xs[len(xs)-1])
	}
}

func TestArangePaperSweep(t *testing.T) {
	// The paper's fanout sweep: 1.10 to 6.7 step 0.4 → 15 points.
	xs := Arange(1.1, 6.7, 0.4)
	if len(xs) != 15 {
		t.Fatalf("sweep has %d points, want 15: %v", len(xs), xs)
	}
	if math.Abs(xs[0]-1.1) > 1e-12 || math.Abs(xs[14]-6.7) > 1e-9 {
		t.Errorf("sweep endpoints %g..%g", xs[0], xs[14])
	}
}

func BenchmarkBrentPercolationEquation(b *testing.B) {
	a := 3.6
	f := func(s float64) float64 { return s - 1 + math.Exp(-a*s) }
	for i := 0; i < b.N; i++ {
		if _, err := Brent(f, 1e-12, 1, 1e-14); err != nil {
			b.Fatal(err)
		}
	}
}
