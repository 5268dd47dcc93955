package gossipkit

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestParseFanout: the untrusted-input constructor errors (matching
// ErrInvalidParams) where the panicking constructors would panic.
func TestParseFanout(t *testing.T) {
	valid := []struct {
		kind string
		mean float64
		name string
	}{
		{"poisson", 4, "Poisson(4)"},
		{"fixed", 3.7, "Fixed(3)"},
		{"geometric", 4, "Geometric(0.2)"},
		{"uniform", 5, "Uniform(1..5)"},
	}
	for _, tc := range valid {
		d, err := ParseFanout(tc.kind, tc.mean)
		if err != nil {
			t.Errorf("ParseFanout(%q, %g): %v", tc.kind, tc.mean, err)
			continue
		}
		if d.Name() != tc.name {
			t.Errorf("ParseFanout(%q, %g) = %s, want %s", tc.kind, tc.mean, d.Name(), tc.name)
		}
	}
	invalid := []struct {
		kind string
		mean float64
	}{
		{"poisson", -1},
		{"poisson", math.NaN()},
		{"poisson", math.Inf(1)},
		{"fixed", math.Inf(-1)},
		{"uniform", 0.5},
		{"cauchy", 4},
	}
	for _, tc := range invalid {
		d, err := ParseFanout(tc.kind, tc.mean)
		if err == nil {
			t.Errorf("ParseFanout(%q, %g) = %v, want error", tc.kind, tc.mean, d.Name())
			continue
		}
		if !errors.Is(err, ErrInvalidParams) {
			t.Errorf("ParseFanout(%q, %g) error %v does not match ErrInvalidParams", tc.kind, tc.mean, err)
		}
	}
}

// FuzzParseFanout: untrusted (kind, mean) input never panics, every
// rejection matches ErrInvalidParams, and exactly the documented inputs are
// rejected — non-finite or negative means, unknown kinds, a uniform mean
// below 1, and integer-valued kinds whose truncated mean would overflow.
// Every accepted distribution draws non-negative fanouts, promptly: a
// geometric mean past 1.8·10¹⁶ used to draw math.MinInt64, and a Poisson
// draw cost O(mean) uniforms.
func FuzzParseFanout(f *testing.F) {
	for _, kind := range []string{"poisson", "fixed", "geometric", "uniform", "cauchy", ""} {
		for _, mean := range []float64{0, 0.5, 1, 3.7, 4, -1, 1e19, 1e300,
			math.MaxInt32, math.MaxInt32 + 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			f.Add(kind, mean)
		}
	}
	f.Fuzz(func(t *testing.T, kind string, mean float64) {
		d, err := ParseFanout(kind, mean)
		integer := kind == "fixed" || kind == "uniform"
		wantErr := mean < 0 || math.IsNaN(mean) || math.IsInf(mean, 0) ||
			(kind != "poisson" && kind != "geometric" && !integer) ||
			(integer && mean > math.MaxInt32) ||
			(kind == "uniform" && mean < 1)
		if err != nil {
			if !wantErr {
				t.Fatalf("ParseFanout(%q, %g) rejected valid input: %v", kind, mean, err)
			}
			if !errors.Is(err, ErrInvalidParams) || d != nil {
				t.Fatalf("ParseFanout(%q, %g) = %v, %v: want nil and an ErrInvalidParams", kind, mean, d, err)
			}
			return
		}
		if wantErr {
			t.Fatalf("ParseFanout(%q, %g) accepted %s", kind, mean, d.Name())
		}
		want := mean
		switch kind {
		case "fixed":
			want = math.Floor(mean)
		case "uniform":
			want = (1 + math.Floor(mean)) / 2
		}
		if got := d.Mean(); math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("ParseFanout(%q, %g).Mean() = %g, want %g", kind, mean, got, want)
		}
		r := NewRNG(1)
		for range 16 {
			if k := d.Sample(r); k < 0 {
				t.Fatalf("ParseFanout(%q, %g) sampled %d", kind, mean, k)
			}
		}
	})
}

func TestFacadeQuickstartFlow(t *testing.T) {
	p := Params{N: 1000, Fanout: Poisson(4), AliveRatio: 0.9}
	pred, err := Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Reliability < 0.9 || pred.Reliability > 1 {
		t.Fatalf("prediction %.4f out of expected band", pred.Reliability)
	}
	out, err := RunMany(context.Background(), MonteCarlo{Params: p}, 20, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	est := out.Aggregate.(ComponentEstimate)
	if math.Abs(est.Mean-pred.Reliability) > 0.03 {
		t.Errorf("measured %.4f vs predicted %.4f", est.Mean, pred.Reliability)
	}
}

func TestFacadeDistributions(t *testing.T) {
	r := NewRNG(1)
	for _, d := range []Distribution{
		Poisson(3), FixedFanout(4), GeometricFanout(0.4), UniformFanout(1, 5),
	} {
		if d.Mean() <= 0 {
			t.Errorf("%s mean %g", d.Name(), d.Mean())
		}
		if k := d.Sample(r); k < 0 {
			t.Errorf("%s sampled %d", d.Name(), k)
		}
	}
}

func TestFacadeDesignEquations(t *testing.T) {
	z, err := FanoutForReliability(0.99, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if z <= 1/0.8 {
		t.Errorf("fanout %g below critical", z)
	}
	if qc := CriticalRatio(4); qc != 0.25 {
		t.Errorf("critical ratio %g", qc)
	}
	tmin, err := ExecutionsForSuccess(Params{N: 1000, Fanout: Poisson(4), AliveRatio: 0.9}, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if tmin < 1 || tmin > 10 {
		t.Errorf("executions %d", tmin)
	}
}

// TestDesignFunctionsWrapErrInvalidParams: Predict, ExecutionsForSuccess
// and FanoutForReliability fail only on their input, so every error they
// return matches ErrInvalidParams, as Run's does for the same Params. They
// used to return the internal error bare.
func TestDesignFunctionsWrapErrInvalidParams(t *testing.T) {
	ok := Params{N: 1000, Fanout: Poisson(4), AliveRatio: 0.9}
	with := func(n int, q float64) Params { p := ok; p.N, p.AliveRatio = n, q; return p }
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Predict N=1", func() error { _, err := Predict(with(1, 0.9)); return err }},
		{"Predict q=1.5", func() error { _, err := Predict(with(1000, 1.5)); return err }},
		{"Predict q=NaN", func() error { _, err := Predict(with(1000, math.NaN())); return err }},
		{"ExecutionsForSuccess N=1", func() error { _, err := ExecutionsForSuccess(with(1, 0.9), 0.999); return err }},
		{"ExecutionsForSuccess target=1", func() error { _, err := ExecutionsForSuccess(ok, 1); return err }},
		{"ExecutionsForSuccess target=NaN", func() error { _, err := ExecutionsForSuccess(ok, math.NaN()); return err }},
		{"ExecutionsForSuccess q below q_c", func() error { _, err := ExecutionsForSuccess(with(1000, 0.2), 0.999); return err }},
		{"FanoutForReliability s=1", func() error { _, err := FanoutForReliability(1, 0.8); return err }},
		{"FanoutForReliability s=NaN", func() error { _, err := FanoutForReliability(math.NaN(), 0.8); return err }},
		{"FanoutForReliability q=0", func() error { _, err := FanoutForReliability(0.9, 0); return err }},
		{"FanoutForReliability q=NaN", func() error { _, err := FanoutForReliability(0.9, math.NaN()); return err }},
	} {
		if err := c.call(); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: err %v, want ErrInvalidParams", c.name, err)
		}
	}
}

func TestFacadeExecuteAndViews(t *testing.T) {
	r := NewRNG(7)
	pv := PartialViews(200, 1, r)
	p := Params{N: 200, Fanout: Poisson(4), AliveRatio: 1, View: pv}
	out, err := Run(context.Background(), MonteCarlo{Params: p, Metric: SourceReach}, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Reports[0].Detail.(Result); res.Delivered < 1 {
		t.Error("nothing delivered")
	}
	full := FullView(200)
	if full.N() != 200 || full.Degree(3) != 199 {
		t.Error("full view wrong")
	}
}

func TestFacadeNetworkExecution(t *testing.T) {
	p := Params{N: 300, Fanout: Poisson(5), AliveRatio: 1}
	out, err := Run(context.Background(), Network{Params: p}, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Reports[0].Detail.(NetResult); res.Delivered < 1 || res.Net.Sent == 0 {
		t.Errorf("network execution: %+v", res.Result)
	}
}

func TestFacadeSuccessProtocol(t *testing.T) {
	run, err := Run(context.Background(), Success{Params: SuccessParams{
		Params:      Params{N: 300, Fanout: Poisson(5), AliveRatio: 0.9},
		Executions:  5,
		Simulations: 4,
	}}, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if out := run.Aggregate.(SuccessOutcome); out.ReceiptHistogram.Total() != 4*270 {
		t.Errorf("histogram total %d", out.ReceiptHistogram.Total())
	}
}
