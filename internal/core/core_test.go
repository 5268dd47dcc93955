package core

import (
	"context"
	"math"
	"testing"

	"gossipkit/internal/dist"
	"gossipkit/internal/failure"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/membership"
	"gossipkit/internal/xrand"
)

func poissonParams(n int, z, q float64) Params {
	return Params{
		N:          n,
		Fanout:     dist.NewPoisson(z),
		AliveRatio: q,
		Source:     0,
	}
}

func TestParamsValidate(t *testing.T) {
	good := poissonParams(100, 4, 0.9)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"tiny group", func(p *Params) { p.N = 1 }},
		{"nil fanout", func(p *Params) { p.Fanout = nil }},
		{"negative q", func(p *Params) { p.AliveRatio = -0.1 }},
		{"q > 1", func(p *Params) { p.AliveRatio = 1.5 }},
		{"NaN q", func(p *Params) { p.AliveRatio = math.NaN() }},
		{"bad source", func(p *Params) { p.Source = 100 }},
		{"negative source", func(p *Params) { p.Source = -1 }},
		{"bad mask kind", func(p *Params) { p.MaskKind = MaskKind(9) }},
		{"view mismatch", func(p *Params) { p.View = membership.NewFullView(7) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p := good
			c.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid params accepted")
			}
		})
	}
}

func TestExecuteOnceBasicInvariants(t *testing.T) {
	p := poissonParams(500, 4, 0.8)
	r := xrand.New(1)
	for i := 0; i < 20; i++ {
		res, err := ExecuteOnce(p, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.AliveCount != 400 {
			t.Fatalf("alive = %d, want 400 (exact mask)", res.AliveCount)
		}
		if res.Delivered < 1 || res.Delivered > res.AliveCount {
			t.Fatalf("delivered = %d of %d", res.Delivered, res.AliveCount)
		}
		if res.Reliability != float64(res.Delivered)/float64(res.AliveCount) {
			t.Fatal("reliability inconsistent with counts")
		}
		if res.MessagesSent < res.Delivered-1 {
			t.Fatalf("messages %d < delivered-1 %d", res.MessagesSent, res.Delivered-1)
		}
		if res.WastedOnFailed > res.MessagesSent {
			t.Fatal("wasted exceeds sent")
		}
		if res.Delivered > 1 && res.Rounds < 1 {
			t.Fatal("spread happened but rounds = 0")
		}
	}
}

func TestExecuteOnceFullReliabilityNoFailuresHighFanout(t *testing.T) {
	// Fixed fanout 20 with no failures on 200 nodes reaches everyone
	// with overwhelming probability.
	p := Params{N: 200, Fanout: dist.NewFixed(20), AliveRatio: 1, Source: 3}
	r := xrand.New(5)
	res, err := ExecuteOnce(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != 1 {
		t.Errorf("reliability = %g, want 1", res.Reliability)
	}
}

func TestExecuteOnceZeroFanoutDiesImmediately(t *testing.T) {
	p := Params{N: 100, Fanout: dist.NewFixed(0), AliveRatio: 1, Source: 0}
	r := xrand.New(7)
	res, err := ExecuteOnce(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.MessagesSent != 0 || res.Rounds != 0 {
		t.Errorf("zero fanout: %+v", res)
	}
}

func TestExecuteOnceSubcritical(t *testing.T) {
	// q=0.1 with z=4 is below q_c=0.25: spread must die out quickly.
	p := poissonParams(2000, 4, 0.1)
	r := xrand.New(9)
	var worst float64
	for i := 0; i < 20; i++ {
		res, err := ExecuteOnce(p, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reliability > worst {
			worst = res.Reliability
		}
	}
	if worst > 0.1 {
		t.Errorf("subcritical reliability reached %g", worst)
	}
}

func TestSimulationMatchesAnalyticModel(t *testing.T) {
	// The core validation of the paper (Figs. 4-5): the simulated
	// giant-component reliability tracks the Eq. 11 prediction.
	for _, c := range []struct {
		n    int
		z, q float64
	}{
		{1000, 4.0, 0.9},
		{1000, 6.0, 0.6},
		{1000, 3.0, 1.0},
		{2000, 5.0, 0.5},
		{5000, 2.5, 0.8},
	} {
		p := poissonParams(c.n, c.z, c.q)
		est, err := EstimateComponentReliabilityCtx(context.Background(), p, 40, 42, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := genfunc.PoissonReliability(c.z, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Mean-want) > 0.02 {
			t.Errorf("n=%d z=%g q=%g: measured %.4f, model %.4f", c.n, c.z, c.q, est.Mean, want)
		}
		// The directed source reach sits below the giant fraction by
		// the die-out mass (ablation A6).
		if est.MeanSourceReach > est.Mean+0.02 {
			t.Errorf("n=%d z=%g q=%g: source reach %.4f above giant %.4f",
				c.n, c.z, c.q, est.MeanSourceReach, est.Mean)
		}
	}
}

func TestDirectedReachEqualsSTimesOutbreak(t *testing.T) {
	// Ablation A6: the protocol-true directed reach averages
	// S·Pr(outbreak) ≈ S² for Poisson fanout (the spread dies near the
	// source with probability ≈ 1−S), strictly below the paper's S.
	z, q := 4.0, 0.9
	p := poissonParams(2000, z, q)
	est, err := EstimateReliabilityCtx(context.Background(), p, 400, 13, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := genfunc.PoissonReliability(z, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-s*s) > 0.02 {
		t.Errorf("directed mean %.4f, want S² = %.4f", est.Mean, s*s)
	}
	if est.Mean >= s-0.01 {
		t.Errorf("directed mean %.4f should sit below S = %.4f", est.Mean, s)
	}
	// The SourceInGiant frequency of the component semantics is S too.
	cEst, err := EstimateComponentReliabilityCtx(context.Background(), p, 400, 14, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cEst.SourceInGiantRate-s) > 0.03 {
		t.Errorf("source-in-giant rate %.4f, want S = %.4f", cEst.SourceInGiantRate, s)
	}
}

func TestFixedFanoutMatchesForwardSpreadNotUndirectedModel(t *testing.T) {
	// Ablation A1: for Fixed fanout the directed forward-spread solver
	// (which depends only on the mean) is the right predictor of gossip
	// reach; the undirected NSW giant component differs measurably at
	// moderate fanout and q=1 (undirected: S=1 for Fixed(3); directed
	// spread: y = 1-e^{-3y} ≈ 0.941).
	p := Params{N: 5000, Fanout: dist.NewFixed(3), AliveRatio: 1, Source: 0}
	est, err := EstimateReliabilityCtx(context.Background(), p, 40, 7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	forward, err := genfunc.ForwardReach(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	undirected, err := genfunc.New(dist.NewFixed(3)).Reliability(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-forward) > 0.02 {
		t.Errorf("measured %.4f, forward-spread %.4f", est.Mean, forward)
	}
	if math.Abs(est.Mean-undirected) < 0.02 {
		t.Errorf("measured %.4f should differ from undirected model %.4f", est.Mean, undirected)
	}
}

func TestMaskKindsAgree(t *testing.T) {
	// Exact and Bernoulli masks give statistically indistinguishable
	// giant-component reliability at n=2000.
	pe := poissonParams(2000, 4, 0.8)
	pb := pe
	pb.MaskKind = Bernoulli
	ee, err := EstimateComponentReliabilityCtx(context.Background(), pe, 40, 11, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EstimateComponentReliabilityCtx(context.Background(), pb, 40, 12, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ee.Mean-eb.Mean) > 0.02 {
		t.Errorf("exact %.4f vs bernoulli %.4f", ee.Mean, eb.Mean)
	}
}

func TestExecuteWithMaskValidation(t *testing.T) {
	// executor.run spreads over the mask it is handed, not the one it
	// owns: the success protocol reuses one mask across executions.
	p := poissonParams(100, 4, 0.9)
	ex := newExecutor(p)
	sourceOnly := new(failure.Mask)
	sourceOnly.FillExact(100, 0, p.Source, xrand.New(1)) // q = 0: only the source is up
	if res := ex.run(sourceOnly, xrand.New(2)); res.AliveCount != 1 || res.Delivered != 1 || res.Reliability != 1 {
		t.Errorf("source-only mask: %+v", res)
	}
	if res := ex.run(failure.NewMask(100), xrand.New(2)); res.AliveCount != 100 || res.WastedOnFailed != 0 {
		t.Errorf("all-alive mask: %+v", res)
	}
}

func TestEstimateReliabilityDeterministic(t *testing.T) {
	p := poissonParams(500, 4, 0.8)
	a, err := EstimateReliabilityCtx(context.Background(), p, 30, 99, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateReliabilityCtx(context.Background(), p, 30, 99, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different estimates:\n%+v\n%+v", a, b)
	}
	c, err := EstimateReliabilityCtx(context.Background(), p, 30, 100, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean == c.Mean && a.StdDev == c.StdDev {
		t.Error("different seeds produced identical estimates")
	}
}

func TestEstimateReliabilityFields(t *testing.T) {
	p := poissonParams(500, 4, 0.8)
	est, err := EstimateReliabilityCtx(context.Background(), p, 25, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Runs != 25 {
		t.Errorf("runs = %d", est.Runs)
	}
	if est.Min > est.Mean || est.Mean > est.Max {
		t.Errorf("min/mean/max ordering: %g %g %g", est.Min, est.Mean, est.Max)
	}
	if est.CI95 <= 0 || est.MeanMessages <= 0 || est.MeanRounds <= 0 {
		t.Errorf("degenerate aggregates: %+v", est)
	}
	if _, err := EstimateReliabilityCtx(context.Background(), p, 0, 1, 0, nil); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestPredict(t *testing.T) {
	p := poissonParams(1000, 4, 0.9)
	pred, err := Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := genfunc.PoissonReliability(4, 0.9)
	if math.Abs(pred.Reliability-want) > 1e-8 {
		t.Errorf("prediction %.8f, want %.8f", pred.Reliability, want)
	}
	if math.Abs(pred.CriticalRatio-0.25) > 1e-9 {
		t.Errorf("qc = %g", pred.CriticalRatio)
	}
	if !pred.Supercritical || pred.MeanFanout != 4 {
		t.Errorf("prediction fields: %+v", pred)
	}
	sub := poissonParams(1000, 4, 0.2)
	predSub, err := Predict(sub)
	if err != nil {
		t.Fatal(err)
	}
	if predSub.Supercritical || predSub.Reliability != 0 {
		t.Errorf("subcritical prediction: %+v", predSub)
	}
}

func TestPartialViewReliabilityClose(t *testing.T) {
	// Ablation A5: SCAMP-style partial views with mean size ~2·ln(n)
	// should approximate full-view gossip reliability (views are large
	// enough to keep target selection near-uniform).
	r := xrand.New(33)
	n := 1000
	pv := membership.NewPartialViews(n, 1, r)
	pv.Shuffle(10, 3, r)
	pFull := poissonParams(n, 4, 0.9)
	pPart := pFull
	pPart.View = pv
	full, err := EstimateReliabilityCtx(context.Background(), pFull, 30, 21, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	part, err := EstimateReliabilityCtx(context.Background(), pPart, 30, 22, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Mean-part.Mean) > 0.08 {
		t.Errorf("full-view %.4f vs partial-view %.4f", full.Mean, part.Mean)
	}
}

func TestRoundsGrowLogarithmically(t *testing.T) {
	// Gossip spreads in O(log n) hops; doubling n four times should add
	// only a few rounds.
	est1, err := EstimateReliabilityCtx(context.Background(), poissonParams(500, 6, 1), 20, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := EstimateReliabilityCtx(context.Background(), poissonParams(8000, 6, 1), 20, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est2.MeanRounds > est1.MeanRounds*3 {
		t.Errorf("rounds grew too fast: %g -> %g", est1.MeanRounds, est2.MeanRounds)
	}
}

func TestMaskKindString(t *testing.T) {
	if ExactCount.String() != "exact" || Bernoulli.String() != "bernoulli" {
		t.Error("MaskKind strings wrong")
	}
	if MaskKind(7).String() != "MaskKind(7)" {
		t.Error("unknown MaskKind string wrong")
	}
}

func BenchmarkExecuteOnce1000(b *testing.B) {
	p := poissonParams(1000, 4, 0.9)
	r := xrand.New(1)
	ex := newExecutor(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ex.execute(r)
	}
}

func BenchmarkExecuteOnce5000(b *testing.B) {
	p := poissonParams(5000, 4, 0.9)
	r := xrand.New(1)
	ex := newExecutor(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ex.execute(r)
	}
}

func BenchmarkEstimateReliabilityParallel(b *testing.B) {
	p := poissonParams(1000, 4, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateReliabilityCtx(context.Background(), p, 20, uint64(i), 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
