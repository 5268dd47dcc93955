package core

import (
	"context"
	"math"
	"testing"
	"time"

	"gossipkit/internal/genfunc"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

func successParams(n int, z, q float64, t, sims int) SuccessParams {
	return SuccessParams{
		Params:      poissonParams(n, z, q),
		Executions:  t,
		Simulations: sims,
	}
}

func TestSuccessParamsValidate(t *testing.T) {
	good := successParams(100, 4, 0.9, 5, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := good
	bad.Executions = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero executions accepted")
	}
	bad = good
	bad.Simulations = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero simulations accepted")
	}
	bad = good
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Error("inner params not validated")
	}
}

func TestRunSuccessHistogramAccounting(t *testing.T) {
	p := successParams(400, 4, 0.9, 10, 8)
	out, err := RunSuccessCtx(context.Background(), p, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Total observations = simulations × alive members (exact mask:
	// 360 per simulation).
	want := int64(8 * 360)
	if out.ReceiptHistogram.Total() != want {
		t.Errorf("histogram total = %d, want %d", out.ReceiptHistogram.Total(), want)
	}
	if len(out.ReceiptHistogram.Counts()) != 11 {
		t.Errorf("bins = %d, want 11", len(out.ReceiptHistogram.Counts()))
	}
	if out.Simulations != 8 || out.Executions != 10 {
		t.Errorf("echo fields wrong: %+v", out)
	}
	if out.MeanExecutionReliability <= 0 || out.MeanExecutionReliability > 1 {
		t.Errorf("mean execution reliability = %g", out.MeanExecutionReliability)
	}
}

func TestRunSuccessMatchesBinomial(t *testing.T) {
	// The paper's Fig. 6 claim: X ~ B(t, p_r) where p_r is the
	// per-execution receipt probability. The honest empirical p_r is the
	// mean directed-execution reliability (≈ S² for Poisson, because of
	// early die-outs; see ComponentResult); against that parameter the
	// receipt distribution must match in mean and be close in shape.
	p := successParams(2000, 4.0, 0.9, 20, 60)
	// all collects each simulation's share of members with X = 20.
	var all stats.Running
	out, err := RunSuccessCtx(context.Background(), p, 7, 0, func(_ int, s SuccessSim) {
		var tot int64
		for _, c := range s.Counts {
			tot += c
		}
		all.Add(float64(s.Counts[20]) / float64(tot))
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := out.MeanExecutionReliability
	s, err := genfunc.PoissonReliability(4.0, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel-s*s) > 0.02 {
		t.Errorf("empirical p_r = %.4f, want ≈ S² = %.4f", rel, s*s)
	}
	// Empirical mean receipt count equals t·p_r by construction of p_r;
	// verify the accounting is consistent.
	var sum, tot float64
	for k := 0; k <= 20; k++ {
		c := float64(out.ReceiptHistogram.Count(k))
		sum += float64(k) * c
		tot += c
	}
	meanX := sum / tot
	if math.Abs(meanX-20*rel) > 0.15 {
		t.Errorf("mean X = %.3f, want t·p_r = %.3f", meanX, 20*rel)
	}
	// The shape is a near-spike at high k like the paper's figure.
	mode := 0
	for k := 1; k <= 20; k++ {
		if out.ReceiptHistogram.Count(k) > out.ReceiptHistogram.Count(mode) {
			mode = k
		}
	}
	if mode < 18 {
		t.Errorf("mode at %d, want near 20", mode)
	}
	// A member's receipts in distinct executions are independent, so
	// Pr(X = 20) is p_r^20, however much the members of one simulation
	// share its take-offs. That sharing is why the check runs over the
	// per-simulation shares, whose spread gives the tolerance.
	if want := math.Pow(rel, 20); math.Abs(all.Mean()-want) > 3*all.StdErr() {
		t.Errorf("Pr(X = 20) = %.4f ± %.4f over %d simulations, want p_r^20 = %.4f", all.Mean(), all.StdErr(), all.N(), want)
	}
}

func TestRunSuccessPaperOperatingPoints(t *testing.T) {
	// {f=4.0, q=0.9} and {f=6.0, q=0.6} share zq=3.6 and hence R; their
	// receipt distributions must be close to each other (paper's
	// observation), though not identical.
	a, err := RunSuccessCtx(context.Background(), successParams(2000, 4.0, 0.9, 20, 40), 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuccessCtx(context.Background(), successParams(2000, 6.0, 0.6, 20, 40), 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.MeanExecutionReliability-b.MeanExecutionReliability) > 0.02 {
		t.Errorf("reliabilities differ: %.4f vs %.4f",
			a.MeanExecutionReliability, b.MeanExecutionReliability)
	}
}

func TestRunSuccessDeterministic(t *testing.T) {
	p := successParams(300, 4, 0.8, 5, 10)
	a, err := RunSuccessCtx(context.Background(), p, 17, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuccessCtx(context.Background(), p, 17, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 5; k++ {
		if a.ReceiptHistogram.Count(k) != b.ReceiptHistogram.Count(k) {
			t.Fatalf("histograms differ at bin %d", k)
		}
	}
	if a.SuccessRate != b.SuccessRate {
		t.Error("success rates differ")
	}
}

func TestRunSuccessResampleMaskLowersPerMemberCounts(t *testing.T) {
	// Ablation A3: with resampled masks a member is dead in ~1-q of the
	// executions, so mean X drops from t·R toward t·q·R (it cannot
	// receive while dead).
	fixed, err := RunSuccessCtx(context.Background(), successParams(1000, 5, 0.6, 10, 30), 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	resampled := successParams(1000, 5, 0.6, 10, 30)
	resampled.ResampleMask = true
	res, err := RunSuccessCtx(context.Background(), resampled, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(o SuccessOutcome) float64 {
		var sum, tot float64
		for k := 0; k <= 10; k++ {
			c := float64(o.ReceiptHistogram.Count(k))
			sum += float64(k) * c
			tot += c
		}
		return sum / tot
	}
	mFixed, mRes := meanOf(fixed), meanOf(res)
	if mRes >= mFixed-0.5 {
		t.Errorf("resampled mean X %.3f not clearly below fixed %.3f", mRes, mFixed)
	}
}

func TestSuccessRateTracksEq5(t *testing.T) {
	// With t executions, Pr(per-member miss) = (1-R)^t; group success
	// needs all ~n·q members to hit. For t large enough the success rate
	// must approach 1; for t=1 with R<1 it must be ~0 at this scale.
	pLow := successParams(500, 5, 0.9, 1, 20)
	low, err := RunSuccessCtx(context.Background(), pLow, 9, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if low.SuccessRate > 0.2 {
		t.Errorf("t=1 success rate %.2f unexpectedly high", low.SuccessRate)
	}
	pHigh := successParams(500, 5, 0.9, 12, 20)
	high, err := RunSuccessCtx(context.Background(), pHigh, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if high.SuccessRate < 0.8 {
		t.Errorf("t=12 success rate %.2f unexpectedly low", high.SuccessRate)
	}
}

func TestChiSquareIdentifiesParameter(t *testing.T) {
	// Member receipts are correlated within an execution (a die-out
	// hits everyone at once), so with ~10^5 member-observations the
	// chi-square will formally reject even the best binomial. What must
	// hold is that the statistic strongly prefers the empirical p_r over
	// wrong parameters — that is the sense in which the paper's
	// "simulation tallies with B(20, 0.967)" survives scrutiny.
	p := successParams(2000, 4.0, 0.9, 50, 50)
	out, err := RunSuccessCtx(context.Background(), p, 77, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	relStat, dof, _, err := out.ChiSquareAgainst(out.MeanExecutionReliability)
	if err != nil {
		t.Fatal(err)
	}
	if dof < 1 {
		t.Errorf("dof = %d", dof)
	}
	for _, wrong := range []float64{0.80, 0.99} {
		wrongStat, _, _, err := out.ChiSquareAgainst(wrong)
		if err != nil {
			t.Fatal(err)
		}
		if wrongStat < relStat*2 {
			t.Errorf("chi-square does not separate p=%.2f (stat %.1f) from empirical p_r (stat %.1f)",
				wrong, wrongStat, relStat)
		}
	}
}

func TestRequiredExecutions(t *testing.T) {
	p := poissonParams(2000, 4.0, 0.9)
	tmin, err := RequiredExecutions(p, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if tmin < 2 || tmin > 3 {
		t.Errorf("required executions = %d, want 2-3 (paper says 3 with rounded R)", tmin)
	}
	// The returned t must actually achieve the target under Eq. 5.
	pred, _ := Predict(p)
	if got := stats.AtLeastOne(pred.Reliability, tmin); got < 0.999 {
		t.Errorf("t=%d achieves only %.6f", tmin, got)
	}
	// Subcritical: no t suffices.
	sub := poissonParams(2000, 4.0, 0.1)
	if _, err := RequiredExecutions(sub, 0.999); err == nil {
		t.Error("subcritical RequiredExecutions accepted")
	}
}

func TestRunSuccessRejectsInvalid(t *testing.T) {
	p := successParams(0, 4, 0.9, 5, 5)
	if _, err := RunSuccessCtx(context.Background(), p, 1, 0, nil); err == nil {
		t.Error("invalid params accepted")
	}
}

// ---------------------------------------------------------------------------
// Network-backed execution

// TestExecuteOnNetworkMatchesFastPath: with zero latency and no loss the
// DES draws the BFS executor's spread on every seed (member-keyed draws,
// see keyRoot), mask included; TestShardInvariance covers views, shard
// counts and latency models.
func TestExecuteOnNetworkMatchesFastPath(t *testing.T) {
	p := poissonParams(1000, 4, 0.9)
	for seed := uint64(0); seed < 15; seed++ {
		nres, err := ExecuteOnNetworkArena(p, simnet.Config{}, xrand.New(seed), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := ExecuteOnce(p, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if fres.Rounds = 0; nres.Result != fres {
			t.Errorf("seed %d: network %+v, fast path %+v", seed, nres.Result, fres)
		}
	}
}

func TestExecuteOnNetworkLatencyPropagates(t *testing.T) {
	p := poissonParams(300, 5, 1)
	r := xrand.New(3)
	res, err := ExecuteOnNetworkArena(p, simnet.Config{
		Latency: simnet.ConstantLatency{D: 10 * time.Millisecond},
	}, r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpreadTime < 20*time.Millisecond {
		t.Errorf("spread time %v too small for multi-hop spread", res.SpreadTime)
	}
	if res.SpreadTime > time.Second {
		t.Errorf("spread time %v too large (O(log n) hops expected)", res.SpreadTime)
	}
	if res.DeliveryLatency.N() != res.Delivered-1 {
		t.Errorf("latency samples %d, delivered %d", res.DeliveryLatency.N(), res.Delivered)
	}
}

func TestExecuteOnNetworkLossReducesReliability(t *testing.T) {
	p := poissonParams(1000, 3, 1)
	var clean, lossy stats.Running
	for seed := uint64(0); seed < 10; seed++ {
		c, err := ExecuteOnNetworkArena(p, simnet.Config{}, xrand.New(seed), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		clean.Add(c.Reliability)
		l, err := ExecuteOnNetworkArena(p, simnet.Config{Loss: simnet.BernoulliLoss{P: 0.4}}, xrand.New(seed), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		lossy.Add(l.Reliability)
	}
	if lossy.Mean() >= clean.Mean()-0.05 {
		t.Errorf("40%% loss did not reduce reliability: %.4f vs %.4f", lossy.Mean(), clean.Mean())
	}
	// Message loss behaves like fanout thinning: z_eff = z(1-p), here
	// 1.8, so reliability should stay positive (still supercritical).
	if lossy.Mean() < 0.2 {
		t.Errorf("lossy reliability %.4f collapsed below theory", lossy.Mean())
	}
}

func TestExecuteOnNetworkInvalid(t *testing.T) {
	p := poissonParams(1, 4, 0.9) // invalid N
	if _, err := ExecuteOnNetworkArena(p, simnet.Config{}, xrand.New(1), nil, nil); err == nil {
		t.Error("invalid params accepted")
	}
}

func BenchmarkRunSuccessFig6(b *testing.B) {
	p := successParams(2000, 4.0, 0.9, 20, 10)
	for i := 0; i < b.N; i++ {
		if _, err := RunSuccessCtx(context.Background(), p, uint64(i), 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteOnNetwork1000(b *testing.B) {
	p := poissonParams(1000, 4, 0.9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteOnNetworkArena(p, simnet.Config{}, xrand.New(uint64(i)), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
