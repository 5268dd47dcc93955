package experiment

import (
	"fmt"
	"math"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/numeric"
	"gossipkit/internal/stats"
)

// paperFanoutSweep is the paper's mean-fanout sweep: "varied from 1.10 to
// 6.7 with an incremental step 0.4" (§5.1) — 15 points.
func paperFanoutSweep() []float64 { return numeric.Arange(1.1, 6.7, 0.4) }

// Fig2 reproduces the paper's Fig. 2: the mean fanout z required for a
// target reliability S under q ∈ {0.2, 0.4, 0.6, 0.8, 1.0}, from the design
// equation z = −ln(1−S)/(qS) (Eq. 12). Pure analysis; the reliability axis
// spans the paper's quoted range 0.1111–0.9999.
func Fig2(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "fig2",
		Title:  "Mean fanout vs reliability of gossiping under various nonfailed node ratio",
		XLabel: "reliability of gossiping S",
		YLabel: "mean fanout z",
	}
	ss := numeric.Linspace(0.1111, 0.9999, 60)
	var resid float64 // largest |Eq. 11(z(S, q), q) − S|·|f'(S)| for f(s) = s − 1 + e^{−zqs}
	for _, q := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		series := Series{Name: fmt.Sprintf("q=%.1f", q)}
		for _, s := range ss {
			z, err := genfunc.PoissonMeanFanout(s, q)
			if err != nil {
				return nil, err
			}
			back, err := genfunc.PoissonReliability(z, q)
			if err != nil {
				return nil, err
			}
			a := z * q
			resid = max(resid, math.Abs(back-s)*math.Abs(1-float64(a*math.Exp(-a*s))))
			series.X = append(series.X, s)
			series.Y = append(series.Y, z)
		}
		f.Series = append(f.Series, series)
	}
	for _, sr := range f.Series {
		lo, _ := extent(diffs(sr.Y))
		f.claim(Claim{ID: sr.Name + " least rise in S", Source: "Fig. 2", Measured: lo, Rel: ">", Against: "zero", TolSource: tolExact})
	}
	var gaps []float64
	for i := 1; i < len(f.Series); i++ {
		for j, y := range f.Series[i].Y {
			gaps = append(gaps, f.Series[i-1].Y[j]-y)
		}
	}
	lo, _ := extent(gaps)
	f.claim(Claim{ID: "least fall of z from one q to the next", Source: "Eq. 12", Measured: lo, Rel: ">", Against: "zero", TolSource: tolExact})
	f.claim(Claim{ID: "Eq. 11 residual of Eq. 12's z", Source: "Eq. 12", Measured: resid, Rel: "≤", Against: "zero",
		Tol: roundOff, TolSource: tolRound})
	f.claim(Claim{ID: "z(S=0.9999, q=0.2)", Source: "Fig. 2", Measured: f.Series[0].Y[len(ss)-1], Rel: "≤", Model: 50,
		Against: "the paper's y-axis top", TolSource: tolExact})
	return f, nil
}

// Fig3 reproduces the paper's Fig. 3: the minimum number of executions t
// for a required success probability p_s = 0.999, as a function of the
// per-execution reliability S (Eq. 6). Pure analysis.
func Fig3(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "fig3",
		Title:  "Minimum times of executions for the required probability of gossiping success",
		XLabel: "reliability of gossiping S",
		YLabel: "required minimum executions t",
	}
	const ps = 0.999
	series := Series{Name: fmt.Sprintf("ps=%.3f", ps)}
	var slack, short []float64
	for _, s := range numeric.Linspace(0.25, 0.999, 60) {
		t, err := stats.MinTrials(ps, s)
		if err != nil {
			return nil, err
		}
		series.X = append(series.X, s)
		series.Y = append(series.Y, float64(t))
		// Eq. 6's t is the least that suffices, checked through Eq. 5
		// (stats.AtLeastOne) rather than the logarithms MinTrials divides.
		slack = append(slack, stats.AtLeastOne(s, t)-ps)
		short = append(short, stats.AtLeastOne(s, t-1)-ps)
	}
	f.Series = append(f.Series, series)
	_, hi := extent(diffs(series.Y))
	f.claim(Claim{ID: "largest rise of t in S", Source: "Fig. 3", Measured: hi, Rel: "≤", Against: "zero", TolSource: tolExact})
	lo, _ := extent(slack)
	f.claim(Claim{ID: "least 1−(1−S)^t − p_s", Source: "Eq. 5", Measured: lo, Rel: "≥", Against: "zero", Tol: roundOff, TolSource: tolRound})
	_, hi = extent(short)
	f.claim(Claim{ID: "largest 1−(1−S)^(t−1) − p_s", Source: "Eq. 6", Measured: hi, Rel: "<", Against: "zero", TolSource: tolExact})
	f.claim(Claim{ID: "t(S=0.999)", Source: "Fig. 3", Measured: series.Y[len(series.Y)-1], Rel: "≈", Model: 1, Against: "one execution", TolSource: tolExact})
	return f, nil
}

// reliabilityFigure is the shared engine of Figs. 4a/4b/5a/5b: for each q,
// sweep the mean fanout and plot simulated reliability (giant-component
// semantics, the paper's metric) against the Eq. 11 analysis. Each point is
// a claim: |sim − Eq. 11| ≤ 3·SE + (qn)^−1/3.
func reliabilityFigure(id string, n int, qs ...float64) func(Config) (*Figure, error) {
	return func(cfg Config) (*Figure, error) {
		f := &Figure{
			ID:     id,
			Title:  fmt.Sprintf("Gossiping simulation (nodes = %d)", n),
			XLabel: "mean fanout f",
			YLabel: "reliability of gossiping S",
		}
		runs := cfg.runs(20, 3)
		for qi, q := range qs {
			sim := Series{Name: fmt.Sprintf("q=%.1f simulation", q)}
			ana := Series{Name: fmt.Sprintf("q=%.1f analysis", q)}
			for fi, fanout := range paperFanoutSweep() {
				p := core.Params{N: n, Fanout: dist.NewPoisson(fanout), AliveRatio: q}
				est, err := core.EstimateComponentReliabilityCtx(cfg.ctx(), p, runs, cfg.seed(id, qi, fi), 0, nil)
				if err != nil {
					return nil, err
				}
				want, err := genfunc.PoissonReliability(fanout, q)
				if err != nil {
					return nil, err
				}
				sim.X = append(sim.X, fanout)
				sim.Y = append(sim.Y, est.Mean)
				ana.X = append(ana.X, fanout)
				ana.Y = append(ana.Y, want)
				f.near(fmt.Sprintf("q=%.1f f=%.1f", q, fanout), "Eq. 11", est.Mean, est.StdDev/math.Sqrt(float64(runs)), want, "Eq. 11", q, n)
			}
			f.Series = append(f.Series, sim, ana)
		}
		return f, nil
	}
}

// successFigure is the shared engine of Figs. 6/7: run 20 executions × 100
// simulations at n=2000, histogram the per-member receipt count X, and
// overlay the Binomial references — both the paper's B(20, S) with the
// model reliability and B(20, p̂_r) with the honest empirical per-execution
// reliability (they differ by the die-out mass; see AblationReachVsGiant).
// The pooled histogram carries no claim: its member counts share their
// simulation's take-offs, so no count test applies to it. The claims use
// per-simulation statistics instead.
func successFigure(cfg Config, id, paper string, fanout, q float64) (*Figure, error) {
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Gossiping success simulation (nodes = 2000), f=%.1f, q=%.1f", fanout, q),
		XLabel: "k (executions in which a member received m, of 20)",
		YLabel: "Pr(X = k)",
	}
	const n, t, ps = 2000, 20, 0.999
	p := core.SuccessParams{
		Params:      core.Params{N: n, Fanout: dist.NewPoisson(fanout), AliveRatio: q},
		Executions:  t,
		Simulations: cfg.runs(100, 5),
	}
	out, rel, _, err := runSuccess(cfg, p, cfg.seed(id))
	if err != nil {
		return nil, err
	}
	sRel, err := genfunc.PoissonReliability(fanout, q)
	if err != nil {
		return nil, err
	}
	empRel := out.MeanExecutionReliability

	sim := Series{Name: "simulation"}
	anaModel := Series{Name: fmt.Sprintf("analysis B(20, %.3f) [paper]", sRel)}
	anaEmp := Series{Name: fmt.Sprintf("analysis B(20, %.3f) [empirical p_r]", empRel)}
	pmfModel := stats.BinomialPMFs(t, sRel)
	pmfEmp := stats.BinomialPMFs(t, empRel)
	for k := 0; k <= t; k++ {
		x := float64(k)
		sim.X = append(sim.X, x)
		sim.Y = append(sim.Y, out.ReceiptHistogram.Freq(k))
		anaModel.X = append(anaModel.X, x)
		anaModel.Y = append(anaModel.Y, pmfModel[k])
		anaEmp.X = append(anaEmp.X, x)
		anaEmp.Y = append(anaEmp.Y, pmfEmp[k])
	}
	f.Series = append(f.Series, sim, anaModel, anaEmp)

	// p̂_r is one multicast's mean delivery, S² for Poisson fanout — not
	// the paper's S, which is the giant's share.
	want, sd, err := oneShot(p.Fanout, q)
	if err != nil {
		return nil, err
	}
	se := max(rel.StdErr(), sd/math.Sqrt(float64(p.Simulations*t)))
	f.near("p_r", paper, empRel, se, want, "S² (one-shot reach, A6)", q, n)
	// Eq. 6 promises p_s to one member after t_min(p_r) executions; all
	// members after t = 20 ≫ t_min is held to it too.
	f.claim(Claim{ID: "all-member success at t=20", Source: paper, Measured: out.SuccessRate, Rel: "≥", Model: ps, Against: "Eq. 6's p_s",
		Tol: 3 * math.Sqrt(ps*(1-ps)/float64(p.Simulations)), TolSource: "3·SE of a success rate p_s over the simulations"})
	return f, nil
}

// Fig6 reproduces the paper's Fig. 6 ({f, q} = {4.0, 0.9}).
func Fig6(cfg Config) (*Figure, error) { return successFigure(cfg, "fig6", "Fig. 6", 4.0, 0.9) }

// Fig7 reproduces the paper's Fig. 7 ({f, q} = {6.0, 0.6}).
func Fig7(cfg Config) (*Figure, error) { return successFigure(cfg, "fig7", "Fig. 7", 6.0, 0.6) }

// runSuccess runs the success protocol and returns, beside its outcome,
// the per-simulation mean reliability and mean receipt count X.
func runSuccess(cfg Config, p core.SuccessParams, seed uint64) (core.SuccessOutcome, stats.Running, stats.Running, error) {
	var rel, x stats.Running
	out, err := core.RunSuccessCtx(cfg.ctx(), p, seed, 0, func(_ int, s core.SuccessSim) {
		rel.Add(s.MeanReliability)
		var sum, tot float64
		for k, c := range s.Counts {
			sum += float64(float64(k) * float64(c))
			tot += float64(c)
		}
		x.Add(sum / tot)
	})
	return out, rel, x, err
}

// oneShot returns the n → ∞ mean delivery of one multicast,
// Pr(take-off) × coverage (genfunc.ExpectedOneShotReach), and its standard
// deviation over multicasts from the take-off coin alone, √(o(1−o))·c. That
// deviation floors a one-shot claim's SE: over a few runs that all take
// off, the sample deviation collapses to the spread of the coverage.
func oneShot(p dist.Distribution, q float64) (mean, sd float64, err error) {
	mean, err = genfunc.ExpectedOneShotReach(p, q)
	if err != nil || mean == 0 {
		return mean, 0, err
	}
	o, err := genfunc.OutbreakProbability(p, q)
	return mean, math.Sqrt(o*(1-o)) * (mean / o), err
}

// diffs returns the steps y[i] − y[i−1].
func diffs(ys []float64) []float64 {
	d := make([]float64, 0, len(ys))
	for i := 1; i < len(ys); i++ {
		d = append(d, ys[i]-ys[i-1])
	}
	return d
}

// extent returns the least and the largest of xs; a NaN in xs is both.
func extent(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
