package experiment

import (
	"fmt"

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
	for _, q := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		series := Series{Name: fmt.Sprintf("q=%.1f", q)}
		for _, s := range ss {
			z, err := genfunc.PoissonMeanFanout(s, q)
			if err != nil {
				return nil, err
			}
			series.X = append(series.X, s)
			series.Y = append(series.Y, z)
		}
		f.Series = append(f.Series, series)
	}
	// Headline checks the paper's plot shows: z(S=0.9999, q=1) ≈ 9.2 and
	// the q=0.2 curve tops out near 46.
	zTop, err := genfunc.PoissonMeanFanout(0.9999, 0.2)
	if err != nil {
		return nil, err
	}
	f.Note("z(S=0.9999, q=0.2) = %.2f (paper's axis tops at 50)", zTop)
	zOne, err := genfunc.PoissonMeanFanout(0.9999, 1.0)
	if err != nil {
		return nil, err
	}
	f.Note("z(S=0.9999, q=1.0) = %.2f", zOne)
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
	for _, s := range numeric.Linspace(0.25, 0.999, 60) {
		t, err := stats.MinTrials(ps, s)
		if err != nil {
			return nil, err
		}
		series.X = append(series.X, s)
		series.Y = append(series.Y, float64(t))
	}
	f.Series = append(f.Series, series)
	t967, err := stats.MinTrials(ps, 0.967)
	if err != nil {
		return nil, err
	}
	f.Note("t(S=0.967) = %d (paper: 'greater than three' with its rounding)", t967)
	t25, err := stats.MinTrials(ps, 0.25)
	if err != nil {
		return nil, err
	}
	f.Note("t(S=0.25) = %d (left edge of the paper's axis, ~20)", t25)
	return f, nil
}

// reliabilityFigure is the shared engine of Figs. 4a/4b/5a/5b: for each q,
// sweep the mean fanout and plot simulated reliability (giant-component
// semantics, the paper's metric) against the Eq. 11 analysis.
func reliabilityFigure(cfg Config, id string, n int, qs []float64) (*Figure, error) {
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Gossiping simulation (nodes = %d)", n),
		XLabel: "mean fanout f",
		YLabel: "reliability of gossiping S",
	}
	runs := cfg.runs(20, 3)
	sweep := paperFanoutSweep()
	var maxGap float64
	for qi, q := range qs {
		sim := Series{Name: fmt.Sprintf("q=%.1f simulation", q)}
		ana := Series{Name: fmt.Sprintf("q=%.1f analysis", q)}
		for fi, fanout := range sweep {
			p := core.Params{
				N:          n,
				Fanout:     dist.NewPoisson(fanout),
				AliveRatio: q,
			}
			seed := cfg.Seed ^ uint64(qi*1000+fi) ^ uint64(n)
			est, err := core.EstimateComponentReliabilityCtx(cfg.ctx(), p, runs, seed, 0, nil)
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
			if gap := abs(est.Mean - want); gap > maxGap {
				maxGap = gap
			}
		}
		rmse, err := stats.RMSE(sim.Y, ana.Y)
		if err != nil {
			return nil, err
		}
		f.Note("q=%.1f: RMSE(sim, analysis) = %.4f over %d fanouts × %d runs", q, rmse, len(sweep), runs)
		f.Series = append(f.Series, sim, ana)
	}
	f.Note("max |sim − analysis| across all points = %.4f", maxGap)
	f.Note("critical points hold: S > 0 requires q > 1/f (Eq. 10)")
	return f, nil
}

// Fig4a reproduces the paper's Fig. 4a (n=1000, q ∈ {0.1, 0.3, 0.5, 1.0}).
func Fig4a(cfg Config) (*Figure, error) {
	return reliabilityFigure(cfg, "fig4a", 1000, []float64{0.1, 0.3, 0.5, 1.0})
}

// Fig4b reproduces the paper's Fig. 4b (n=1000, q ∈ {0.4, 0.6, 0.8, 1.0}).
func Fig4b(cfg Config) (*Figure, error) {
	return reliabilityFigure(cfg, "fig4b", 1000, []float64{0.4, 0.6, 0.8, 1.0})
}

// Fig5a reproduces the paper's Fig. 5a (n=5000, q ∈ {0.1, 0.3, 0.5, 1.0}).
func Fig5a(cfg Config) (*Figure, error) {
	return reliabilityFigure(cfg, "fig5a", 5000, []float64{0.1, 0.3, 0.5, 1.0})
}

// Fig5b reproduces the paper's Fig. 5b (n=5000, q ∈ {0.4, 0.6, 0.8, 1.0}).
func Fig5b(cfg Config) (*Figure, error) {
	return reliabilityFigure(cfg, "fig5b", 5000, []float64{0.4, 0.6, 0.8, 1.0})
}

// successFigure is the shared engine of Figs. 6/7: run 20 executions × 100
// simulations at n=2000, histogram the per-member receipt count X, and
// overlay the Binomial references — both the paper's B(20, S) with the
// model reliability and B(20, p̂_r) with the honest empirical per-execution
// reliability (they differ by the die-out mass; see AblationReachVsGiant).
func successFigure(cfg Config, id string, fanout, q float64) (*Figure, error) {
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Gossiping success simulation (nodes = 2000), f=%.1f, q=%.1f", fanout, q),
		XLabel: "k (executions in which a member received m, of 20)",
		YLabel: "Pr(X = k)",
	}
	p := core.SuccessParams{
		Params: core.Params{
			N:          2000,
			Fanout:     dist.NewPoisson(fanout),
			AliveRatio: q,
		},
		Executions:  20,
		Simulations: cfg.runs(100, 5),
	}
	out, err := core.RunSuccessCtx(cfg.ctx(), p, cfg.Seed^0x51CCE55, 0, nil)
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
	pmfModel := stats.BinomialPMFs(20, sRel)
	pmfEmp := stats.BinomialPMFs(20, empRel)
	for k := 0; k <= 20; k++ {
		x := float64(k)
		sim.X = append(sim.X, x)
		sim.Y = append(sim.Y, out.ReceiptHistogram.Freq(k))
		anaModel.X = append(anaModel.X, x)
		anaModel.Y = append(anaModel.Y, pmfModel[k])
		anaEmp.X = append(anaEmp.X, x)
		anaEmp.Y = append(anaEmp.Y, pmfEmp[k])
	}
	f.Series = append(f.Series, sim, anaModel, anaEmp)

	f.Note("model reliability S = %.4f (paper rounds to 0.967); empirical p_r = %.4f ≈ S² = %.4f",
		sRel, empRel, sRel*sRel)
	obs := make([]int64, 21)
	for k := range obs {
		obs[k] = out.ReceiptHistogram.Count(k)
	}
	if d, err := stats.KolmogorovSmirnov(obs, pmfEmp); err == nil {
		f.Note("KS distance to B(20, empirical p_r) = %.4f", d)
	}
	if d, err := stats.KolmogorovSmirnov(obs, pmfModel); err == nil {
		f.Note("KS distance to B(20, model S) = %.4f", d)
	}
	f.Note("empirical Pr(success of gossiping) over %d simulations = %.3f", out.Simulations, out.SuccessRate)
	if tmin, err := stats.MinTrials(0.999, empRel); err == nil {
		f.Note("Eq. 6 with empirical p_r: t >= %d for p_s = 0.999", tmin)
	}
	return f, nil
}

// Fig6 reproduces the paper's Fig. 6 ({f, q} = {4.0, 0.9}).
func Fig6(cfg Config) (*Figure, error) { return successFigure(cfg, "fig6", 4.0, 0.9) }

// Fig7 reproduces the paper's Fig. 7 ({f, q} = {6.0, 0.6}).
func Fig7(cfg Config) (*Figure, error) { return successFigure(cfg, "fig7", 6.0, 0.6) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
