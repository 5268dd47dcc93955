package experiment

import (
	"fmt"
	"math"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/membership"
	"gossipkit/internal/numeric"
	"gossipkit/internal/stats"
)

// AblationFanoutShape (A1) probes the paper's generality claim: the
// undirected generalized-random-graph model says the giant component
// depends on the full fanout distribution (through G1), while ideal
// uniform-target gossip reach is a directed process whose giant
// out-component depends only on the mean fanout. We sweep q for three
// distributions with equal mean 4 — Poisson, Fixed, Geometric — and plot
// the simulated giant out-component against both predictors.
func AblationFanoutShape(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-fanout-shape",
		Title:  "Fanout-distribution shape: simulation vs undirected model vs forward-spread model (mean fanout 4)",
		XLabel: "nonfailed ratio q",
		YLabel: "reliability S",
	}
	distros := []dist.Distribution{
		dist.NewPoisson(4),
		dist.NewFixed(4),
		dist.NewGeometric(0.2), // mean (1-p)/p = 4
	}
	qs := numeric.Linspace(0.15, 1.0, 12)
	runs := cfg.runs(20, 3)
	for di, d := range distros {
		sim := Series{Name: d.Name() + " simulation"}
		nsw := Series{Name: d.Name() + " undirected model"}
		fwd := Series{Name: d.Name() + " forward model"}
		m := genfunc.New(d)
		var nswGap, fwdGap float64 // summed |sim − model| over the q sweep
		for qi, q := range qs {
			p := core.Params{N: 2000, Fanout: d, AliveRatio: q}
			est, err := core.EstimateComponentReliabilityCtx(cfg.ctx(), p, runs, cfg.seed(f.ID, di, qi), 0, nil)
			if err != nil {
				return nil, err
			}
			u, err := m.Reliability(q)
			if err != nil {
				return nil, err
			}
			fr, err := genfunc.ForwardReach(d.Mean(), q)
			if err != nil {
				return nil, err
			}
			sim.X = append(sim.X, q)
			sim.Y = append(sim.Y, est.Mean)
			nsw.X = append(nsw.X, q)
			nsw.Y = append(nsw.Y, u)
			fwd.X = append(fwd.X, q)
			fwd.Y = append(fwd.Y, fr)
			nswGap += math.Abs(est.Mean - u)
			fwdGap += math.Abs(est.Mean - fr)
		}
		f.Series = append(f.Series, sim, nsw, fwd)
		if di > 0 { // for Poisson the two models coincide
			f.claim(Claim{ID: d.Name() + " forward model closer", Source: "A1", Measured: fwdGap, Rel: "<", Model: nswGap,
				Against: "Σ_q |sim − undirected|", TolSource: tolOrder})
		}
	}
	return f, nil
}

// AblationCriticalPoint (A2) zooms into the phase transition: reliability
// vs q around q_c = 1/z for several mean fanouts, with the analytic curve.
func AblationCriticalPoint(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-critical-point",
		Title:  "Phase transition at q_c = 1/z (n = 2000)",
		XLabel: "nonfailed ratio q",
		YLabel: "reliability S",
	}
	const n = 2000
	runs := cfg.runs(20, 3)
	for zi, z := range []float64{2, 4, 6} {
		sim := Series{Name: fmt.Sprintf("z=%g simulation", z)}
		ana := Series{Name: fmt.Sprintf("z=%g analysis", z)}
		qc := genfunc.PoissonCriticalRatio(z)
		for qi, q := range numeric.Linspace(0.02, min(3*qc, 1), 15) {
			p := core.Params{N: n, Fanout: dist.NewPoisson(z), AliveRatio: q}
			est, err := core.EstimateComponentReliabilityCtx(cfg.ctx(), p, runs, cfg.seed(f.ID, zi, qi), 0, nil)
			if err != nil {
				return nil, err
			}
			want, err := genfunc.PoissonReliability(z, q)
			if err != nil {
				return nil, err
			}
			sim.X = append(sim.X, q)
			sim.Y = append(sim.Y, est.Mean)
			ana.X = append(ana.X, q)
			ana.Y = append(ana.Y, want)
			f.near(fmt.Sprintf("z=%g q=%.3f", z, q), "A2", est.Mean, est.StdDev/math.Sqrt(float64(runs)), want, "Eq. 11", q, n)
		}
		f.Series = append(f.Series, sim, ana)
	}
	return f, nil
}

// AblationFailureMask (A3) contrasts the two readings of "t executions
// under failures": one mask fixed for all 20 executions (the paper's
// Binomial model) vs a fresh mask per execution. Resampling shifts the
// receipt distribution left because a member is dead (and cannot receive)
// in ~(1−q) of the executions.
func AblationFailureMask(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-failure-mask",
		Title:  "Receipt distribution: fixed vs resampled failure mask (n=2000, f=5.0, q=0.6, t=20)",
		XLabel: "k (receipts of 20)",
		YLabel: "Pr(X = k)",
	}
	base := core.SuccessParams{
		Params: core.Params{
			N:          2000,
			Fanout:     dist.NewPoisson(5),
			AliveRatio: 0.6,
		},
		Executions:  20,
		Simulations: cfg.runs(60, 5),
	}
	fixed, _, xFixed, err := runSuccess(cfg, base, cfg.seed(f.ID, 0))
	if err != nil {
		return nil, err
	}
	resampled := base
	resampled.ResampleMask = true
	res, _, xRes, err := runSuccess(cfg, resampled, cfg.seed(f.ID, 1))
	if err != nil {
		return nil, err
	}
	sFixed := Series{Name: "fixed mask (paper model)"}
	sRes := Series{Name: "resampled mask"}
	for k := 0; k <= 20; k++ {
		sFixed.X = append(sFixed.X, float64(k))
		sFixed.Y = append(sFixed.Y, fixed.ReceiptHistogram.Freq(k))
		sRes.X = append(sRes.X, float64(k))
		sRes.Y = append(sRes.Y, res.ReceiptHistogram.Freq(k))
	}
	f.Series = append(f.Series, sFixed, sRes)
	// A member dead in ~(1−q) of the executions cannot receive in them.
	f.claim(Claim{ID: "resampled mean X below fixed", Source: "A3", Measured: xRes.Mean(), SE: xRes.StdErr(), Rel: "<",
		Model: xFixed.Mean(), Against: "fixed-mask mean X", Tol: 3 * math.Hypot(xRes.StdErr(), xFixed.StdErr()), TolSource: tolSE})
	return f, nil
}

// AblationPartialView (A5) replaces the full membership view with
// SCAMP-style partial views of growing size and measures the reliability
// penalty relative to the model (which assumes uniform target selection).
func AblationPartialView(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-partial-view",
		Title:  "Partial membership views vs the full-view assumption (n=1000, f=4.0, q=0.9)",
		XLabel: "SCAMP extra copies c (view size ~ (c+1)·ln n)",
		YLabel: "reliability S",
	}
	const n, q = 1000, 0.9
	want, err := genfunc.PoissonReliability(4.0, q)
	if err != nil {
		return nil, err
	}
	runs := cfg.runs(20, 3)
	sim := Series{Name: "partial-view simulation"}
	ana := Series{Name: "full-view analysis (Eq. 11)"}
	for ci, c := range []int{0, 1, 2, 3} {
		r := cfg.stream(f.ID, ci)
		pv := membership.NewPartialViews(n, c, r)
		pv.Shuffle(10, 3, r)
		p := core.Params{N: n, Fanout: dist.NewPoisson(4), AliveRatio: q, View: pv}
		est, err := core.EstimateComponentReliabilityCtx(cfg.ctx(), p, runs, cfg.seed(f.ID, ci, 1), 0, nil)
		if err != nil {
			return nil, err
		}
		sim.X = append(sim.X, float64(c))
		sim.Y = append(sim.Y, est.Mean)
		ana.X = append(ana.X, float64(c))
		ana.Y = append(ana.Y, want)
		f.near(fmt.Sprintf("c=%d", c), "A5", est.Mean, est.StdDev/math.Sqrt(float64(runs)), want, "full-view Eq. 11", q, n)
	}
	f.Series = append(f.Series, sim, ana)
	return f, nil
}

// AblationReachVsGiant (A6) quantifies the difference between the two
// reliability semantics: the giant out-component (the paper's simulated
// metric, matching Eq. 11) and the mean directed source reach (what one
// real multicast delivers), which carries the early-die-out mass and
// averages ≈ S² for Poisson fanout.
func AblationReachVsGiant(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-reach-vs-giant",
		Title:  "Giant out-component vs directed source reach (n=2000, q=0.9)",
		XLabel: "mean fanout f",
		YLabel: "reliability",
	}
	const n, q = 2000, 0.9
	runs := cfg.runs(60, 5)
	giant := Series{Name: "giant out-component (paper metric)"}
	reach := Series{Name: "mean source reach (protocol metric)"}
	anaS := Series{Name: "analysis S (Eq. 11)"}
	anaS2 := Series{Name: "analysis S²"}
	for fi, fanout := range numeric.Arange(1.5, 6.5, 0.5) {
		p := core.Params{N: n, Fanout: dist.NewPoisson(fanout), AliveRatio: q}
		var reaches stats.Running
		est, err := core.EstimateComponentReliabilityCtx(cfg.ctx(), p, runs, cfg.seed(f.ID, fi), 0, func(_ int, res core.ComponentResult) {
			reaches.Add(float64(res.SourceReach) / float64(res.AliveCount))
		})
		if err != nil {
			return nil, err
		}
		s, err := genfunc.PoissonReliability(fanout, q)
		if err != nil {
			return nil, err
		}
		s2, sd, err := oneShot(p.Fanout, q)
		if err != nil {
			return nil, err
		}
		giant.X = append(giant.X, fanout)
		giant.Y = append(giant.Y, est.Mean)
		reach.X = append(reach.X, fanout)
		reach.Y = append(reach.Y, est.MeanSourceReach)
		anaS.X = append(anaS.X, fanout)
		anaS.Y = append(anaS.Y, s)
		anaS2.X = append(anaS2.X, fanout)
		anaS2.Y = append(anaS2.Y, s2)
		f.near(fmt.Sprintf("giant f=%.1f", fanout), "A6", est.Mean, est.StdDev/math.Sqrt(float64(runs)), s, "S (Eq. 11)", q, n)
		f.near(fmt.Sprintf("reach f=%.1f", fanout), "A6", est.MeanSourceReach, max(reaches.StdErr(), sd/math.Sqrt(float64(runs))), s2, "S² (one-shot reach)", q, n)
	}
	f.Series = append(f.Series, giant, reach, anaS, anaS2)
	return f, nil
}
