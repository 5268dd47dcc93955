package experiment

import (
	"fmt"
	"math"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/numeric"
	"gossipkit/internal/protocols"
	"gossipkit/internal/runpool"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
)

// AblationMessageLoss (A7) extends the paper's site-percolation model with
// bond percolation: messages are lost independently with probability p.
// The analytic prediction thins the mean fanout to z(1−p); the simulation
// runs the protocol over the discrete-event network with Bernoulli loss
// and measures delivered fraction among alive members, conditioned through
// the giant-component estimate of repeated runs.
func AblationMessageLoss(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-message-loss",
		Title:  "Message loss as bond percolation (n=1000, f=5.0, q=0.9)",
		XLabel: "message loss probability",
		YLabel: "reliability",
	}
	const n, z, q = 1000, 5.0, 0.9
	runs := cfg.runs(30, 4)
	sim := Series{Name: "network simulation (mean delivery)"}
	anaJoint := Series{Name: "analysis S(z(1−loss), q) (Eq. 11 + thinning)"}
	anaOneShot := Series{Name: "analysis one-shot ≈ S²"}
	p := core.Params{N: n, Fanout: dist.NewPoisson(z), AliveRatio: q}
	for li, loss := range numeric.Linspace(0, 0.7, 8) {
		netCfg := simnet.Config{Loss: simnet.BernoulliLoss{P: loss}}
		var acc stats.Running
		err := runpool.Replicate(cfg.ctx(), runs, 0, core.NewNetArena,
			func(rI int, arena *core.NetArena) (float64, error) {
				res, err := core.ExecuteOnNetworkArena(p, netCfg, cfg.stream(f.ID, li, rI), nil, arena)
				return res.Reliability, err
			}, func(_ int, rel float64) { acc.Add(rel) })
		if err != nil {
			return nil, err
		}
		s, err := genfunc.JointReliability(dist.NewPoisson(z), q, loss)
		if err != nil {
			return nil, err
		}
		// Loss thins Po(z) to Po(z(1−loss)): one multicast then delivers
		// the thinned fanout's one-shot reach.
		oneShotS, sd, err := oneShot(dist.NewPoisson(z*(1-loss)), q)
		if err != nil {
			return nil, err
		}
		sim.X = append(sim.X, loss)
		sim.Y = append(sim.Y, acc.Mean())
		anaJoint.X = append(anaJoint.X, loss)
		anaJoint.Y = append(anaJoint.Y, s)
		anaOneShot.X = append(anaOneShot.X, loss)
		anaOneShot.Y = append(anaOneShot.Y, oneShotS)
		f.near(fmt.Sprintf("loss=%.1f", loss), "A7", acc.Mean(), max(acc.StdErr(), sd/math.Sqrt(float64(runs))), oneShotS, "thinned S²", q, n)
	}
	f.Series = append(f.Series, sim, anaJoint, anaOneShot)
	return f, nil
}

// AblationEpidemicCurve (A8) compares the simulated per-round infection
// curve with the pbcast-style round recurrence (the modeling approach of
// the paper's related work §2).
func AblationEpidemicCurve(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-epidemic-curve",
		Title:  "Per-round infection curve vs round recurrence (n=2000, f=5.0, q=0.9)",
		XLabel: "round",
		YLabel: "cumulative infected (alive members)",
	}
	const n, z, q = 2000, 5.0, 0.9
	p := core.Params{N: n, Fanout: dist.NewPoisson(z), AliveRatio: q}
	runs := cfg.runs(200, 20)
	simCurve, err := core.MeanTraceRounds(cfg.ctx(), p, runs, cfg.seed(f.ID))
	if err != nil {
		return nil, err
	}
	model, err := core.RecurrenceModel(n, z, q, len(simCurve)-1)
	if err != nil {
		return nil, err
	}
	sim := Series{Name: "simulation (mean over runs)"}
	rec := Series{Name: "recurrence model [pbcast-style]"}
	for r := range simCurve {
		sim.X = append(sim.X, float64(r))
		sim.Y = append(sim.Y, simCurve[r])
		rec.X = append(rec.X, float64(r))
		rec.Y = append(rec.Y, model[r])
	}
	f.Series = append(f.Series, sim, rec)
	// The recurrence has no die-out; the simulated mean carries the runs
	// that die out near the source, so its plateau is the outbreak
	// probability o times the recurrence's, with per-run spread √(o(1−o)).
	o, err := genfunc.OutbreakProbability(p.Fanout, q)
	if err != nil {
		return nil, err
	}
	alive, last := q*n, len(simCurve)-1
	f.near("plateau", "A8", simCurve[last]/alive, math.Sqrt(o*(1-o))*model[last]/alive/math.Sqrt(float64(runs)),
		o*model[last]/alive, "o × recurrence plateau", q, n)
	r99, err := core.RoundsToCoverage(n, z, q, 0.99, 60)
	if err != nil {
		return nil, err
	}
	reached := last
	for r, c := range simCurve {
		if c >= 0.99*simCurve[last] {
			reached = r
			break
		}
	}
	f.claim(Claim{ID: "rounds to 99% of plateau", Source: "A8", Measured: float64(reached), Rel: "≈", Model: float64(r99),
		Against: "recurrence", Tol: 1, TolSource: "one round, the resolution of both curves"})
	return f, nil
}

// AblationProtocolComparison (A9) puts the paper's single-shot general
// gossip next to the protocol families of its related work at one
// operating point (n=1000, q=0.8): reliability achieved vs messages spent.
func AblationProtocolComparison(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-protocol-comparison",
		Title:  "Reliability vs message cost across protocol families (n=1000, q=0.8)",
		XLabel: "mean messages per multicast",
		YLabel: "reliability among nonfailed members",
	}
	const n = 1000
	const q = 0.8
	runs := cfg.runs(20, 4)
	type point struct {
		name     string
		rel, msg float64
	}
	var pts []point

	// Single-shot general gossip (the paper), Po(5).
	{
		var rel, msg stats.Running
		p := core.Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: q}
		err := runpool.Replicate(cfg.ctx(), runs, 0, func() struct{} { return struct{}{} },
			func(i int, _ struct{}) (core.Result, error) {
				return core.ExecuteOnce(p, cfg.stream(f.ID, 0, i))
			}, func(_ int, res core.Result) {
				rel.Add(res.Reliability)
				msg.Add(float64(res.MessagesSent))
			})
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{"single-shot gossip Po(5)", rel.Mean(), msg.Mean()})
	}
	// Paper's Eq. 6 remedy: three executions, member satisfied by any.
	{
		p := core.SuccessParams{
			Params:      core.Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: q},
			Executions:  3,
			Simulations: runs,
		}
		out, err := core.RunSuccessCtx(cfg.ctx(), p, cfg.seed(f.ID, 1), 0, nil)
		if err != nil {
			return nil, err
		}
		// Reliability is at least one receipt; cost three executions' expected sends.
		pts = append(pts, point{"3x repeated gossip (Eq. 6)", 1 - out.ReceiptHistogram.Freq(0), 3 * 5 * float64(n) * q})
	}
	// The related-work families, each on the shared DES runtime over an
	// ideal network (result-identical to the legacy round loops): pbcast
	// rounds, anti-entropy push-pull until quiescent, LRG, flooding.
	for bi, b := range []struct {
		name string
		spec protocols.Spec
	}{
		{"pbcast rounds f=3", protocols.PbcastParams{N: n, Fanout: 3, Rounds: 12, AliveRatio: q}},
		{"anti-entropy push-pull", protocols.AntiEntropyParams{N: n, Rounds: 0, Mode: protocols.PushPull, AliveRatio: q}},
		{"LRG deg=8 pg=0.7", protocols.LRGParams{N: n, Degree: 8, GossipProb: 0.7, RepairRounds: 4, AliveRatio: q}},
		{"flooding", protocols.FloodingParams{N: n, AliveRatio: q}},
	} {
		var rel, msg stats.Running
		err := runpool.Replicate(cfg.ctx(), runs, 0, core.NewNetArena,
			func(i int, arena *core.NetArena) (protocols.DESOutcome, error) {
				return protocols.RunOnDES(b.spec, protocols.DESConfig{}, cfg.stream(f.ID, 2+bi, i), nil, arena)
			}, func(_ int, out protocols.DESOutcome) {
				rel.Add(out.Reliability)
				msg.Add(float64(out.MessagesSent))
			})
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{b.name, rel.Mean(), msg.Mean()})
	}

	var rels, msgs []float64
	for _, pt := range pts {
		f.Series = append(f.Series, Series{
			Name: pt.name,
			X:    []float64{pt.msg},
			Y:    []float64{pt.rel},
		})
		rels, msgs = append(rels, pt.rel), append(msgs, pt.msg)
	}
	// Flooding buys the last fraction of a percent at the highest cost.
	last := len(pts) - 1
	_, rel := extent(rels[:last])
	_, msg := extent(msgs[:last])
	f.claim(Claim{ID: "flooding most reliable", Source: "A9", Measured: rels[last], Rel: "≥", Model: rel, Against: "the best other family", TolSource: tolOrder})
	f.claim(Claim{ID: "flooding costliest", Source: "A9", Measured: msgs[last], Rel: ">", Model: msg, Against: "the costliest other family", TolSource: tolOrder})
	return f, nil
}
