package experiment

import (
	"fmt"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/numeric"
	"gossipkit/internal/protocols"
	"gossipkit/internal/runpool"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
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
				r := xrand.New(cfg.Seed ^ uint64(li*1000+rI+1))
				res, err := core.ExecuteOnNetworkArena(p, netCfg, r, nil, arena)
				return res.Reliability, err
			}, func(_ int, rel float64) { acc.Add(rel) })
		if err != nil {
			return nil, err
		}
		s, err := genfunc.JointReliability(dist.NewPoisson(z), q, loss)
		if err != nil {
			return nil, err
		}
		sim.X = append(sim.X, loss)
		sim.Y = append(sim.Y, acc.Mean())
		anaJoint.X = append(anaJoint.X, loss)
		anaJoint.Y = append(anaJoint.Y, s)
		anaOneShot.X = append(anaOneShot.X, loss)
		anaOneShot.Y = append(anaOneShot.Y, s*s)
	}
	f.Series = append(f.Series, sim, anaJoint, anaOneShot)
	lc, err := genfunc.JointCriticalLoss(dist.NewPoisson(z), q)
	if err != nil {
		return nil, err
	}
	f.Note("critical loss = 1 − 1/(zq) = %.4f: reliability collapses beyond it", lc)
	if rm, err := stats.RMSE(sim.Y, anaOneShot.Y); err == nil {
		f.Note("RMSE(mean one-shot delivery, S²-thinned) = %.4f", rm)
	}
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
	simCurve, err := core.MeanTraceRounds(cfg.ctx(), p, runs, cfg.Seed^0xA8)
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
	r99, err := core.RoundsToCoverage(n, z, q, 0.99, 60)
	if err != nil {
		return nil, err
	}
	f.Note("rounds to 99%% of plateau (model): %d", r99)
	f.Note("simulation mean includes ~%.1f%% die-out runs, scaling its plateau by the outbreak probability",
		100*(1-mustOutbreak(z, q)))
	return f, nil
}

func mustOutbreak(z, q float64) float64 {
	ob, err := genfunc.OutbreakProbability(dist.NewPoisson(z), q)
	if err != nil {
		return 0
	}
	return ob
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
				return core.ExecuteOnce(p, xrand.New(cfg.Seed^uint64(i+1)))
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
		var rel, msg stats.Running
		p := core.SuccessParams{
			Params:      core.Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: q},
			Executions:  3,
			Simulations: runs,
		}
		out, err := core.RunSuccessCtx(cfg.ctx(), p, cfg.Seed^0x333, 0, nil)
		if err != nil {
			return nil, err
		}
		atLeastOnce := 1 - out.ReceiptHistogram.Freq(0)
		rel.Add(atLeastOnce)
		msg.Add(3 * 5 * float64(n) * q) // three executions' expected sends
		pts = append(pts, point{"3x repeated gossip (Eq. 6)", rel.Mean(), msg.Mean()})
	}
	// The related-work families, each on the shared DES runtime over an
	// ideal network (result-identical to the legacy round loops): pbcast
	// rounds, anti-entropy push-pull until quiescent, LRG, flooding.
	for _, b := range []struct {
		name string
		spec protocols.Spec
		salt uint64
	}{
		{"pbcast rounds f=3", protocols.PbcastParams{N: n, Fanout: 3, Rounds: 12, AliveRatio: q}, 0x500},
		{"anti-entropy push-pull", protocols.AntiEntropyParams{N: n, Rounds: 0, Mode: protocols.PushPull, AliveRatio: q}, 0x700},
		{"LRG deg=8 pg=0.7", protocols.LRGParams{N: n, Degree: 8, GossipProb: 0.7, RepairRounds: 4, AliveRatio: q}, 0x900},
		{"flooding", protocols.FloodingParams{N: n, AliveRatio: q}, 0xB00},
	} {
		var rel, msg stats.Running
		err := runpool.Replicate(cfg.ctx(), runs, 0, core.NewNetArena,
			func(i int, arena *core.NetArena) (protocols.DESOutcome, error) {
				r := xrand.New(cfg.Seed ^ (b.salt + uint64(i)))
				return protocols.RunOnDES(b.spec, protocols.DESConfig{}, r, nil, arena)
			}, func(_ int, out protocols.DESOutcome) {
				rel.Add(out.Reliability)
				msg.Add(float64(out.MessagesSent))
			})
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{b.name, rel.Mean(), msg.Mean()})
	}

	for _, pt := range pts {
		f.Series = append(f.Series, Series{
			Name: pt.name,
			X:    []float64{pt.msg},
			Y:    []float64{pt.rel},
		})
		f.Note("%-28s reliability %.4f at %.0f msgs", pt.name, pt.rel, pt.msg)
	}
	f.Note("flooding buys its last fraction of a percent at ~%sx the gossip cost",
		fmt.Sprintf("%.0f", pts[len(pts)-1].msg/pts[0].msg))
	return f, nil
}
