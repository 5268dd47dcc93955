package core

import (
	"context"
	"fmt"

	"gossipkit/internal/failure"
	"gossipkit/internal/graph"
	"gossipkit/internal/membership"
	"gossipkit/internal/runpool"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// ComponentResult reports the giant-component view of one execution of the
// gossiping algorithm: every nonfailed member draws its fanout and targets
// exactly as in the protocol, giving the directed "gossip graph"; the
// reliability is the size of its giant out-component (all nodes reachable
// from the largest strongly connected component) as a share of nonfailed
// members.
//
// This is the metric the paper's simulations report ("we calculate the size
// of giant component for each case", §5.1) and the one its Eq. 11 curve
// predicts: for Poisson fanout the giant out-component fraction y of a
// directed random graph with mean degree zq satisfies y = 1 − e^{−zqy},
// exactly Eq. 11. It differs from the directed source-reach of ExecuteOnce
// by the early-die-out mass: a single execution fizzles near the source
// with probability ≈ 1−S, making E[directed reach] ≈ S² for Poisson, while
// the giant out-component exists independently of where the source sits.
// Ablation A6 (experiment.AblationReachVsGiant) quantifies the gap; both
// metrics are first-class here.
type ComponentResult struct {
	// AliveCount is the number of nonfailed members.
	AliveCount int
	// GiantSize is the size of the giant out-component among nonfailed
	// members.
	GiantSize int
	// Reliability is GiantSize/AliveCount, the paper's simulated R(q,P).
	Reliability float64
	// SourceReach is the number of alive members reachable from the
	// source in the same gossip graph (what one real multicast would
	// deliver).
	SourceReach int
	// SourceInGiant reports whether the source's reach attained the
	// giant out-component — its long-run frequency is S.
	SourceInGiant bool
	// MessagesSent is the number of gossip arcs drawn.
	MessagesSent int
}

// probeCount is how many starts LargestOutComponent probes in the
// subcritical regime (where no nontrivial SCC exists): the source first,
// whose probe reach is then its SourceReach, and random alive members.
const probeCount = 64

// componentScratch is everything one giant-component replication touches
// besides its Params and its RNG: the failure mask, the gossip graph, the
// graph searcher and the target and probe buffers. A sweep keeps one per
// worker, so a warm replication on the full view allocates nothing. Every
// part is rebuilt from p and r before it is read — the mask redrawn, the
// graph Reset, the buffers truncated — so a result cannot depend on what
// the scratch ran before (TestComponentReliabilityPooledMatchesFresh). The
// zero value is ready to use.
type componentScratch struct {
	mask    failure.Mask
	g       graph.Digraph
	search  graph.Searcher
	full    membership.View // the full view over the last p.N that had no View
	targets []int
	probes  []int
}

// view is p.view() without boxing a FullView per replication.
func (sc *componentScratch) view(p Params) membership.View {
	if p.View != nil {
		return p.View
	}
	if sc.full == nil || sc.full.N() != p.N {
		sc.full = p.view()
	}
	return sc.full
}

// ComponentReliability runs one execution in the giant out-component
// semantics.
func ComponentReliability(p Params, r *xrand.RNG) (ComponentResult, error) {
	if err := p.Validate(); err != nil {
		return ComponentResult{}, err
	}
	return componentReliability(p, new(componentScratch), r), nil
}

// componentReliability is ComponentReliability for validated p on a scratch
// the caller pools.
func componentReliability(p Params, sc *componentScratch, r *xrand.RNG) ComponentResult {
	mask, g := &sc.mask, &sc.g
	p.drawMaskInto(mask, r)
	view := sc.view(p)
	g.Reset(p.N)
	targets := sc.targets
	res := ComponentResult{AliveCount: mask.AliveCount()}
	for u := 0; u < p.N; u++ {
		if !mask.Alive(u) {
			continue // failed members never gossip
		}
		f := p.Fanout.Sample(r)
		targets = view.SampleTargets(targets, u, f, r)
		res.MessagesSent += len(targets)
		for _, v := range targets {
			if mask.Alive(v) {
				g.AddArc(u, v)
			}
		}
	}
	sc.targets = targets
	// Probe starts for the subcritical fallback: the source plus random
	// alive members.
	probes := append(sc.probes[:0], p.Source)
	for len(probes) < probeCount {
		c := r.Intn(p.N)
		if mask.Alive(c) {
			probes = append(probes, c)
		}
	}
	sc.probes = probes
	res.GiantSize, res.SourceReach = sc.search.OutComponentReach(g, probes, p.Source)
	res.SourceInGiant = res.SourceReach >= res.GiantSize && res.GiantSize > 1
	if res.AliveCount > 0 {
		res.Reliability = float64(res.GiantSize) / float64(res.AliveCount)
	}
	return res
}

// ComponentEstimate aggregates Monte-Carlo giant-component statistics.
type ComponentEstimate struct {
	Runs int
	// Mean is the average giant out-component reliability — the series
	// plotted as "Simulation" in the paper's Figs. 4–5.
	Mean   float64
	StdDev float64
	CI95   float64
	// SourceInGiantRate is the fraction of runs whose source reached the
	// giant out-component (→ S as n grows).
	SourceInGiantRate float64
	// MeanSourceReach is the mean directed source reach as a fraction of
	// alive members (≈ S² for Poisson; ablation A6).
	MeanSourceReach float64
}

// ComponentObserver streams completed giant-component executions in run
// order, regardless of worker count.
type ComponentObserver func(run int, res ComponentResult)

// EstimateComponentReliabilityCtx runs `runs` independent giant-component
// executions on a worker pool. Run i consumes the RNG stream split at
// index i and results are reduced in run order, so the estimate is
// identical for any worker count (workers <= 0 means GOMAXPROCS). Context
// cancellation aborts promptly with ctx.Err(); observe, when non-nil,
// streams per-run results in deterministic run order.
func EstimateComponentReliabilityCtx(ctx context.Context, p Params, runs int, seed uint64, workers int, observe ComponentObserver) (ComponentEstimate, error) {
	if err := p.Validate(); err != nil {
		return ComponentEstimate{}, err
	}
	if runs < 1 {
		return ComponentEstimate{}, fmt.Errorf("core: run count %d < 1", runs)
	}
	root := xrand.New(seed)
	var rel, reach stats.Running
	inG := 0
	err := runpool.Replicate(ctx, runs, workers, func() *componentScratch { return new(componentScratch) },
		func(run int, sc *componentScratch) (ComponentResult, error) {
			return componentReliability(p, sc, root.Split(uint64(run))), nil
		}, func(run int, res ComponentResult) {
			rel.Add(res.Reliability)
			if res.AliveCount > 0 {
				reach.Add(float64(res.SourceReach) / float64(res.AliveCount))
			}
			if res.SourceInGiant {
				inG++
			}
			if observe != nil {
				observe(run, res)
			}
		})
	if err != nil {
		return ComponentEstimate{}, err
	}
	return ComponentEstimate{
		Runs:              rel.N(),
		Mean:              rel.Mean(),
		StdDev:            rel.StdDev(),
		CI95:              rel.CI95(),
		SourceInGiantRate: float64(inG) / float64(rel.N()),
		MeanSourceReach:   reach.Mean(),
	}, nil
}
