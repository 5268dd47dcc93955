package scenario

import (
	"context"

	"gossipkit/internal/core"
	"gossipkit/internal/obs"
	"gossipkit/internal/runpool"
	"gossipkit/internal/stats"
)

// point is one (scenario, run config) combination of a sweep, grid or
// comparison; seed derives the seed of its ri-th replication.
type point struct {
	scenario *Scenario
	run      RunConfig
	seed     func(ri int) uint64
}

// sweepPoints is the one cell driver under SweepCtx, SweepGridCtx and
// CompareCtx: it replicates every point for `seeds` derived seeds on
// runpool.Replicate (cell = pi·seeds + ri) and reduces each point's block
// of replications into a Summary. A worker's state is one run-state arena
// and, under probe, one pooled obs.Probe re-Attached each run, whose
// per-run Metrics snapshots ride on the buffered RunReports. Cells are
// data-independent and both reductions (the summaries and, under probe,
// the per-point merged curves) happen in cell order after the pool drains,
// so the result is byte-identical for any worker count. observe, when
// non-nil, streams per-cell reports in cell order; context cancellation
// aborts promptly with ctx.Err().
func sweepPoints(ctx context.Context, points []point, seeds, workers int, probe *obs.Options, observe Observer) ([]Summary, []*obs.Merged, error) {
	cells := len(points) * seeds
	reports := make([]RunReport, cells)
	lats := make([]stats.Running, cells)
	type state struct {
		arena *core.NetArena
		probe *obs.Probe
	}
	type result struct {
		rep RunReport
		lat stats.Running
	}
	err := runpool.Replicate(ctx, cells, workers, func() state {
		st := state{arena: core.NewNetArena()}
		if probe != nil {
			st.probe = obs.New(*probe)
		}
		return st
	}, func(cell int, st state) (result, error) {
		pt := &points[cell/seeds]
		run := pt.run
		run.Probe = st.probe // CheckShared refused a caller-set one
		rep, lat, err := runWithLatency(pt.scenario, run, pt.seed(cell%seeds), st.arena)
		return result{rep, lat}, err
	}, func(cell int, r result) {
		reports[cell], lats[cell] = r.rep, r.lat
		if observe != nil {
			observe(cell, r.rep)
		}
	})
	if err != nil {
		return nil, nil, err
	}

	sums := make([]Summary, len(points))
	var curves []*obs.Merged
	for pi, pt := range points {
		lo := pi * seeds
		sums[pi] = summarize(pt.scenario, reports[lo:lo+seeds], lats[lo:lo+seeds])
		if probe != nil {
			// Merged in cell order: the merge is order-sensitive, and this
			// fixed order keeps the curves byte-identical for any worker
			// count.
			g := &obs.Merged{}
			for _, rep := range reports[lo : lo+seeds] {
				g.Merge(rep.Metrics)
			}
			curves = append(curves, g)
		}
	}
	return sums, curves, nil
}
