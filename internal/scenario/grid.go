package scenario

import (
	"context"
	"fmt"
	"strings"

	"gossipkit/internal/dist"
)

// GridConfig parameterizes a (scenario × q × fanout) sweep grid: every
// campaign replicated at every nonfailed ratio and fanout distribution, so
// one run maps where the static-q model holds across the whole parameter
// plane instead of a single point.
type GridConfig struct {
	// Run is the base run configuration; each grid cell overrides its
	// Params.AliveRatio and Params.Fanout.
	Run RunConfig
	// Qs are the nonfailed ratios to sweep; empty means just
	// Run.Params.AliveRatio.
	Qs []float64
	// Fanouts are the fanout distributions to sweep; empty means just
	// Run.Params.Fanout.
	Fanouts []dist.Distribution
	// Seeds is the number of seeded replications per cell (>= 1).
	Seeds int
	// BaseSeed derives each cell's seed; the grid is a pure function of it.
	BaseSeed uint64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. The result
	// is identical for any worker count.
	Workers int
}

// cellSeed derives the seed for scenario si, ratio qi, fanout fi,
// replication ri. Odd multipliers spread the grid over the seed space so
// neighboring cells never share RNG streams.
func (c GridConfig) cellSeed(si, qi, fi, ri int) uint64 {
	return c.BaseSeed +
		uint64(si)*0x9e3779b97f4a7c15 +
		uint64(qi)*0xbf58476d1ce4e5b9 +
		uint64(fi)*0x94d049bb133111eb +
		uint64(ri)*0xd6e8feb86659fd93 + 1
}

// GridCell is the aggregate of one (scenario, q, fanout) grid point.
type GridCell struct {
	Q      float64 `json:"q"`
	Fanout string  `json:"fanout"`
	Summary
}

// GridResult is the aggregated outcome of a grid sweep, in (scenario, q,
// fanout) order.
type GridResult struct {
	N        int        `json:"n"`
	Seeds    int        `json:"seeds"`
	BaseSeed uint64     `json:"base_seed"`
	Qs       []float64  `json:"qs"`
	Fanouts  []string   `json:"fanouts"`
	Cells    []GridCell `json:"cells"`
}

// SweepGridCtx replicates every scenario at every (q, fanout) combination
// for cfg.Seeds seeds on a worker pool (see sweepPoints, the shared cell
// driver). Like SweepCtx, the result is deterministic in (scenarios, cfg)
// regardless of cfg.Workers. Context cancellation aborts promptly with
// ctx.Err(); observe, when non-nil, streams per-cell reports in
// deterministic cell order (cell = ((si·|qs|+qi)·|fanouts|+fi)·Seeds+ri).
func SweepGridCtx(ctx context.Context, scenarios []*Scenario, cfg GridConfig, observe Observer) (*GridResult, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("scenario: empty grid sweep")
	}
	if err := CheckShared(cfg.Run); err != nil {
		return nil, err
	}
	qs := cfg.Qs
	if len(qs) == 0 {
		qs = []float64{cfg.Run.Params.AliveRatio}
	}
	fanouts := cfg.Fanouts
	if len(fanouts) == 0 {
		fanouts = []dist.Distribution{cfg.Run.Params.Fanout}
	}
	if cfg.Seeds < 1 {
		cfg.Seeds = 1
	}
	// Points in (scenario, q, fanout) order, so
	// cell = ((si*len(qs)+qi)*len(fanouts)+fi)*Seeds+ri.
	var points []point
	for si, s := range scenarios {
		for qi, q := range qs {
			for fi, f := range fanouts {
				run := cfg.Run
				run.Params.AliveRatio = q
				run.Params.Fanout = f
				points = append(points, point{s, run, func(ri int) uint64 { return cfg.cellSeed(si, qi, fi, ri) }})
			}
		}
	}
	sums, _, err := sweepPoints(ctx, points, cfg.Seeds, cfg.Workers, nil, observe)
	if err != nil {
		return nil, err
	}

	out := &GridResult{
		N:        cfg.Run.Params.N,
		Seeds:    cfg.Seeds,
		BaseSeed: cfg.BaseSeed,
		Qs:       qs,
	}
	for _, f := range fanouts {
		out.Fanouts = append(out.Fanouts, f.Name())
	}
	for pi, pt := range points {
		out.Cells = append(out.Cells, GridCell{
			Q:       pt.run.Params.AliveRatio,
			Fanout:  pt.run.Params.Fanout.Name(),
			Summary: sums[pi],
		})
	}
	return out, nil
}

// CSV renders the full grid, one row per (scenario, q, fanout) cell — the
// regression-tracking format: diffs of this file localize which corner of
// the parameter plane moved.
func (r *GridResult) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,q,fanout,runs,reliability,reliability_stddev,survivor_reliability,spread_ms,mean_messages,mean_up_at_end,static_prediction,effective_prediction,static_gap,effective_gap\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%s,%g,%s,%d,%.6f,%.6f,%.6f,%.3f,%.1f,%.1f,%.6f,%.6f,%.6f,%.6f\n",
			csvField(c.Scenario), c.Q,
			csvField(c.Fanout), c.Runs,
			c.Reliability.Mean, c.Reliability.StdDev, c.SurvivorReliability.Mean,
			c.SpreadMs.Mean, c.MeanMessages, c.MeanUpAtEnd,
			c.StaticPrediction, c.EffectivePrediction, c.StaticGap, c.EffectiveGap)
	}
	return b.String()
}
