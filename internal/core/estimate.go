package core

import (
	"context"
	"fmt"

	"gossipkit/internal/runpool"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// Estimate summarizes a Monte-Carlo reliability estimation.
type Estimate struct {
	// Runs is the number of independent executions.
	Runs int
	// Mean is the average per-execution reliability (the estimator of
	// R(q, P)).
	Mean float64
	// StdDev is the sample standard deviation across executions.
	StdDev float64
	// CI95 is the half-width of the 95% confidence interval on Mean.
	CI95 float64
	// Min and Max are the extreme per-execution reliabilities.
	Min, Max float64
	// MeanMessages is the average number of gossip messages per
	// execution.
	MeanMessages float64
	// MeanRounds is the average forwarding depth per execution.
	MeanRounds float64
}

// RunObserver streams completed executions: it is called once per run, in
// run order (run 0, 1, 2, ...) regardless of worker count, from whichever
// worker completed the ordered prefix.
type RunObserver func(run int, res Result)

// EstimateReliabilityCtx runs `runs` independent executions of the
// algorithm on a worker pool and returns aggregate statistics of the
// directed source reach. Run i consumes the RNG stream split at index i
// and results are reduced in run order, so the estimate is identical for
// any worker count (workers <= 0 means GOMAXPROCS). A context cancellation
// aborts the sweep promptly, returning ctx.Err(); observe, when non-nil,
// streams per-run results in deterministic run order.
func EstimateReliabilityCtx(ctx context.Context, p Params, runs int, seed uint64, workers int, observe RunObserver) (Estimate, error) {
	if err := p.Validate(); err != nil {
		return Estimate{}, err
	}
	if runs < 1 {
		return Estimate{}, fmt.Errorf("core: run count %d < 1", runs)
	}
	root := xrand.New(seed)
	var rel, msgs, rnds stats.Running
	err := runpool.Replicate(ctx, runs, workers, func() *executor {
		return newExecutor(p)
	}, func(run int, ex *executor) (Result, error) {
		return ex.execute(root.Split(uint64(run))), nil
	}, func(run int, res Result) {
		rel.Add(res.Reliability)
		msgs.Add(float64(res.MessagesSent))
		rnds.Add(float64(res.Rounds))
		if observe != nil {
			observe(run, res)
		}
	})
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Runs:         rel.N(),
		Mean:         rel.Mean(),
		StdDev:       rel.StdDev(),
		CI95:         rel.CI95(),
		Min:          rel.Min(),
		Max:          rel.Max(),
		MeanMessages: msgs.Mean(),
		MeanRounds:   rnds.Mean(),
	}, nil
}
