package core

import (
	"context"
	"fmt"

	"gossipkit/internal/runpool"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// SuccessParams configures the repeated-execution success protocol
// S(q, P, t): the source gossips the same message t times; a member is
// satisfied once it has received the message in at least one execution
// (paper §4.2(2) and §5.2).
type SuccessParams struct {
	Params
	// Executions is t, the number of repetitions (the paper uses 20), at
	// most 2¹⁶ (maxExecutions).
	Executions int
	// Simulations is the number of independent simulations, each with
	// its own failure mask (the paper uses 100).
	Simulations int
	// ResampleMask draws a fresh failure mask before every execution
	// instead of fixing it per simulation. The paper's Binomial analysis
	// (X ~ B(t, R)) corresponds to a fixed mask per simulation — each
	// execution then re-randomizes only the gossip — so false is the
	// default; true is ablation A3 (experiment.AblationFailureMask).
	ResampleMask bool
}

// maxExecutions bounds t. The outcome and every simulation allocate a
// receipt histogram of t + 1 bins, so an unbounded t is an out-of-memory
// crash before the first execution; 2¹⁶ is 3,277 times the paper's t.
const maxExecutions = 1 << 16

// Validate checks the parameters.
func (p SuccessParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.Executions < 1 || p.Executions > maxExecutions {
		return fmt.Errorf("core: executions %d outside [1, %d]", p.Executions, maxExecutions)
	}
	if p.Simulations < 1 {
		return fmt.Errorf("core: simulations %d < 1", p.Simulations)
	}
	return nil
}

// SuccessOutcome aggregates the success-protocol measurements that the
// paper's Figs. 6–7 report.
type SuccessOutcome struct {
	// ReceiptHistogram counts, over all (simulation, nonfailed member)
	// pairs, the number X of executions in which the member received m.
	// Bin k = number of member-observations with X = k, k in
	// 0..Executions. The paper compares this with B(t, R).
	ReceiptHistogram *stats.Histogram
	// SuccessRate is the fraction of simulations in which EVERY
	// nonfailed member received m at least once across the t executions
	// — the empirical Pr(S(q, P, t)).
	SuccessRate float64
	// MeanExecutionReliability is the average single-execution
	// reliability observed, the empirical p_r of Eq. 5.
	MeanExecutionReliability float64
	// Simulations and Executions echo the configuration.
	Simulations, Executions int
}

// ReferenceBinomial returns the PMF of B(Executions, p) for overlaying on
// ReceiptHistogram, as the paper does in Figs. 6–7 with p = R(q, P).
func (o SuccessOutcome) ReferenceBinomial(p float64) []float64 {
	return stats.BinomialPMFs(o.Executions, p)
}

// ChiSquareAgainst tests the receipt histogram against B(Executions, p);
// it returns the statistic, degrees of freedom, and p-value.
func (o SuccessOutcome) ChiSquareAgainst(p float64) (float64, int, float64, error) {
	obs := make([]int64, o.Executions+1)
	for k := range obs {
		obs[k] = o.ReceiptHistogram.Count(k)
	}
	return stats.ChiSquare(obs, o.ReferenceBinomial(p), 5)
}

// SuccessSim summarizes one simulation of the success protocol: t
// executions over one failure mask.
type SuccessSim struct {
	// Counts is the receipt histogram of this simulation: Counts[k]
	// nonfailed members received m in exactly k of the t executions.
	Counts []int64
	// Success reports whether every nonfailed member received m at least
	// once.
	Success bool
	// MeanReliability is the mean per-execution reliability observed in
	// this simulation.
	MeanReliability float64
}

// SuccessObserver streams completed simulations in simulation order,
// regardless of worker count.
type SuccessObserver func(sim int, s SuccessSim)

// RunSuccessCtx runs the success protocol's p.Simulations independent
// simulations on a worker pool with per-simulation RNG streams, so the
// outcome depends only on the seed and is identical for any worker count
// (workers <= 0 means GOMAXPROCS). Context cancellation aborts promptly
// with ctx.Err(); observe, when non-nil, streams per-simulation summaries
// in deterministic simulation order.
func RunSuccessCtx(ctx context.Context, p SuccessParams, seed uint64, workers int, observe SuccessObserver) (SuccessOutcome, error) {
	if err := p.Validate(); err != nil {
		return SuccessOutcome{}, err
	}
	root := xrand.New(seed)
	type worker struct {
		ex       *executor
		receipts []int32
	}
	hist := stats.NewHistogram(p.Executions + 1)
	successes := 0
	var relSum float64
	err := runpool.Replicate(ctx, p.Simulations, workers,
		func() worker {
			return worker{ex: newExecutor(p.Params), receipts: make([]int32, p.N)}
		}, func(s int, wk worker) (oneSim, error) {
			return runOneSimulation(p, wk.ex, wk.receipts, root.Split(uint64(s))), nil
		}, func(s int, sr oneSim) {
			for k, c := range sr.counts {
				for i := int64(0); i < c; i++ {
					hist.Add(k)
				}
			}
			if sr.success {
				successes++
			}
			relSum += sr.relTotal
			if observe != nil {
				observe(s, SuccessSim{
					Counts:          sr.counts,
					Success:         sr.success,
					MeanReliability: sr.relTotal / float64(p.Executions),
				})
			}
		})
	if err != nil {
		return SuccessOutcome{}, err
	}
	return SuccessOutcome{
		ReceiptHistogram:         hist,
		SuccessRate:              float64(successes) / float64(p.Simulations),
		MeanExecutionReliability: relSum / float64(p.Simulations*p.Executions),
		Simulations:              p.Simulations,
		Executions:               p.Executions,
	}, nil
}

type oneSim struct {
	counts   []int64
	success  bool
	relTotal float64
}

// runOneSimulation performs t executions over one failure mask (or a fresh
// mask per execution when resampling) and tallies per-member receipt
// counts. ex and receipts are reusable scratch owned by the calling worker.
func runOneSimulation(p SuccessParams, ex *executor, receipts []int32, r *xrand.RNG) oneSim {
	for i := range receipts {
		receipts[i] = 0
	}
	mask := &ex.mask
	out := oneSim{counts: make([]int64, p.Executions+1)}
	for t := 0; t < p.Executions; t++ {
		keys := KeyRoot(r)
		if t == 0 || p.ResampleMask {
			p.drawMaskInto(mask, r)
		}
		res := ex.run(mask, &keys)
		out.relTotal += res.Reliability
		for _, v := range ex.delivered() {
			receipts[v]++
		}
	}
	// Tally X over members that are nonfailed under the simulation's
	// (final) mask; with a fixed mask this is exactly the paper's
	// nonfailed population.
	success := true
	for i := 0; i < p.N; i++ {
		if !mask.Alive(i) {
			continue
		}
		x := int(receipts[i])
		if x > p.Executions {
			x = p.Executions
		}
		out.counts[x]++
		if x == 0 {
			success = false
		}
	}
	out.success = success
	return out
}

// RequiredExecutions returns the paper's Eq. 6: the minimum t such that
// Pr(S(q, P, t)) = 1 − (1 − R)^t reaches the target probability, where R is
// the model's predicted reliability for p.
func RequiredExecutions(p Params, successTarget float64) (int, error) {
	pred, err := Predict(p)
	if err != nil {
		return 0, err
	}
	if pred.Reliability <= 0 {
		return 0, fmt.Errorf("core: predicted reliability is 0 (q=%g below critical %g); no t suffices",
			p.AliveRatio, pred.CriticalRatio)
	}
	return stats.MinTrials(successTarget, pred.Reliability)
}
