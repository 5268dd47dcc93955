package core

import (
	"context"
	"fmt"
	"math"

	"gossipkit/internal/runpool"
	"gossipkit/internal/xrand"
)

// EpidemicTrace reports the spread of one execution round by round:
// Infected[r] is the number of alive members whose first receipt happened
// at forwarding depth <= r (the source is depth 0). The trace ends at the
// round where the spread stopped growing.
type EpidemicTrace struct {
	// Infected is the cumulative infection count per round.
	Infected []int
	// Result is the execution's summary.
	Result Result
}

// trace runs one execution and records the per-round infection curve. The
// round structure is the BFS depth of the single-shot algorithm: members
// whose first receipt is at depth r forward during "round" r+1.
func (e *executor) trace(r *xrand.RNG) EpidemicTrace {
	res := e.execute(r)
	counts := make([]int, res.Rounds+1)
	for _, v := range e.delivered() {
		counts[e.depth[v]]++
	}
	// Convert to cumulative.
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	return EpidemicTrace{Infected: counts, Result: res}
}

// RecurrenceModel implements the round-recurrence analysis used by the
// pbcast line of work (the paper's related work §2, Birman et al. [5]):
// the expected infection curve of single-shot gossip where only members
// infected in round t forward during round t+1. With mean fanout z over a
// group of n members of which n·q are alive,
//
//	newlyInfected_{t+1} = susceptible_t · (1 − e^{−z·newlyInfected_t / n})
//
// It returns the expected cumulative alive infections per round, starting
// from the single source, for the given number of rounds (the curve
// flattens once new infections vanish).
//
// This mean-field recurrence reproduces the early exponential phase and
// the saturation plateau of the simulation's trace; the paper's
// critique — that the recurrence gives only bounds, not the closed-form
// reliability — is visible in that the plateau approaches n·q·S only
// asymptotically.
func RecurrenceModel(n int, z, q float64, rounds int) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: group size %d too small", n)
	}
	if z < 0 {
		return nil, fmt.Errorf("core: negative mean fanout %g", z)
	}
	if q < 0 || q > 1 || q != q {
		return nil, fmt.Errorf("core: alive ratio %g outside [0,1]", q)
	}
	if rounds < 0 {
		return nil, fmt.Errorf("core: negative round count %d", rounds)
	}
	alive := float64(n) * q
	if alive < 1 {
		alive = 1
	}
	cum := make([]float64, rounds+1)
	cum[0] = 1 // the source
	newly := 1.0
	for t := 1; t <= rounds; t++ {
		susceptible := alive - cum[t-1]
		if susceptible < 0 {
			susceptible = 0
		}
		// Each of the newly infected sends z messages to uniform
		// targets; a fixed susceptible member is missed by all of them
		// with probability e^{−z·newly/n}.
		hit := 1 - math.Exp(-z*newly/float64(n))
		newly = susceptible * hit
		cum[t] = cum[t-1] + newly
	}
	return cum, nil
}

// RoundsToCoverage returns the first round at which the recurrence model
// reaches the given fraction of its own plateau (e.g. 0.99), a convenient
// latency proxy. It returns the horizon if the target is never reached.
func RoundsToCoverage(n int, z, q, fraction float64, horizon int) (int, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("core: coverage fraction %g outside (0,1]", fraction)
	}
	cum, err := RecurrenceModel(n, z, q, horizon)
	if err != nil {
		return 0, err
	}
	plateau := cum[len(cum)-1]
	for r, c := range cum {
		if c >= fraction*plateau {
			return r, nil
		}
	}
	return horizon, nil
}

// MeanTraceRounds averages `runs` infection curves (aligned per round,
// ragged tails padded with each run's final value) — the simulation side
// of RecurrenceModel. Run i traces the stream split at index i on its
// worker's executor and the curves are summed in run order, so the mean is
// deterministic for a given seed; cancellation aborts with ctx.Err().
func MeanTraceRounds(ctx context.Context, p Params, runs int, seed uint64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if runs < 1 {
		return nil, fmt.Errorf("core: run count %d < 1", runs)
	}
	root := xrand.New(seed)
	var curves [][]int
	maxLen := 0
	err := runpool.Replicate(ctx, runs, 0, func() *executor {
		return newExecutor(p)
	}, func(i int, ex *executor) ([]int, error) {
		return ex.trace(root.Split(uint64(i))).Infected, nil
	}, func(_ int, c []int) {
		curves = append(curves, c)
		maxLen = max(maxLen, len(c))
	})
	if err != nil {
		return nil, err
	}
	mean := make([]float64, maxLen)
	for _, c := range curves {
		for r := 0; r < maxLen; r++ {
			v := c[len(c)-1]
			if r < len(c) {
				v = c[r]
			}
			mean[r] += float64(v)
		}
	}
	for r := range mean {
		mean[r] /= float64(runs)
	}
	return mean, nil
}
