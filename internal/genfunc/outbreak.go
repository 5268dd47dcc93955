package genfunc

import (
	"fmt"
	"math"

	"gossipkit/internal/dist"
	"gossipkit/internal/numeric"
)

// OutbreakProbability returns the probability that a single multicast from
// the (never-failing) source "takes off" rather than dying out near the
// source: 1 − η, where η is the extinction probability of the forward
// branching process. With fanout distribution P and uniform targets over a
// group with nonfailed ratio q, each gossip message independently hits a
// nonfailed member with probability q, so the offspring PGF of the process
// is G_P(1 − q + q·x) and η is its smallest fixed point in [0, 1].
//
// Unlike the conditional coverage (ForwardReach, mean-only), the outbreak
// probability DOES depend on the shape of P: a Fixed(k≥2) fanout can never
// die out at q=1 (η=0), while Poisson always carries e^{−z} mass at zero
// fanout.
func OutbreakProbability(p dist.Distribution, q float64) (float64, error) {
	if err := checkRatio(q); err != nil {
		return 0, err
	}
	// Subcritical: extinction is certain when the mean offspring q·E[P]
	// is at most 1.
	if q*p.Mean() <= 1 {
		return 0, nil
	}
	g := func(eta float64) float64 { return dist.PGF(p, 1-q+q*eta) }
	// Monotone iteration from 0 converges to the smallest fixed point.
	eta, err := numeric.FixedPoint(g, 0, 1, 1e-13, 500)
	if err != nil {
		// Near-critical slow convergence: bisect h(η) = η − g(η),
		// negative at 0, positive just below 1 in the supercritical
		// regime.
		h := func(x float64) float64 { return x - g(x) }
		hi := 1.0
		for delta := 1e-9; delta < 0.5; delta *= 4 {
			if h(1-delta) > 0 {
				hi = 1 - delta
				break
			}
		}
		if hi < 1 {
			if root, err2 := numeric.Brent(h, 0, hi, 1e-13); err2 == nil {
				eta = root
			}
		}
	}
	return clamp01(1 - eta), nil
}

// ExpectedOneShotReach returns the expected fraction of nonfailed members
// one single multicast delivers to: Pr(outbreak) × conditional coverage.
// The conditional coverage is the giant out-component fraction, which for
// uniform-target gossip depends only on the mean fanout (ForwardReach);
// the outbreak probability depends on the full shape of P. For Poisson
// fanout both factors equal S, giving the S² of ablation A6.
func ExpectedOneShotReach(p dist.Distribution, q float64) (float64, error) {
	ob, err := OutbreakProbability(p, q)
	if err != nil {
		return 0, err
	}
	if ob == 0 {
		return 0, nil
	}
	cover, err := ForwardReach(p.Mean(), q)
	if err != nil {
		return 0, err
	}
	return ob * cover, nil
}

// JointReliability extends the paper's site-percolation model with bond
// percolation for message loss: each member is nonfailed with probability
// q (site) and each gossip message independently survives the network with
// probability 1−loss (bond). For uniform-target gossip, loss simply thins
// the effective mean fanout, so the giant out-component fraction solves
//
//	y = 1 − e^{−z·q·(1−loss)·y}
//
// with z the mean of P. This is the analytic counterpart of running
// core.ExecuteOnNetworkArena with simnet.BernoulliLoss.
func JointReliability(p dist.Distribution, q, loss float64) (float64, error) {
	if err := checkRatio(q); err != nil {
		return 0, err
	}
	if loss < 0 || loss > 1 || math.IsNaN(loss) {
		return 0, fmt.Errorf("genfunc: loss probability %g outside [0,1]", loss)
	}
	return PoissonReliability(p.Mean()*(1-loss), q)
}

// JointCriticalLoss returns the maximum message-loss probability the
// configuration tolerates before reliability collapses: from z·q·(1−loss)
// = 1, loss_c = 1 − 1/(z·q). It returns 0 when the configuration is
// already subcritical with no loss.
func JointCriticalLoss(p dist.Distribution, q float64) (float64, error) {
	if err := checkRatio(q); err != nil {
		return 0, err
	}
	a := p.Mean() * q
	if a <= 1 {
		return 0, nil
	}
	return 1 - 1/a, nil
}
