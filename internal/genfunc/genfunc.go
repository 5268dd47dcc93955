// Package genfunc implements the paper's analytic fault-tolerance model for
// gossip-based multicast: generalized-random-graph percolation via
// probability generating functions (Newman–Strogatz–Watts 2001, with the
// Callaway–Newman–Strogatz–Watts site-percolation extension for node
// failures).
//
// The gossip model Gossip(n, P, q) — n members, fanout distribution P, and
// nonfailed member ratio q — maps onto the random-graph ensemble ζ(n, P)
// with every node independently occupied (nonfailed) with probability q.
// The package computes, for arbitrary P:
//
//   - the critical nonfailed ratio q_c = 1/G1'(1)            (paper Eq. 3)
//   - the mean component size ⟨s⟩ below the transition        (paper Eq. 2)
//   - the reliability of gossiping R(q, P): the giant-component size as a
//     fraction of nonfailed members, obtained by solving the
//     self-consistency condition u = 1 − q + q·G1(u) and evaluating
//     S = 1 − G0(u)                                          (paper Eq. 4)
//
// Erratum handled here: the paper prints the condition as
// u = 1 − F1(1) − F1(u); the correct Callaway et al. relation, which the
// paper's own Poisson result (Eq. 11) requires, is u = 1 − F1(1) + F1(u).
//
// The package also provides the Poisson closed forms of the paper's case
// study (Eqs. 10–12) and a directed "forward spread" predictor that models
// gossip as a directed reachability process rather than an undirected giant
// component; for Poisson fanout both coincide, which is one reason the
// paper's Poisson validation works as well as it does.
package genfunc

import (
	"errors"
	"fmt"
	"math"

	"gossipkit/internal/dist"
	"gossipkit/internal/numeric"
)

// ErrInvalidRatio is returned when a nonfailed ratio is outside [0, 1].
var ErrInvalidRatio = errors.New("genfunc: nonfailed ratio must be in [0, 1]")

// Model is the generating-function view of a fanout distribution. It is
// immutable and safe for concurrent use.
type Model struct {
	p dist.Distribution
}

// New returns the percolation model for fanout distribution p.
func New(p dist.Distribution) *Model {
	if p == nil {
		panic("genfunc: nil distribution")
	}
	return &Model{p: p}
}

// G0 evaluates the degree generating function G0(x) = Σ p_k x^k.
func (m *Model) G0(x float64) float64 { return dist.PGF(m.p, x) }

// G1 evaluates the excess-degree generating function
// G1(x) = G0'(x) / G0'(1).
func (m *Model) G1(x float64) float64 {
	mean := m.p.Mean()
	if mean == 0 {
		// No edges at all: every "excess" neighborhood is empty.
		return 1
	}
	return dist.PGFPrime(m.p, x) / mean
}

// G1Prime1 returns G1'(1) = G0”(1)/G0'(1), the mean excess degree. This is
// the branching factor of the component-exploration process.
func (m *Model) G1Prime1() float64 {
	mean := m.p.Mean()
	if mean == 0 {
		return 0
	}
	return dist.PGFPrime2(m.p, 1) / mean
}

// CriticalRatio returns the critical nonfailed member ratio
// q_c = 1/G1'(1) (paper Eq. 3): for q > q_c a giant component (and hence
// non-vanishing gossip reliability) exists. If the graph is subcritical even
// with no failures (G1'(1) <= 1), it returns +Inf.
func (m *Model) CriticalRatio() float64 {
	g := m.G1Prime1()
	if g <= 0 {
		return math.Inf(1)
	}
	qc := 1 / g
	return qc
}

// MeanComponentSize returns the mean size ⟨s⟩ of the component containing a
// randomly chosen node (paper Eq. 2):
//
//	⟨s⟩ = q[1 + q·G0'(1) / (1 − q·G1'(1))]
//
// It diverges at the critical point; at or beyond criticality it returns
// +Inf.
func (m *Model) MeanComponentSize(q float64) (float64, error) {
	if err := checkRatio(q); err != nil {
		return 0, err
	}
	den := 1 - q*m.G1Prime1()
	if den <= 0 {
		return math.Inf(1), nil
	}
	return q * (1 + q*dist.PGFPrime(m.p, 1)/den), nil
}

// selfConsistentU solves u = 1 − q + q·G1(u) for the smallest root in
// [0, 1]. u is the probability that following a random edge leads to a
// finite (non-giant) branch. u = 1 is always a root; a smaller root exists
// exactly in the supercritical regime q·G1'(1) > 1.
func (m *Model) selfConsistentU(q float64) float64 {
	// Subcritical: only the trivial root.
	if q*m.G1Prime1() <= 1 {
		return 1
	}
	g := func(u float64) float64 { return 1 - q + float64(q*m.G1(u)) }
	// The map g is increasing and maps [0,1] into itself, so monotone
	// iteration from 0 converges to the smallest fixed point.
	u, err := numeric.FixedPoint(g, 0, 1, 1e-13, 500)
	if err == nil {
		return clamp01(u)
	}
	// Slow convergence near criticality: solve for δ = 1 − u instead, as
	// the root of φ(δ) = q·(1 − G1(1−δ))/δ − 1 over t = ln δ. φ falls from
	// q·G1'(1) − 1 > 0 at δ → 0 to q·(1 − G1(0)) − 1 <= 0 at δ = 1, and the
	// complement is summed term by term, so φ keeps its precision where
	// u − g(u) cancels to rounding noise. Below that resolution, or
	// without a bracket, the answer is the critical one: u = 1, S = 0.
	phi := func(t float64) float64 {
		d := math.Exp(t)
		return q*m.excessComplement(d)/d - 1
	}
	t, err := numeric.Brent(phi, -460, 0, 1e-12)
	if err != nil {
		return 1
	}
	return clamp01(1 - math.Exp(t))
}

// excessComplement returns 1 − G1(1−d) = Σ k·p_k·(1 − (1−d)^(k−1)) / G0'(1)
// without subtracting from 1, over the terms dist.PGFPrime2 sums.
func (m *Model) excessComplement(d float64) float64 {
	l := math.Log1p(-d)
	sum, mass := 0.0, 0.0
	for k := 0; k < 1<<20 && mass <= 1-1e-14; k++ {
		p := m.p.PMF(k)
		if k >= 2 {
			sum -= float64(float64(k) * p * math.Expm1(float64(k-1)*l))
		}
		mass += p
	}
	return sum / m.p.Mean()
}

// Reliability returns R(q, P), the paper's reliability of gossiping: the
// expected fraction of nonfailed members reached by the source, computed as
// the giant-component size normalized by nonfailed members,
// S = 1 − G0(u) with u from the self-consistency condition (paper Eq. 4
// with the erratum fix; see package comment).
//
// The source is assumed nonfailed (the paper's assumption), so R is the
// probability that a random nonfailed member lies in the giant component.
func (m *Model) Reliability(q float64) (float64, error) {
	if err := checkRatio(q); err != nil {
		return 0, err
	}
	if q == 0 {
		return 0, nil
	}
	u := m.selfConsistentU(q)
	return clamp01(1 - m.G0(u)), nil
}

func checkRatio(q float64) error {
	if math.IsNaN(q) || q < 0 || q > 1 {
		return fmt.Errorf("%w: got %g", ErrInvalidRatio, q)
	}
	return nil
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// ---------------------------------------------------------------------------
// Poisson closed forms (paper §4.3)

// PoissonCriticalRatio returns q_c = 1/z (paper Eq. 10): the nonfailed
// member ratio must exceed the reciprocal of the mean fanout.
func PoissonCriticalRatio(z float64) float64 {
	if z <= 0 {
		return math.Inf(1)
	}
	return 1 / z
}

// PoissonReliability solves S = 1 − e^{−zqS} (paper Eq. 11) for the
// reliability of gossiping under Poisson fanout Po(z) and nonfailed ratio q.
// It returns 0 in the subcritical regime zq <= 1 and where zq − 1 is below
// float64 resolution.
func PoissonReliability(z, q float64) (float64, error) {
	if err := checkRatio(q); err != nil {
		return 0, err
	}
	if z < 0 {
		return 0, fmt.Errorf("genfunc: negative mean fanout %g", z)
	}
	a := z * q
	if a <= 1 {
		return 0, nil
	}
	// s + expm1(−as), not s − 1 + e^{−as}: near zq = 1 the latter cancels
	// to rounding noise long before the root does.
	f := func(s float64) float64 { return s + math.Expm1(-a*s) }
	df := func(s float64) float64 { return 1 - float64(a*math.Exp(-a*s)) }
	// Root is in (0, 1]; f(eps) < 0 for small eps in the supercritical
	// regime, f(1) = exp(-a) > 0.
	lo := 1e-12
	if f(lo) >= 0 {
		return 0, nil // numerically critical
	}
	s, err := numeric.NewtonBracketed(f, df, lo, 1, 1e-14)
	if err != nil {
		return 0, err
	}
	return clamp01(s), nil
}

// PoissonMeanFanout inverts Eq. 11 into the paper's design equation
// (Eq. 12): the mean fanout z needed for reliability S at nonfailed ratio q,
// z = −ln(1 − S) / (qS). S must be in (0, 1) and q in (0, 1].
func PoissonMeanFanout(s, q float64) (float64, error) {
	if !(s > 0 && s < 1) {
		return 0, fmt.Errorf("genfunc: reliability %g outside (0,1)", s)
	}
	if !(q > 0 && q <= 1) {
		return 0, fmt.Errorf("genfunc: nonfailed ratio %g outside (0,1]", q)
	}
	return -math.Log(1-s) / (q * s), nil
}

// ---------------------------------------------------------------------------
// Directed forward-spread predictor

// ForwardReach solves y = 1 − e^{−z·q·y} for the asymptotic fraction y of
// nonfailed members reached by *directed* forward gossip with mean fanout z
// (any fanout distribution: in the n→∞ limit each gossip message is an
// independent uniform edge, so only the mean matters). For Poisson fanout
// this coincides exactly with PoissonReliability; for other distributions it
// differs from the undirected giant-component model, quantifying the paper's
// modeling approximation (ablation A1, experiment.AblationFanoutShape).
func ForwardReach(meanFanout, q float64) (float64, error) {
	return PoissonReliability(meanFanout, q)
}
