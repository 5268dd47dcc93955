// Package gossipkit is a toolkit for building and analyzing gossip-based
// reliable multicast protocols under node failures. It reproduces, as a
// production-grade Go library, the system and the analytic model of:
//
//	Xiaopeng Fan, Jiannong Cao, Weigang Wu, Michel Raynal.
//	"On Modeling Fault Tolerance of Gossip-Based Reliable Multicast
//	Protocols." ICPP 2008.
//
// The package is a thin, stable facade over the internal packages; its
// Example functions and the executables under cmd/ are built entirely on
// this surface.
//
// # Quick start
//
// Every backend — the analytic model, the Monte-Carlo estimator, the
// discrete-event network, the fault-injection scenario runner, and the
// related-work protocol baselines — runs behind one context-aware entry
// point:
//
//	p := gossipkit.Params{
//		N:          1000,
//		Fanout:     gossipkit.Poisson(4.0), // fanout distribution P
//		AliveRatio: 0.9,                    // nonfailed member ratio q
//	}
//	pred, _ := gossipkit.Predict(p) // analytic R(q, P), Eq. 11
//	out, _ := gossipkit.RunMany(ctx, gossipkit.MonteCarlo{Params: p}, 20,
//		gossipkit.WithSeed(42)) // 20 seeded replications on a worker pool
//	fmt.Printf("model %.3f, measured %.3f\n", pred.Reliability, out.Reliability.Mean)
//
// Cancel the context to stop a sweep mid-flight (errors.Is(err,
// gossipkit.ErrCanceled)); stream per-run progress with
// gossipkit.WithObserver, whose callbacks arrive in deterministic run
// order for any worker count. See Engine for the full backend list.
//
// # Choosing parameters
//
// Given a target reliability S and an expected failure level q, Eq. 12
// gives the Poisson mean fanout to provision:
//
//	z, _ := gossipkit.FanoutForReliability(0.999, 0.8)
//
// and Eq. 6 the number of repeated executions for a success target:
//
//	t, _ := gossipkit.ExecutionsForSuccess(p, 0.999)
package gossipkit

import (
	"fmt"
	"math"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/membership"
	"gossipkit/internal/scenario"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// Params configures the gossip model Gossip(n, P, q); see core.Params.
type Params = core.Params

// Result is the outcome of one gossip execution.
type Result = core.Result

// Estimate is a Monte-Carlo reliability estimate.
type Estimate = core.Estimate

// ComponentEstimate is a Monte-Carlo giant-component estimate (the paper's
// simulated reliability metric).
type ComponentEstimate = core.ComponentEstimate

// Prediction is the analytic model's output.
type Prediction = core.Prediction

// SuccessParams configures the repeated-execution success protocol.
type SuccessParams = core.SuccessParams

// SuccessOutcome aggregates success-protocol measurements.
type SuccessOutcome = core.SuccessOutcome

// Distribution is a discrete fanout distribution.
type Distribution = dist.Distribution

// RNG is the deterministic random number generator used throughout.
type RNG = xrand.RNG

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// Poisson returns the Poisson fanout distribution Po(z) of the paper's case
// study.
func Poisson(z float64) Distribution { return dist.NewPoisson(z) }

// FixedFanout returns the traditional fixed-fanout distribution.
func FixedFanout(k int) Distribution { return dist.NewFixed(k) }

// GeometricFanout returns the geometric fanout distribution on {0,1,...}
// with success probability p (mean (1−p)/p).
func GeometricFanout(p float64) Distribution { return dist.NewGeometric(p) }

// UniformFanout returns the uniform fanout distribution on {lo..hi}.
func UniformFanout(lo, hi int) Distribution { return dist.NewUniformRange(lo, hi) }

// NegBinomialFanout returns the overdispersed negative binomial fanout
// NB(r, p) on {0,1,...} (mean r(1−p)/p).
func NegBinomialFanout(r int, p float64) Distribution { return dist.NewNegBinomial(r, p) }

// ParseFanout builds a fanout distribution of the given mean from
// untrusted input (CLI flags, config files). The panicking constructors
// above treat invalid parameters as programmer error; ParseFanout instead
// returns an error wrapping ErrInvalidParams, so user input never panics.
//
// Kinds: "poisson" (Po(mean)), "fixed" (point mass at ⌊mean⌋),
// "geometric" (success probability chosen so the mean matches), and
// "uniform" (uniform on {1..⌊mean⌋}, which needs mean >= 1). The two
// integer-valued kinds reject a mean above math.MaxInt32.
func ParseFanout(kind string, mean float64) (Distribution, error) {
	if mean < 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("%w: fanout mean %g (want a finite value >= 0)", ErrInvalidParams, mean)
	}
	if (kind == "fixed" || kind == "uniform") && mean > math.MaxInt32 {
		// int(mean) below would overflow into a negative fanout.
		return nil, fmt.Errorf("%w: %s fanout mean %g exceeds %d", ErrInvalidParams, kind, mean, math.MaxInt32)
	}
	switch kind {
	case "poisson":
		return dist.NewPoisson(mean), nil
	case "fixed":
		return dist.NewFixed(int(mean)), nil
	case "geometric":
		// Mean (1-p)/p = mean → p = 1/(1+mean).
		return dist.NewGeometric(1 / (1 + mean)), nil
	case "uniform":
		if int(mean) < 1 {
			return nil, fmt.Errorf("%w: uniform fanout needs a mean >= 1, got %g", ErrInvalidParams, mean)
		}
		return dist.NewUniformRange(1, int(mean)), nil
	default:
		return nil, fmt.Errorf("%w: unknown fanout distribution %q (want poisson, fixed, geometric, or uniform)", ErrInvalidParams, kind)
	}
}

// AtLeastOnce conditions a fanout distribution on drawing at least one
// target, so no member ever stays silent.
func AtLeastOnce(d Distribution) Distribution { return dist.NewZeroTruncated(d) }

// Predict evaluates the analytic fault-tolerance model for p. It is the
// function form of the Analytic engine. Every error it returns wraps
// ErrInvalidParams.
func Predict(p Params) (Prediction, error) {
	pred, err := core.Predict(p)
	if err != nil {
		return Prediction{}, invalid(err)
	}
	return pred, nil
}

// ExecutionsForSuccess returns the minimum number of executions t needed to
// reach the success probability target (paper Eq. 6), using the model's
// predicted per-execution reliability. Every error it returns wraps
// ErrInvalidParams, including the one for p at or below the critical
// ratio, where no t suffices.
func ExecutionsForSuccess(p Params, target float64) (int, error) {
	t, err := core.RequiredExecutions(p, target)
	if err != nil {
		return 0, invalid(err)
	}
	return t, nil
}

// SuccessAfter returns 1 − (1 − r)^t: the probability that t repeated
// executions with per-execution reliability r satisfy every member (paper
// Eq. 5), computed stably for tiny r.
func SuccessAfter(r float64, t int) float64 { return stats.AtLeastOne(r, t) }

// FanoutForReliability returns the Poisson mean fanout z needed for
// reliability s at nonfailed ratio q (paper Eq. 12). Every error it
// returns wraps ErrInvalidParams.
func FanoutForReliability(s, q float64) (float64, error) {
	z, err := genfunc.PoissonMeanFanout(s, q)
	if err != nil {
		return 0, invalid(err)
	}
	return z, nil
}

// CriticalRatio returns q_c = 1/z for Poisson fanout (paper Eq. 10): below
// this nonfailed ratio, gossip reliability collapses.
func CriticalRatio(meanFanout float64) float64 {
	return genfunc.PoissonCriticalRatio(meanFanout)
}

// FullView returns complete membership knowledge over n members (the
// paper's assumption).
func FullView(n int) membership.View { return membership.NewFullView(n) }

// PartialViews builds SCAMP-style partial membership views (substrate for
// the paper's assumption that "a scalable membership protocol is
// available"). c is the number of extra subscription copies; views grow
// with (c+1)·log(n) — the measured mean at c = 2 is 24.1 / 32.4 / 40.2
// entries (largest 51 / 63 / 76) at n = 10³ / 10⁴ / 10⁵.
func PartialViews(n, c int, r *RNG) *membership.PartialViews {
	return membership.NewPartialViews(n, c, r)
}

// ---------------------------------------------------------------------------
// Topology: generated gossip overlays

// Topology selects the overlay gossip targets are drawn from. The zero
// value is the paper's uniform full view; non-uniform kinds restrict each
// member to a generated neighbor set (see WithTopology). Build one with
// the constructors below or ParseTopology.
type Topology = topology.Spec

// TopologyKind enumerates the overlay families.
type TopologyKind = topology.Kind

// Overlay kinds.
const (
	// TopologyUniform draws targets uniformly from the full membership
	// (the paper's assumption; the zero value).
	TopologyUniform = topology.Uniform
	// TopologyKOut gives every member k distinct random out-neighbors.
	TopologyKOut = topology.KOut
	// TopologyScaleFree grows a Barabási–Albert preferential-attachment
	// overlay (undirected, m arcs per joining member).
	TopologyScaleFree = topology.ScaleFree
	// TopologyWAN clusters members into zones: k intra-zone neighbors
	// plus one inter-zone bridge per member.
	TopologyWAN = topology.WAN
)

// KOutTopology is the k-out regular overlay: every member gossips to a
// fixed set of k distinct random neighbors. k <= 0 defaults to ⌈log₂ n⌉.
func KOutTopology(k int) Topology { return Topology{Kind: TopologyKOut, K: k} }

// ScaleFreeTopology is the Barabási–Albert preferential-attachment
// overlay with m arcs per joining member (degree distribution follows a
// power law, so a few hubs carry most arcs). m <= 0 defaults to ⌈log₂ n⌉.
func ScaleFreeTopology(m int) Topology { return Topology{Kind: TopologyScaleFree, K: m} }

// WANTopology clusters the membership into zones of contiguous ids:
// every member gets k intra-zone neighbors plus one random inter-zone
// bridge. Pair it with WANLatency for heterogeneous inter-zone delays.
// k <= 0 defaults to ⌈log₂ n⌉.
func WANTopology(zones, k int) Topology {
	return Topology{Kind: TopologyWAN, Zones: zones, K: k}
}

// ParseTopology builds a topology spec from untrusted input (CLI flags,
// config files): "uniform", "kout[:K]", "ba[:M]", or "wan:ZONES[:K]".
// Errors wrap ErrInvalidParams.
func ParseTopology(s string) (Topology, error) {
	t, err := topology.Parse(s)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return t, nil
}

// WANLatency is the zone-pair latency matrix WAN topologies gossip over:
// intra-zone messages take [local, 2·local], and each hop of ring
// distance between zones adds step to the band. The scenario runner
// installs it automatically for WAN topologies when no latency model is
// set; set it explicitly on NetConfig.Latency for the Network engine.
func WANLatency(n, zones int, local, step time.Duration) simnet.LatencyModel {
	return topology.NewZoneLatency(n, zones, local, step)
}

// NetConfig configures the simulated network substrate of the
// discrete-event engines: its latency and loss models.
type NetConfig = simnet.Config

// NetResult is a network-backed execution outcome.
type NetResult = core.NetResult

// ---------------------------------------------------------------------------
// Scenario engine: declarative time-varying fault campaigns

// Scenario is a named, timestamped fault-injection campaign applied to a
// running network execution (crash waves, zone failures, partitions that
// heal, churn bursts, loss episodes, flash crowds). Build one with
// NewScenario and the scenario action constructors, or parse a JSON spec
// with ParseScenario.
type Scenario = scenario.Scenario

// ScenarioAction is one fault-injection operation of a Scenario.
type ScenarioAction = scenario.Action

// ScenarioRunConfig parameterizes scenario executions.
type ScenarioRunConfig = scenario.RunConfig

// ScenarioReport is the outcome of one scenario execution, including the
// static-q (Eq. 11) and effective-q model comparisons.
type ScenarioReport = scenario.RunReport

// ScenarioSweepResult aggregates a scenario × seed sweep.
type ScenarioSweepResult = scenario.SweepResult

// NewScenario starts a fault-injection campaign for the builder API:
//
//	s := gossipkit.NewScenario("wave", "crash wave mid-spread").
//		At(5*time.Millisecond, gossipkit.CrashFraction(0.2))
func NewScenario(name, description string) *Scenario { return scenario.New(name, description) }

// ParseScenario decodes and validates a JSON scenario spec.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// DefaultScenarioSuite returns the bundled fault campaigns.
func DefaultScenarioSuite() []*Scenario { return scenario.DefaultSuite() }

// ScenarioByName returns the bundled scenario with the given name.
func ScenarioByName(name string) (*Scenario, bool) { return scenario.ByName(name) }

// ScenarioGridResult aggregates a grid sweep, one cell per
// (scenario, q, fanout); its CSV method emits the regression-tracking grid.
type ScenarioGridResult = scenario.GridResult

// ScenarioExecutor is the protocol a campaign drives: the seam that lets
// any scenario target any dissemination protocol on the shared
// discrete-event substrate. A nil ScenarioRunConfig.Executor runs the
// paper's algorithm; BaselineExecutor wraps any related-work protocol spec.
// A Campaign builds one executor per protocol row from the same
// constructors.
type ScenarioExecutor = scenario.Executor

// BaselineExecutor wraps a baseline protocol spec (PbcastParams,
// LpbcastParams, AntiEntropyParams, RDGParams, LRGParams, FloodingParams)
// as a ScenarioExecutor: set it on ScenarioRunConfig.Executor to run any
// campaign — crash waves, partitions, loss episodes, flash crowds — against
// that baseline instead of the paper's algorithm.
func BaselineExecutor(spec ProtocolSpec) ScenarioExecutor {
	return scenario.NewProtocolExecutor(spec)
}

// ScenarioCompareResult aggregates a (protocol × scenario) comparison grid
// (the Aggregate of a Campaign with protocol rows), one cell per pair; its
// CSV method emits the regression-tracking grid with escaped fields.
type ScenarioCompareResult = scenario.CompareResult

// Scenario action constructors, re-exported for campaign building.
var (
	CrashFraction   = scenario.CrashFraction
	CrashZone       = scenario.CrashZone
	RestartFraction = scenario.RestartFraction
	PartitionRange  = scenario.Partition
	HealPartition   = scenario.Heal
	ScenarioLoss    = scenario.Loss
	ScenarioLatency = scenario.Latency
	BurstLoss       = scenario.BurstLoss
	ClearLoss       = scenario.ClearLoss
	ChurnFraction   = scenario.ChurnFraction
	FlashCrowd      = scenario.FlashCrowd
	Regossip        = scenario.Regossip
)

// ConstantLatency delays every message by d. The engines reject a negative
// d, or one past the per-hop ceiling (about 4.9 h; see validateNet), with
// ErrInvalidParams when they run.
func ConstantLatency(d time.Duration) simnet.LatencyModel { return simnet.ConstantLatency{D: d} }

// UniformLatency draws per-message delays uniformly from [lo, hi]. The
// engines reject lo < 0, hi < lo or hi past the per-hop ceiling (about
// 4.9 h; see validateNet) with ErrInvalidParams when they run.
func UniformLatency(lo, hi time.Duration) simnet.LatencyModel {
	return simnet.UniformLatency{Lo: lo, Hi: hi}
}

// BernoulliLoss drops each message independently with probability p. The
// engines reject a p outside [0, 1] (ErrInvalidParams) when they run.
func BernoulliLoss(p float64) simnet.LossModel { return simnet.BernoulliLoss{P: p} }

// maxHopLatency is the longest per-hop delay the DES engines accept: the
// kernel's time range (sim.MaxTime, about 834 days) over 4096, about 4.9 h,
// so a run fits 4096 such hops end to end. It bounds a constant D, a
// uniform Hi, and an exponential model's Floor + 7·Mean — the band simnet
// sizes the calendar queue for, past which a draw is rarer than 10⁻³.
const maxHopLatency = time.Duration(sim.MaxTime >> 12)

// validateNet is the DES engines' upfront check of the network substrate
// they were handed: a Bernoulli loss probability must be a probability
// (simnet draws with it unchecked, so 7 would drop everything and NaN or
// −3 nothing, silently), and a latency model must describe non-negative
// delays — simnet reads UniformLatency{Hi < Lo} as the constant Lo, and a
// negative delay is an event scheduled in the past — no longer than
// maxHopLatency, so no delivery lands past the kernel's time range.
func validateNet(net NetConfig) error {
	if b, ok := net.Loss.(simnet.BernoulliLoss); ok && !(b.P >= 0 && b.P <= 1) {
		return fmt.Errorf("%w: loss probability %g outside [0,1]", ErrInvalidParams, b.P)
	}
	switch l := net.Latency.(type) {
	case simnet.ConstantLatency:
		if l.D < 0 {
			return fmt.Errorf("%w: negative latency %v", ErrInvalidParams, l.D)
		}
		return checkHopLatency("constant latency", float64(l.D))
	case simnet.UniformLatency:
		if l.Lo < 0 || l.Hi < l.Lo {
			return fmt.Errorf("%w: uniform latency [%v, %v] is not a range of non-negative delays", ErrInvalidParams, l.Lo, l.Hi)
		}
		return checkHopLatency("uniform latency bound", float64(l.Hi))
	case simnet.ExponentialLatency:
		if l.Floor < 0 || l.Mean < 0 {
			return fmt.Errorf("%w: exponential latency floor %v, mean %v: neither may be negative", ErrInvalidParams, l.Floor, l.Mean)
		}
		// In float, so a huge Mean cannot wrap.
		return checkHopLatency("exponential latency floor + 7·mean", float64(l.Floor)+7*float64(l.Mean))
	}
	return nil
}

// checkHopLatency rejects a per-hop delay (in ns) above maxHopLatency.
func checkHopLatency(what string, d float64) error {
	if d > float64(maxHopLatency) {
		return fmt.Errorf("%w: %s %.4gs exceeds the per-hop ceiling %v", ErrInvalidParams, what, d/1e9, maxHopLatency)
	}
	return nil
}
