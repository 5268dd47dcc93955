package gossipkit

import (
	"context"
	"fmt"
	"time"

	"gossipkit/internal/obs"
	"gossipkit/internal/protocols"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// The protocol-comparison layer: the baseline dissemination protocols the
// paper positions itself against (§2 Related Work), each a ProtocolSpec the
// Baseline engine runs, so they compose with Run/RunMany, cancellation, and
// observers exactly like the paper's own algorithm.
//
// Every baseline executes on the shared discrete-event substrate (the sim
// kernel driving round ticks, every gossip/digest/NACK/reply routed through
// the simulated network), so the Net field subjects a baseline to the same
// latency models, message loss, and partitions as the paper's algorithm.
// The zero NetConfig — zero latency, no loss — reproduces the legacy
// synchronous round loops exactly (internal/protocols pins this per
// protocol against the loops themselves, which compile only under go
// test, and against golden values).

// PbcastParams configures the Pbcast round-based baseline (Bimodal
// Multicast, Birman et al.).
type PbcastParams = protocols.PbcastParams

// LpbcastParams configures the lpbcast bounded-buffer baseline (Eugster et
// al.).
type LpbcastParams = protocols.LpbcastParams

// AntiEntropyParams configures the classic anti-entropy epidemic (Demers
// et al.).
type AntiEntropyParams = protocols.AntiEntropyParams

// AntiEntropyMode selects the anti-entropy exchange direction.
type AntiEntropyMode = protocols.Mode

// Anti-entropy exchange directions.
const (
	Push     = protocols.Push
	Pull     = protocols.Pull
	PushPull = protocols.PushPull
)

// RDGParams configures the Route-Driven-Gossip baseline (Luo, Eugster &
// Hubaux).
type RDGParams = protocols.RDGParams

// LRGParams configures the local-retransmission gossip baseline (Jia et
// al.).
type LRGParams = protocols.LRGParams

// FloodingParams configures the best-effort flooding baseline.
type FloodingParams = protocols.FloodingParams

// ProtocolSpec is a baseline protocol parameter set that can run on the
// discrete-event substrate: PbcastParams, LpbcastParams, AntiEntropyParams,
// RDGParams, LRGParams, and FloodingParams all implement it. The Compare
// engine and the scenario executors take any mix of them.
type ProtocolSpec = protocols.Spec

// ProtocolResult is the common outcome report of the protocol baselines.
type ProtocolResult = protocols.Result

// LpbcastResult reports lpbcast's per-event delivery.
type LpbcastResult = protocols.LpbcastResult

// AntiEntropyResult extends ProtocolResult with the per-round infection
// curve.
type AntiEntropyResult = protocols.AntiEntropyResult

// RDGResult extends ProtocolResult with recovery accounting.
type RDGResult = protocols.RDGResult

// ProtocolSweep is Outcome.Aggregate for RunMany over the Baseline engine:
// Estimate-style moments of the replications, reduced in run order
// (deterministic for any worker count).
type ProtocolSweep struct {
	// Protocol names the baseline that ran.
	Protocol string
	// Runs is the number of completed replications.
	Runs int
	// Reliability aggregates each run's headline delivery ratio
	// (delivered/alive; mean per-event delivery for lpbcast).
	Reliability Moments
	// SurvivorReliability aggregates delivery over the members still up
	// when each run drained — identical to Reliability under the static
	// mask alone, lower when Net faults removed members mid-run.
	SurvivorReliability Moments
	// Messages aggregates protocol messages per run.
	Messages Moments
	// Rounds aggregates rounds to quiescence per run.
	Rounds Moments
	// SpreadMs aggregates each run's last first-receipt time. All zeros
	// under the default zero-latency network.
	SpreadMs Moments
}

// Baseline is the engine for the related-work baselines, the facade twin of
// BaselineExecutor: Protocol names the baseline and carries its parameters
// (PbcastParams, LpbcastParams, AntiEntropyParams, RDGParams, LRGParams or
// FloodingParams), and every run executes it on the same discrete-event
// substrate as Network. Report.Detail is the protocol's per-run result:
// ProtocolResult for pbcast, LRG and flooding; AntiEntropyResult (with the
// infection curve) and RDGResult (with recovery accounting) for
// anti-entropy and RDG; LpbcastResult for lpbcast, whose
// Report.Reliability is the mean per-event delivery and whose reports
// carry no Delivered or Rounds (MinReliability shows buffer pressure
// first). Under RunMany, Outcome.Aggregate is the *ProtocolSweep.
type Baseline struct {
	// Protocol is the baseline to run; nil is invalid.
	Protocol ProtocolSpec
	// Net is the simulated-network substrate the protocol's messages
	// cross; the zero value (no latency, no loss) reproduces the legacy
	// synchronous round loop exactly.
	Net NetConfig
	// RoundInterval paces the gossip round ticks; zero defaults to Net's
	// latency bound (20ms for unbounded models, 1ms with no latency
	// model), so rounds do not pipeline into still-airborne messages
	// unless asked to. A negative interval is invalid.
	RoundInterval time.Duration
}

// Name implements Engine: the protocol's name ("pbcast", "lpbcast",
// "anti-entropy", "rdg", "lrg", "flooding"), or "baseline" while Protocol
// is nil.
func (s Baseline) Name() string {
	if s.Protocol == nil {
		return "baseline"
	}
	return s.Protocol.Protocol()
}

// validate checks the protocol's parameters, the round interval, the
// network and the WithTopology overlay for the protocol's group size.
func (s Baseline) validate(o *runOptions) error {
	if s.Protocol == nil {
		return fmt.Errorf("%w: baseline protocol is nil", ErrInvalidParams)
	}
	if err := s.Protocol.Validate(); err != nil {
		return invalid(err)
	}
	if s.RoundInterval < 0 {
		return fmt.Errorf("%w: round interval %v < 0", ErrInvalidParams, s.RoundInterval)
	}
	if err := validateNet(s.Net); err != nil {
		return err
	}
	n, _ := protocols.Shape(s.Protocol)
	if err := o.topology.Validate(n); err != nil {
		return invalid(err)
	}
	return nil
}

// run executes every replication on the discrete-event substrate
// (protocols.RunOnDES) under the facade's replication policy (replicate).
// Under RunMany the per-run results additionally reduce — in run order, so
// the moments are identical for any worker count — into the ProtocolSweep
// aggregate.
func (s Baseline) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	// WithTopology threads through to the DES substrate: the runtime
	// generates the overlay per run from a non-consuming split, so the
	// uniform spec keeps the legacy RNG streams byte-identical.
	cfg := protocols.DESConfig{Net: s.Net, RoundInterval: s.RoundInterval, Topology: o.topology}
	type probedOutcome struct {
		out     protocols.DESOutcome
		metrics *obs.Metrics
	}
	var rel, srel, msgs, rounds, spread stats.Running
	err := replicate(ctx, o, o.newDESState,
		func(r *xrand.RNG, st desState) (probedOutcome, error) {
			runCfg := cfg
			runCfg.Probe = st.probe
			out, err := protocols.RunOnDES(s.Protocol, runCfg, r, nil, st.arena)
			return probedOutcome{out, st.probe.Metrics()}, err
		}, func(po probedOutcome) {
			rep := baselineReport(po.out)
			rep.Metrics = po.metrics
			rel.Add(rep.Reliability)
			srel.Add(po.out.SurvivorReliability)
			msgs.Add(float64(rep.MessagesSent))
			// The runtime's round counter, not the report's: lpbcast's
			// legacy report shape carries no Rounds field, but its runtime
			// still ticks rounds to quiescence.
			rounds.Add(float64(po.out.Rounds))
			spread.Add(rep.SpreadMs)
			emit(rep)
		})
	if err != nil {
		return nil, err
	}
	if !o.many {
		return nil, nil
	}
	return &ProtocolSweep{
		Protocol:            s.Protocol.Protocol(),
		Runs:                rel.N(),
		Reliability:         momentsOf(rel),
		SurvivorReliability: momentsOf(srel),
		Messages:            momentsOf(msgs),
		Rounds:              momentsOf(rounds),
		SpreadMs:            momentsOf(spread),
	}, nil
}

// baselineReport shapes one run as its protocol's Report: the headline
// fields come from the common ProtocolResult (embedded in anti-entropy's
// and RDG's richer results), except lpbcast's, which reports its mean
// per-event delivery and has no Delivered or Rounds.
func baselineReport(out protocols.DESOutcome) Report {
	rep := Report{SpreadMs: float64(out.SpreadTime) / float64(time.Millisecond), Detail: out.Detail}
	var res ProtocolResult
	switch d := out.Detail.(type) {
	case LpbcastResult:
		rep.Reliability, rep.AliveCount, rep.MessagesSent = d.MeanReliability, d.AliveCount, d.MessagesSent
		return rep
	case AntiEntropyResult:
		res = d.Result
	case RDGResult:
		res = d.Result
	case ProtocolResult:
		res = d
	}
	rep.Reliability, rep.Delivered, rep.AliveCount = res.Reliability, res.Delivered, res.AliveCount
	rep.MessagesSent, rep.Rounds = res.MessagesSent, res.Rounds
	return rep
}
