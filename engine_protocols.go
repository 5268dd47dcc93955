package gossipkit

import (
	"context"
	"time"

	"gossipkit/internal/obs"
	"gossipkit/internal/protocols"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// The protocol-comparison layer: the baseline dissemination protocols the
// paper positions itself against (§2 Related Work), each as an Engine so
// they compose with Run/RunMany, cancellation, and observers exactly like
// the paper's own algorithm.
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

// ProtocolSweep is Outcome.Aggregate for RunMany over a protocol baseline
// engine: Estimate-style moments of the replications, reduced in run order
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

// Pbcast is the engine for the round-based anti-entropy baseline: every
// member holding the message gossips every round, removing the single-shot
// die-out failure mode at the cost of more messages. Report.Detail is the
// per-run ProtocolResult.
type Pbcast struct {
	Params PbcastParams
	// Net is the simulated-network substrate the protocol's messages
	// cross; the zero value (no latency, no loss) reproduces the legacy
	// synchronous round loop exactly.
	Net NetConfig
	// RoundInterval paces the gossip round ticks; zero defaults to Net's
	// latency bound (20ms for unbounded models, 1ms with no latency
	// model), so rounds do not pipeline into still-airborne messages
	// unless asked to.
	RoundInterval time.Duration
}

// Name implements Engine.
func (Pbcast) Name() string { return "pbcast" }

func (s Pbcast) validate(o *runOptions) error { return validateProtocol(o, s.Params, s.Net) }

func (s Pbcast) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	return protocolSweep(ctx, o, emit, s.Params, desCfg(s.Net, s.RoundInterval), func(out protocols.DESOutcome) Report {
		return protocolReport(out, out.Detail.(ProtocolResult))
	})
}

// Lpbcast is the engine for the bounded-buffer lpbcast baseline: gossip
// over SCAMP partial views with event buffers that age out under load.
// Report.Reliability is the mean per-event delivery; Report.Detail is the
// per-run LpbcastResult (whose MinReliability shows buffer pressure
// first).
type Lpbcast struct {
	Params LpbcastParams
	// Net is the simulated-network substrate; see Pbcast.Net.
	Net NetConfig
	// RoundInterval paces the round ticks; see Pbcast.RoundInterval.
	RoundInterval time.Duration
}

// Name implements Engine.
func (Lpbcast) Name() string { return "lpbcast" }

func (s Lpbcast) validate(o *runOptions) error { return validateProtocol(o, s.Params, s.Net) }

func (s Lpbcast) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	return protocolSweep(ctx, o, emit, s.Params, desCfg(s.Net, s.RoundInterval), func(out protocols.DESOutcome) Report {
		res := out.Detail.(LpbcastResult)
		return Report{
			Reliability:  res.MeanReliability,
			AliveCount:   res.AliveCount,
			MessagesSent: res.MessagesSent,
			SpreadMs:     spreadMs(out),
			Detail:       res,
		}
	})
}

// AntiEntropy is the engine for the classic push/pull anti-entropy
// epidemic: each round every alive member contacts one random peer and
// exchanges state per Mode. Report.Detail is the per-run
// AntiEntropyResult, including the infection curve.
type AntiEntropy struct {
	Params AntiEntropyParams
	// Net is the simulated-network substrate; see Pbcast.Net.
	Net NetConfig
	// RoundInterval paces the round ticks; see Pbcast.RoundInterval.
	RoundInterval time.Duration
}

// Name implements Engine.
func (AntiEntropy) Name() string { return "anti-entropy" }

func (s AntiEntropy) validate(o *runOptions) error { return validateProtocol(o, s.Params, s.Net) }

func (s AntiEntropy) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	return protocolSweep(ctx, o, emit, s.Params, desCfg(s.Net, s.RoundInterval), func(out protocols.DESOutcome) Report {
		res := out.Detail.(AntiEntropyResult)
		rep := protocolReport(out, res.Result)
		rep.Detail = res
		return rep
	})
}

// RDG is the engine for the Route-Driven-Gossip baseline: push gossip of
// payloads and packet-id digests over partial views, then NACK-driven pull
// recovery. Report.Detail is the per-run RDGResult.
type RDG struct {
	Params RDGParams
	// Net is the simulated-network substrate; see Pbcast.Net.
	Net NetConfig
	// RoundInterval paces the round ticks; see Pbcast.RoundInterval.
	RoundInterval time.Duration
}

// Name implements Engine.
func (RDG) Name() string { return "rdg" }

func (s RDG) validate(o *runOptions) error { return validateProtocol(o, s.Params, s.Net) }

func (s RDG) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	return protocolSweep(ctx, o, emit, s.Params, desCfg(s.Net, s.RoundInterval), func(out protocols.DESOutcome) Report {
		res := out.Detail.(RDGResult)
		rep := protocolReport(out, res.Result)
		rep.Detail = res
		return rep
	})
}

// LRG is the engine for local-retransmission gossip: probabilistic
// flooding over a bounded-degree overlay plus NACK-style local repair
// rounds. Report.Detail is the per-run ProtocolResult.
type LRG struct {
	Params LRGParams
	// Net is the simulated-network substrate; see Pbcast.Net.
	Net NetConfig
	// RoundInterval paces the round ticks; see Pbcast.RoundInterval.
	RoundInterval time.Duration
}

// Name implements Engine.
func (LRG) Name() string { return "lrg" }

func (s LRG) validate(o *runOptions) error { return validateProtocol(o, s.Params, s.Net) }

func (s LRG) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	return protocolSweep(ctx, o, emit, s.Params, desCfg(s.Net, s.RoundInterval), func(out protocols.DESOutcome) Report {
		return protocolReport(out, out.Detail.(ProtocolResult))
	})
}

// Flooding is the engine for the best-effort flooding baseline: forward to
// everyone on first receipt — maximal reliability at Θ(n²) message cost,
// the upper envelope the gossip protocols trade against. Report.Detail is
// the per-run ProtocolResult.
type Flooding struct {
	Params FloodingParams
	// Net is the simulated-network substrate; see Pbcast.Net.
	Net NetConfig
	// RoundInterval paces the round ticks; see Pbcast.RoundInterval.
	RoundInterval time.Duration
}

// Name implements Engine.
func (Flooding) Name() string { return "flooding" }

func (s Flooding) validate(o *runOptions) error { return validateProtocol(o, s.Params, s.Net) }

func (s Flooding) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	return protocolSweep(ctx, o, emit, s.Params, desCfg(s.Net, s.RoundInterval), func(out protocols.DESOutcome) Report {
		return protocolReport(out, out.Detail.(ProtocolResult))
	})
}

// validateProtocol is the protocol engines' shared validate: the protocol's
// parameters, the network and the WithTopology overlay for its group size.
func validateProtocol(o *runOptions, spec ProtocolSpec, net NetConfig) error {
	if err := spec.Validate(); err != nil {
		return invalid(err)
	}
	if err := validateNet(net); err != nil {
		return err
	}
	n, _ := protocols.Shape(spec)
	if err := o.topology.Validate(n); err != nil {
		return invalid(err)
	}
	return nil
}

// desCfg assembles the DES substrate config of a protocol engine spec.
func desCfg(net NetConfig, roundInterval time.Duration) protocols.DESConfig {
	return protocols.DESConfig{Net: net, RoundInterval: roundInterval}
}

func protocolReport(out protocols.DESOutcome, res ProtocolResult) Report {
	return Report{
		Reliability:  res.Reliability,
		Delivered:    res.Delivered,
		AliveCount:   res.AliveCount,
		MessagesSent: res.MessagesSent,
		Rounds:       res.Rounds,
		SpreadMs:     spreadMs(out),
		Detail:       res,
	}
}

func spreadMs(out protocols.DESOutcome) float64 {
	return float64(out.SpreadTime) / float64(time.Millisecond)
}

// protocolSweep is the protocol engines' shared body: every replication
// executes the spec on the discrete-event substrate over net
// (protocols.RunOnDES) under the facade's replication policy (replicate).
// Under RunMany the per-run results additionally reduce — in run order, so
// the moments are identical for any worker count — into the ProtocolSweep
// aggregate.
func protocolSweep(ctx context.Context, o *runOptions, emit func(Report), spec ProtocolSpec, cfg protocols.DESConfig, mk func(protocols.DESOutcome) Report) (any, error) {
	// WithTopology threads through to the DES substrate: the runtime
	// generates the overlay per run from a non-consuming split, so the
	// uniform spec keeps the legacy RNG streams byte-identical.
	cfg.Topology = o.topology
	type probedOutcome struct {
		out     protocols.DESOutcome
		metrics *obs.Metrics
	}
	var rel, srel, msgs, rounds, spread stats.Running
	err := replicate(ctx, o, o.newDESState,
		func(r *xrand.RNG, st desState) (probedOutcome, error) {
			runCfg := cfg
			runCfg.Probe = st.probe
			out, err := protocols.RunOnDES(spec, runCfg, r, nil, st.arena)
			return probedOutcome{out, st.probe.Metrics()}, err
		}, func(po probedOutcome) {
			out := po.out
			rep := mk(out)
			rep.Metrics = po.metrics
			rel.Add(rep.Reliability)
			srel.Add(out.SurvivorReliability)
			msgs.Add(float64(rep.MessagesSent))
			// The runtime's round counter, not the report's: lpbcast's
			// legacy report shape carries no Rounds field, but its runtime
			// still ticks rounds to quiescence.
			rounds.Add(float64(out.Rounds))
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
		Protocol:            spec.Protocol(),
		Runs:                rel.N(),
		Reliability:         momentsOf(rel),
		SurvivorReliability: momentsOf(srel),
		Messages:            momentsOf(msgs),
		Rounds:              momentsOf(rounds),
		SpreadMs:            momentsOf(spread),
	}, nil
}
