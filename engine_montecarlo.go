package gossipkit

import (
	"context"
	"fmt"

	"gossipkit/internal/core"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// Metric selects what a MonteCarlo replication measures.
type Metric int

const (
	// GiantComponent measures the giant out-component of the sampled
	// gossip graph as a share of nonfailed members — the paper's
	// simulated reliability metric, the one Eq. 11 predicts. The default.
	GiantComponent Metric = iota
	// SourceReach measures the directed reach of one actual multicast
	// from the source (≈ S² for Poisson fanout, due to early die-out).
	SourceReach
)

func (m Metric) String() string {
	switch m {
	case GiantComponent:
		return "giant-component"
	case SourceReach:
		return "source-reach"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ComponentResult is the giant-component view of one execution.
type ComponentResult = core.ComponentResult

// MonteCarlo is the engine for graph-sampling reliability estimation: each
// replication draws a failure mask and a gossip graph and measures Metric.
//
// Under RunMany, Outcome.Aggregate is a ComponentEstimate (GiantComponent)
// or an Estimate (SourceReach); Report.Detail is the per-run
// ComponentResult or Result.
type MonteCarlo struct {
	// Params is the gossip model Gossip(n, P, q) under estimation.
	Params Params
	// Metric selects the measured quantity; default GiantComponent.
	Metric Metric
}

// Name implements Engine.
func (s MonteCarlo) Name() string { return "montecarlo:" + s.Metric.String() }

func (s MonteCarlo) validate(o *runOptions) error {
	if err := s.Params.Validate(); err != nil {
		return invalid(err)
	}
	switch s.Metric {
	case GiantComponent, SourceReach:
	default:
		return fmt.Errorf("%w: unknown Monte-Carlo metric %v", ErrInvalidParams, s.Metric)
	}
	if err := o.topology.Validate(s.Params.N); err != nil {
		return invalid(err)
	}
	if !o.topology.IsUniform() && s.Params.View != nil {
		return fmt.Errorf("%w: WithTopology conflicts with a caller-set Params.View", ErrInvalidParams)
	}
	return nil
}

func (s MonteCarlo) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	if !o.topology.IsUniform() {
		// Quenched overlay disorder: one overlay is generated from the base
		// seed and shared read-only across replications, while the failure
		// mask and gossip graph are re-drawn per run. That is the estimand
		// the scenario runner's corrected prediction measures.
		ov, err := o.topology.Build(s.Params.N, xrand.New(o.seed).Split(topology.Split))
		if err != nil {
			return nil, invalid(err)
		}
		s.Params.View = ov
	}

	switch s.Metric {
	case SourceReach:
		est, err := core.EstimateReliabilityCtx(ctx, s.Params, o.runs, o.seed, o.workers,
			func(run int, res Result) { emit(reachReport(res)) })
		if err != nil {
			return nil, err
		}
		return est, nil
	default: // GiantComponent
		est, err := core.EstimateComponentReliabilityCtx(ctx, s.Params, o.runs, o.seed, o.workers,
			func(run int, res ComponentResult) { emit(componentReport(res)) })
		if err != nil {
			return nil, err
		}
		return est, nil
	}
}

func reachReport(res Result) Report {
	return Report{
		Reliability:  res.Reliability,
		Delivered:    res.Delivered,
		AliveCount:   res.AliveCount,
		MessagesSent: res.MessagesSent,
		Rounds:       res.Rounds,
		Detail:       res,
	}
}

func componentReport(res ComponentResult) Report {
	return Report{
		Reliability:  res.Reliability,
		Delivered:    res.GiantSize,
		AliveCount:   res.AliveCount,
		MessagesSent: res.MessagesSent,
		Detail:       res,
	}
}
