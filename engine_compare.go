package gossipkit

import (
	"context"
	"fmt"

	"gossipkit/internal/scenario"
)

// Compare is the engine for the (protocol × scenario) comparison grid:
// every listed fault campaign runs against every listed protocol on the
// shared discrete-event substrate, so the related-work baselines and the
// paper's own algorithm face identical crash waves, loss episodes, and
// partitions — byte-identical campaign randomness per (scenario, seed)
// cell, whatever the protocol.
//
// Compare only has replication-sweep semantics: drive it with RunMany (or
// WithRuns), which replicates every cell for that many derived seeds.
// Outcome.Aggregate is the *ScenarioCompareResult — the full grid with
// per-cell moments and a CSV/Table rendering — and Report.Detail streams
// the per-run ScenarioReport in deterministic cell order, protocol-major.
type Compare struct {
	// Scenarios are the fault campaigns each protocol faces.
	Scenarios []*Scenario
	// Protocols are the baseline rows of the grid (PbcastParams,
	// LpbcastParams, AntiEntropyParams, RDGParams, LRGParams,
	// FloodingParams — any mix).
	Protocols []ProtocolSpec
	// Paper, when true, prepends the paper's own algorithm (configured by
	// Config.Params) as the first row, labeled "paper".
	Paper bool
	// Config parameterizes each execution: the network substrate every
	// protocol crosses and — for the paper row — the gossip model params.
	Config ScenarioRunConfig
	// Topologies, when non-empty, grows the grid a third axis: every
	// (protocol, scenario) pair runs once per listed overlay topology,
	// with identical per-cell seeds across topology rows so topology is
	// the only variable. Empty keeps the two-axis grid on
	// Config.Topology (byte-identical output to before the axis
	// existed).
	Topologies []Topology
}

// Name implements Engine.
func (Compare) Name() string { return "compare" }

func (s Compare) validate(o *runOptions) error {
	if err := validateCampaigns("comparison", s.Name(), s.Scenarios, o); err != nil {
		return err
	}
	if len(s.Protocols) == 0 && !s.Paper {
		return fmt.Errorf("%w: comparison has no protocols (list baselines or set Paper)", ErrInvalidParams)
	}
	for i, p := range s.Protocols {
		if p == nil {
			return fmt.Errorf("%w: comparison protocol %d is nil", ErrInvalidParams, i)
		}
		if err := p.Validate(); err != nil {
			return invalid(err)
		}
	}
	if o.probe != nil {
		// One merged curve has no meaning across protocol rows; probe a
		// single protocol's campaign sweep instead.
		return fmt.Errorf("%w: WithProbe does not compose with the compare grid; probe one protocol's Campaign sweep at a time", ErrInvalidParams)
	}
	if !o.many {
		return fmt.Errorf("%w: Compare is a grid sweep; use RunMany (or WithRuns) to set the seeds per cell", ErrInvalidParams)
	}
	if err := mergeRunConfig(&s.Config, o); err != nil {
		return err
	}
	if len(s.Topologies) > 0 && !s.Config.Topology.IsUniform() {
		return fmt.Errorf("%w: set either Compare.Topologies (grid axis) or Config.Topology (one overlay for every cell), not both", ErrInvalidParams)
	}
	if err := scenario.CheckShared(s.Config); err != nil {
		return invalid(err)
	}
	if s.Paper {
		if err := s.Config.Params.Validate(); err != nil {
			return invalid(err)
		}
	}
	return nil
}

func (s Compare) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	// validate has checked the merge on its own copy of the spec.
	if err := mergeRunConfig(&s.Config, o); err != nil {
		return nil, err
	}
	var executors []ScenarioExecutor
	if s.Paper {
		executors = append(executors, scenario.PaperExecutor("paper"))
	}
	for _, p := range s.Protocols {
		executors = append(executors, scenario.NewProtocolExecutor(p))
	}

	p, err := scenario.Axes{
		Run: s.Config, Executors: executors, Topologies: s.Topologies,
		Seeds: o.runs, BaseSeed: o.seed, Workers: o.workers,
	}.Sweep(ctx, s.Scenarios, func(_ int, rep scenario.RunReport) { emit(scenarioReport(rep)) })
	if err != nil {
		return nil, err
	}
	return p.CompareResult(), nil
}
