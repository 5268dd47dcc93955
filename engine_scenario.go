package gossipkit

import (
	"cmp"
	"context"
	"fmt"

	"gossipkit/internal/obs"
	"gossipkit/internal/scenario"
)

// Campaign is the engine for declarative fault-injection campaigns over
// the discrete-event network: crash waves, zone failures, healing
// partitions, churn bursts, loss episodes, flash crowds (see NewScenario
// and DefaultScenarioSuite).
//
// A single Run executes one campaign (exactly one scenario, no axes) with
// the seed used exactly as given. RunMany replicates every cell of the
// topology × protocol × scenario × q × fanout product for `runs` derived
// seeds each, on a worker pool with one run-state arena per worker; every
// protocol row faces byte-identical campaign randomness per (scenario,
// seed) cell. Outcome.Aggregate is then the *ScenarioCompareResult when
// Protocols or Paper labels the protocol axis (Name is then "compare"),
// the *ScenarioGridResult when Qs or Fanouts are set, and the
// *ScenarioSweepResult otherwise; Report.Detail is the per-run
// ScenarioReport, streamed in deterministic cell order.
type Campaign struct {
	// Scenarios are the campaigns to run.
	Scenarios []*Scenario
	// Config parameterizes each execution (model params, network
	// substrate, partial-view construction) and — via Config.Executor —
	// the protocol under the campaigns: nil runs the paper's algorithm,
	// BaselineExecutor(spec) runs a related-work baseline (Params are
	// then ignored, and Qs, Fanouts and the protocol rows are rejected;
	// list Protocols for protocol grids).
	Config ScenarioRunConfig
	// Qs, when set, sweeps the nonfailed ratio across these values
	// (grid mode).
	Qs []float64
	// Fanouts, when set, sweeps the fanout distribution across these
	// (grid mode).
	Fanouts []Distribution
	// Protocols are baseline rows of the comparison grid (PbcastParams,
	// LpbcastParams, AntiEntropyParams, RDGParams, LRGParams,
	// FloodingParams — any mix).
	Protocols []ProtocolSpec
	// Paper, when true, prepends the paper's own algorithm (configured by
	// Config.Params) as the first protocol row, labeled "paper".
	Paper bool
	// Topologies, when non-empty, runs every (protocol, scenario) pair of
	// the comparison grid once per listed overlay, with identical per-cell
	// seeds across overlays so topology is the only variable.
	Topologies []Topology
}

// Compare is the Campaign engine under its former name.
//
// Deprecated: use Campaign. The benchmark module still names Compare; its
// next change moves to Campaign and deletes this alias.
type Compare = Campaign

// Name implements Engine: "compare" with protocol rows, else "scenario".
func (s Campaign) Name() string {
	if s.compares() {
		return "compare"
	}
	return "scenario"
}

// compares reports whether the protocol axis is labeled.
func (s Campaign) compares() bool { return s.Paper || len(s.Protocols) > 0 }

// rows is the labeled protocol axis: the paper's row first when Paper is
// set, then one row per Protocols entry.
func (s Campaign) rows() []ScenarioExecutor {
	var rows []ScenarioExecutor
	if s.Paper {
		rows = append(rows, scenario.PaperExecutor("paper"))
	}
	for _, p := range s.Protocols {
		rows = append(rows, scenario.NewProtocolExecutor(p))
	}
	return rows
}

func (s Campaign) validate(o *runOptions) error {
	what := "campaign"
	if s.compares() {
		what = "comparison"
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("%w: %s has no scenarios", ErrInvalidParams, what)
	}
	for i, sc := range s.Scenarios {
		if sc == nil {
			return fmt.Errorf("%w: %s scenario %d is nil", ErrInvalidParams, what, i)
		}
		if err := sc.Validate(); err != nil {
			return invalid(err)
		}
	}
	if o.rng != nil {
		// A sweep could not derive one stream per cell from the caller's.
		return fmt.Errorf("%w: the %s engine derives RNG streams from seeds; use WithSeed", ErrInvalidParams, s.Name())
	}
	for i, p := range s.Protocols {
		if p == nil {
			return fmt.Errorf("%w: comparison protocol %d is nil", ErrInvalidParams, i)
		}
	}
	if err := mergeRunConfig(&s.Config, o); err != nil {
		return err
	}
	for _, q := range s.Qs {
		if q < 0 || q > 1 || q != q {
			return fmt.Errorf("%w: grid alive ratio %g outside [0,1]", ErrInvalidParams, q)
		}
	}
	for i, f := range s.Fanouts {
		if f == nil {
			return fmt.Errorf("%w: grid fanout %d is nil", ErrInvalidParams, i)
		}
	}
	grid := len(s.Qs) > 0 || len(s.Fanouts) > 0
	switch {
	case s.compares() && s.Config.Executor != nil:
		return fmt.Errorf("%w: Config.Executor runs one protocol; list the comparison rows in Protocols and Paper instead", ErrInvalidParams)
	case s.compares() && o.probe != nil:
		// One merged curve has no meaning across protocol rows; probe a
		// single protocol's campaign sweep instead.
		return fmt.Errorf("%w: WithProbe does not compose with the compare grid; probe one protocol's Campaign sweep at a time", ErrInvalidParams)
	case grid && o.probe != nil:
		// A merged curve per scenario has no meaning when the grid also
		// sweeps q and fanout axes — run the cells of interest as plain
		// sweeps instead.
		return fmt.Errorf("%w: WithProbe does not compose with grid axes (Qs/Fanouts); probe each (q, fanout) cell as its own sweep", ErrInvalidParams)
	case grid && (s.Config.Executor != nil || s.compares()):
		// The grid axes override Params.AliveRatio/Fanout per cell, which
		// protocol executors ignore — the grid would report rows labeled
		// with different q/fanout values carrying identical results.
		return fmt.Errorf("%w: grid axes (Qs/Fanouts) sweep the paper's Params, which a protocol executor ignores and a comparison does not label; list Protocols for protocol grids", ErrInvalidParams)
	case len(s.Topologies) > 0 && !s.compares():
		return fmt.Errorf("%w: Topologies is the comparison grid's overlay axis; list Protocols or set Paper, or put one overlay on Config.Topology", ErrInvalidParams)
	case len(s.Topologies) > 0 && !s.Config.Topology.IsUniform():
		return fmt.Errorf("%w: set either Campaign.Topologies (grid axis) or Config.Topology (one overlay for every cell), not both", ErrInvalidParams)
	case !o.many && s.compares():
		return fmt.Errorf("%w: Compare is a grid sweep; use RunMany (or WithRuns) to set the seeds per cell", ErrInvalidParams)
	case !o.many && (len(s.Scenarios) != 1 || grid):
		return fmt.Errorf("%w: Run executes one campaign; use RunMany (or WithRuns) for scenario sweeps and grids", ErrInvalidParams)
	}
	rows := s.rows()
	if !s.compares() {
		// Unlabeled: Config.Executor, or the paper's algorithm when nil.
		rows = []ScenarioExecutor{cmp.Or(s.Config.Executor, scenario.PaperExecutor(""))}
	}
	for _, ex := range rows {
		if err := ex.Validate(s.Config); err != nil {
			return invalid(err)
		}
		n, _ := ex.Shape(s.Config)
		for _, t := range append([]Topology{s.Config.Topology}, s.Topologies...) {
			if err := t.Validate(n); err != nil {
				return invalid(err)
			}
		}
	}
	// A single run may share what a sweep's workers could not.
	if err := scenario.CheckShared(s.Config); o.many && err != nil {
		return invalid(err)
	}
	return nil
}

func (s Campaign) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	// validate has checked the merge on its own copy of the spec.
	if err := mergeRunConfig(&s.Config, o); err != nil {
		return nil, err
	}
	if !o.many {
		if o.probe != nil {
			s.Config.Probe = obs.New(*o.probe)
		}
		rep, err := scenario.Run(s.Scenarios[0], s.Config, o.seed)
		if err != nil {
			return nil, err
		}
		emit(scenarioReport(rep))
		return nil, nil
	}

	p, err := scenario.Axes{
		Run: s.Config, Executors: s.rows(), Topologies: s.Topologies, Qs: s.Qs, Fanouts: s.Fanouts,
		Seeds: o.runs, BaseSeed: o.seed, Workers: o.workers, Probe: o.probe,
	}.Sweep(ctx, s.Scenarios, func(_ int, rep scenario.RunReport) { emit(scenarioReport(rep)) })
	switch {
	case err != nil:
		return nil, err
	case s.compares():
		return p.CompareResult(), nil
	case len(s.Qs) > 0 || len(s.Fanouts) > 0:
		return p.GridResult(), nil
	}
	return p.SweepResult(), nil
}

func scenarioReport(rep ScenarioReport) Report {
	return Report{
		Reliability:  rep.Reliability,
		Delivered:    rep.Delivered,
		MessagesSent: rep.MessagesSent,
		SpreadMs:     rep.SpreadMs,
		Metrics:      rep.Metrics,
		Detail:       rep,
	}
}
