package gossipkit

import (
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
// A single Run executes one campaign (exactly one scenario, no grid axes)
// with the seed used exactly as given. RunMany replicates every scenario
// for `runs` derived seeds each — and, when Qs or Fanouts are set, across
// the whole (scenario × q × fanout) grid — on a worker pool with one
// run-state arena per worker. Outcome.Aggregate is then the
// *ScenarioSweepResult (no axes) or *ScenarioGridResult (with axes);
// Report.Detail is the per-run ScenarioReport, streamed in deterministic
// cell order.
type Campaign struct {
	// Scenarios are the campaigns to run.
	Scenarios []*Scenario
	// Config parameterizes each execution (model params, network
	// substrate, partial-view construction) and — via Config.Executor —
	// the protocol under the campaigns: nil runs the paper's algorithm,
	// BaselineExecutor(spec) runs a related-work baseline (Params are
	// then ignored, and the grid axes below are rejected; use Compare for
	// protocol grids).
	Config ScenarioRunConfig
	// Qs, when set, sweeps the nonfailed ratio across these values
	// (grid mode).
	Qs []float64
	// Fanouts, when set, sweeps the fanout distribution across these
	// (grid mode).
	Fanouts []Distribution
}

// Name implements Engine.
func (Campaign) Name() string { return "scenario" }

func (s Campaign) validate(o *runOptions) error {
	if err := validateCampaigns("campaign", s.Name(), s.Scenarios, o); err != nil {
		return err
	}
	if s.Config.Executor == nil {
		// The paper path runs Config.Params; a protocol executor carries
		// its own parameters and ignores them.
		if err := s.Config.Params.Validate(); err != nil {
			return invalid(err)
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
	if grid && o.probe != nil {
		// A merged curve per scenario has no meaning when the grid also
		// sweeps q and fanout axes — run the cells of interest as plain
		// sweeps instead.
		return fmt.Errorf("%w: WithProbe does not compose with grid axes (Qs/Fanouts); probe each (q, fanout) cell as its own sweep", ErrInvalidParams)
	}
	if grid && s.Config.Executor != nil {
		// The grid axes override Params.AliveRatio/Fanout per cell, which
		// protocol executors ignore — the grid would report rows labeled
		// with different q/fanout values carrying identical results.
		return fmt.Errorf("%w: grid axes (Qs/Fanouts) sweep the paper's Params, which a protocol executor ignores; use Compare for protocol grids", ErrInvalidParams)
	}
	if !o.many {
		if len(s.Scenarios) != 1 || grid {
			return fmt.Errorf("%w: Run executes one campaign; use RunMany (or WithRuns) for scenario sweeps and grids", ErrInvalidParams)
		}
		return nil
	}
	if err := scenario.CheckShared(s.Config); err != nil {
		return invalid(err)
	}
	return nil
}

func (s Campaign) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	// validate has checked the merge on its own copy of the spec.
	if err := mergeRunConfig(&s.Config, o); err != nil {
		return nil, err
	}
	grid := len(s.Qs) > 0 || len(s.Fanouts) > 0
	if !o.many {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg := s.Config
		if o.probe != nil {
			cfg.Probe = obs.New(*o.probe)
		}
		rep, err := scenario.Run(s.Scenarios[0], cfg, o.seed)
		if err != nil {
			return nil, err
		}
		emit(scenarioReport(rep))
		return nil, nil
	}

	p, err := scenario.Axes{
		Run: s.Config, Qs: s.Qs, Fanouts: s.Fanouts,
		Seeds: o.runs, BaseSeed: o.seed, Workers: o.workers, Probe: o.probe,
	}.Sweep(ctx, s.Scenarios, func(_ int, rep scenario.RunReport) { emit(scenarioReport(rep)) })
	if err != nil {
		return nil, err
	}
	if grid {
		return p.GridResult(), nil
	}
	return p.SweepResult(), nil
}

// validateCampaigns is the check both scenario engines (Campaign and
// Compare) open with: at least one campaign, each valid, and seeds rather
// than a caller's RNG stream, from which a sweep could not derive one
// stream per cell.
func validateCampaigns(what, engine string, scenarios []*Scenario, o *runOptions) error {
	if len(scenarios) == 0 {
		return fmt.Errorf("%w: %s has no scenarios", ErrInvalidParams, what)
	}
	for _, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			return invalid(err)
		}
	}
	if o.rng != nil {
		return fmt.Errorf("%w: the %s engine derives RNG streams from seeds; use WithSeed", ErrInvalidParams, engine)
	}
	return nil
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
