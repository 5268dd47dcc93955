package experiment

import (
	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/scenario"
)

// ScenarioGrid (S1) sweeps the bundled fault-injection campaigns over the
// discrete-event simulator and plots, per scenario, the measured
// reliability against the paper's static-q prediction (Eq. 11) evaluated
// both at the initial q and at the end-of-run effective q. Scenarios where
// the static curve and the measurement diverge are exactly the fault
// processes the paper's model cannot express: time-varying crash waves,
// partitions, and loss bursts interacting with the spread's timing.
func ScenarioGrid(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "scenario-grid",
		Title:  "Time-varying fault campaigns vs the static-q model (n=1000, f=5.0)",
		XLabel: "scenario index",
		YLabel: "reliability",
	}
	suite := scenario.DefaultSuite()
	seeds := cfg.runs(20, 3)
	res, err := scenario.Axes{
		Run: scenario.RunConfig{
			Params:            core.Params{N: 1000, Fanout: dist.NewPoisson(5), AliveRatio: 1},
			PartialViewCopies: 2,
		},
		Seeds:    seeds,
		BaseSeed: cfg.Seed,
	}.Sweep(cfg.ctx(), suite, nil)
	if err != nil {
		return nil, err
	}
	measured := Series{Name: "measured reliability"}
	survivors := Series{Name: "survivor reliability"}
	static := Series{Name: "static-q analysis (Eq. 11)"}
	effective := Series{Name: "effective-q analysis"}
	for i, s := range res.Cells {
		x := float64(i)
		measured.X = append(measured.X, x)
		measured.Y = append(measured.Y, s.Reliability.Mean)
		survivors.X = append(survivors.X, x)
		survivors.Y = append(survivors.Y, s.SurvivorReliability.Mean)
		static.X = append(static.X, x)
		static.Y = append(static.Y, s.StaticPrediction)
		effective.X = append(effective.X, x)
		effective.Y = append(effective.Y, s.EffectivePrediction)
		f.Note("x=%d %s: rel %.4f, survivors %.4f, static %.4f (gap %+.4f), effective %.4f (gap %+.4f)",
			i, s.Scenario, s.Reliability.Mean, s.SurvivorReliability.Mean,
			s.StaticPrediction, s.StaticGap, s.EffectivePrediction, s.EffectiveGap)
	}
	f.Series = append(f.Series, measured, survivors, static, effective)
	return f, nil
}
