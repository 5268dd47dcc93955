package experiment

import (
	"fmt"
	"math"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/obs"
	"gossipkit/internal/scenario"
)

// CurvesOverlay (S2) overlays the probed infection curves π(t) of the
// crash-wave and burst-loss campaigns on the static-q round recurrence
// built from the same Eq. 11 inputs (n, z, initial q). The recurrence has
// no notion of time-varying faults, so the overlay makes the model's
// blind spot visible as a curve-level divergence — not just the endpoint
// reliability gap that scenario-grid (S1) reports. Rounds map to virtual
// time through the mean per-hop transit latency of the scenario runner's
// default latency model (uniform 1–20 ms → 10.5 ms per hop).
func CurvesOverlay(cfg Config) (*Figure, error) {
	const (
		n       = 1000
		z       = 5.0
		meanHop = 10.5 * float64(time.Millisecond)
	)
	f := &Figure{
		ID:     "curves-overlay",
		Title:  "Measured π(t) under fault campaigns vs the static-q round recurrence (n=1000, f=5.0)",
		XLabel: "virtual time (ms)",
		YLabel: "infected fraction π(t)/n",
	}
	seeds := cfg.runs(20, 3)
	for _, name := range []string{"crash-wave", "burst-loss"} {
		s, ok := scenario.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiment: scenario %q missing from the bundled suite", name)
		}
		res, err := scenario.Axes{
			Run: scenario.RunConfig{
				Params:            core.Params{N: n, Fanout: dist.NewPoisson(z), AliveRatio: 1},
				PartialViewCopies: 2,
			},
			Seeds:    seeds,
			BaseSeed: cfg.Seed,
			Probe:    &obs.Options{CurveTick: 5 * time.Millisecond},
		}.Sweep(cfg.ctx(), []*scenario.Scenario{s}, nil)
		if err != nil {
			return nil, err
		}
		g := res.Curves[0]
		means := g.InfectedMeans()
		if len(means) == 0 {
			return nil, fmt.Errorf("experiment: %s produced no curve samples", name)
		}
		tickMs := float64(g.Tick) / float64(time.Millisecond)

		// The recurrence curve, evaluated at each sample tick by linear
		// interpolation between rounds r = t / meanHop.
		horizon := int(float64(len(means)-1)*float64(g.Tick)/meanHop) + 2
		cum, err := core.RecurrenceModel(n, z, 1.0, horizon)
		if err != nil {
			return nil, err
		}
		measured := Series{Name: name + " measured"}
		predicted := Series{Name: name + " recurrence (static q)"}
		firstDiv := -1
		for i, m := range means {
			x := float64(i) * tickMs
			r := float64(i) * float64(g.Tick) / meanHop
			lo := int(r)
			if lo >= len(cum)-1 {
				lo = len(cum) - 2
			}
			pred := cum[lo] + (r-float64(lo))*(cum[lo+1]-cum[lo])
			measured.X = append(measured.X, x)
			measured.Y = append(measured.Y, m/n)
			predicted.X = append(predicted.X, x)
			predicted.Y = append(predicted.Y, pred/n)
			if firstDiv < 0 && math.Abs(m-pred)/n > 0.05 {
				firstDiv = i
			}
		}
		last := len(means) - 1
		if firstDiv >= 0 {
			f.Note("%s: measured and static-q recurrence first diverge by >5%% of n at t=%.0fms; final π/n %.4f vs predicted %.4f",
				name, float64(firstDiv)*tickMs, measured.Y[last], predicted.Y[last])
		} else {
			f.Note("%s: measured π(t) tracks the static-q recurrence within 5%% of n throughout; final π/n %.4f vs predicted %.4f",
				name, measured.Y[last], predicted.Y[last])
		}
		f.Series = append(f.Series, measured, predicted)
	}
	return f, nil
}
