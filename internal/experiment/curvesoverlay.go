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
// reliability gap that scenario-grid (S1) reports. The fault-free baseline
// campaign runs on the same seeds as the control: a crash wave must lower
// the plateau against it, not only against the recurrence. Rounds map to
// virtual time through the mean per-hop transit latency of the scenario
// runner's default latency model (uniform 1–20 ms → 10.5 ms per hop).
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
	var base, baseSE float64 // the baseline plateau and its SE
	for _, name := range []string{"baseline", "crash-wave", "burst-loss"} {
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
			BaseSeed: cfg.seed(f.ID),
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
		for i, m := range means {
			x := float64(i) * tickMs
			r := float64(i) * float64(g.Tick) / meanHop
			lo := int(r)
			if lo >= len(cum)-1 {
				lo = len(cum) - 2
			}
			pred := cum[lo] + float64((r-float64(lo))*(cum[lo+1]-cum[lo]))
			measured.X = append(measured.X, x)
			measured.Y = append(measured.Y, m/n)
			predicted.X = append(predicted.X, x)
			predicted.Y = append(predicted.Y, pred/n)
		}
		// π(t) counts cumulative receipts, so it never falls. Its plateau
		// is held by the per-run plateaus' SE: the fault-free baseline
		// matches the recurrence; three 10 % crash waves stop members
		// mid-spread and hold it below both the recurrence and the
		// baseline by more than 3·SE; a loss burst only drops messages
		// for a while, so its plateau is held to the order alone.
		lo, _ := extent(diffs(measured.Y))
		f.claim(Claim{ID: name + " least step of π(t)/n", Source: "S2", Measured: lo, Rel: "≥", Against: "zero", TolSource: tolExact})
		last := len(means) - 1
		plateau, se, pred := measured.Y[last], g.Infected.Points[last].StdErr()/n, predicted.Y[last]
		switch name {
		case "baseline":
			f.near("baseline plateau", "S2", plateau, se, pred, "static-q recurrence", 1, n)
			base, baseSE = plateau, se
		case "crash-wave":
			f.claim(Claim{ID: "crash-wave plateau", Source: "S2", Measured: plateau, SE: se, Rel: "<", Model: pred, Against: "static-q recurrence",
				Tol: 3 * se, TolSource: tolSE})
			diffSE := math.Hypot(se, baseSE)
			f.claim(Claim{ID: "crash-wave plateau vs baseline", Source: "S2", Measured: plateau, SE: diffSE, Rel: "<", Model: base, Against: "baseline plateau",
				Tol: 3 * diffSE, TolSource: tolSE})
		default:
			f.claim(Claim{ID: name + " plateau", Source: "S2", Measured: plateau, SE: se, Rel: "<", Model: pred, Against: "static-q recurrence", TolSource: tolOrder})
		}
		f.Series = append(f.Series, measured, predicted)
	}
	return f, nil
}
