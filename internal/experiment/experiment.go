// Package experiment defines the reproduction harness: one Experiment per
// figure of the paper (Figs. 2–7) plus the ablation studies (A1–A9) and the
// scenario, telemetry and streaming extensions (S1–S3); All is the registry.
// Each experiment produces a Figure — named series of (x, y) points with
// notes carrying the paper-vs-measured findings — which the harness can emit
// as CSV or render as an ASCII chart.
//
// Every figure that simulates runs its replications on runpool.Replicate
// under Config.Ctx, through core's estimators and the scenario sweeps or
// directly (A7, A9 and S3 set their own per-run seeds): cancellation stops
// it between replications, and its bytes are the same for any GOMAXPROCS.
package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gossipkit/internal/asciiplot"
)

// Config tunes how heavy an experiment run is.
type Config struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Scale multiplies the replication counts (20 runs/point, 100
	// simulations in the paper). 1.0 reproduces the paper's counts; CI
	// and unit tests use smaller values. Values <= 0 mean 1.0 (so does
	// NaN); values above MaxScale mean MaxScale.
	Scale float64
	// Ctx, when non-nil, cancels a running experiment mid-sweep: the
	// Monte-Carlo and scenario worker pools underneath check it between
	// replications. Nil means context.Background().
	Ctx context.Context
}

// ctx returns the run's context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// MaxScale is the largest replication scale a Config honours: 10⁶ times the
// paper's counts is past any run that finishes, and keeps the scaled count
// an int on every platform.
const MaxScale = 1e6

// runs scales a paper replication count, with a floor. The product is
// bounded before it is converted: an out-of-range float→int conversion is
// platform-dependent (MinInt64 on amd64, saturating on arm64).
func (c Config) runs(paper, floor int) int {
	s := c.Scale
	if !(s > 0) { // zero, negative or NaN
		s = 1
	}
	n := int(float64(paper)*min(s, MaxScale) + 0.5)
	if n < floor {
		n = floor
	}
	return n
}

// Series is one named (x, y) sequence of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is the output of one experiment.
type Figure struct {
	// ID is the harness identifier (fig4a, ablation-critical-point, ...).
	ID string
	// Title describes the figure, mirroring the paper's caption.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds the data; by convention simulation series come first
	// and analytic series carry an "analysis" suffix.
	Series []Series
	// Notes carries derived scalar findings (critical points, RMSEs,
	// chi-square statistics); cmd/experiments writes them under the chart.
	Notes []string
}

// Note appends a formatted note.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// CSV renders the figure as a wide CSV: x, then one column per series
// (series are aligned by x where values match; otherwise rows are the union
// of x values with blanks).
func (f *Figure) CSV() string {
	// Collect the union of x values in sorted order.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			b.WriteString(",")
			for i := range s.X {
				if s.X[i] == x {
					fmt.Fprintf(&b, "%g", s.Y[i])
					break
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ASCII renders the figure as a terminal chart.
func (f *Figure) ASCII(w, h int) string {
	series := make([]asciiplot.Series, len(f.Series))
	for i, s := range f.Series {
		series[i] = asciiplot.Series{Name: s.Name, X: s.X, Y: s.Y}
	}
	title := fmt.Sprintf("%s — %s  [y: %s, x: %s]", f.ID, f.Title, f.YLabel, f.XLabel)
	out := asciiplot.Chart(title, series, w, h)
	if len(f.Notes) > 0 {
		out += "notes:\n"
		for _, n := range f.Notes {
			out += "  - " + n + "\n"
		}
	}
	return out
}

// Experiment couples an identifier with a runner.
type Experiment struct {
	// ID is the harness identifier used by cmd/experiments -run.
	ID string
	// Paper cites the paper artifact this reproduces ("Fig. 4a"), or
	// "extension" for the ablations.
	Paper string
	// Description says what is measured.
	Description string
	// Run produces the figure.
	Run func(cfg Config) (*Figure, error)
}

// All returns every registered experiment, paper figures first.
func All() []Experiment {
	return []Experiment{
		{ID: "fig2", Paper: "Fig. 2", Description: "Mean fanout z required for reliability S under various q (Eq. 12)", Run: Fig2},
		{ID: "fig3", Paper: "Fig. 3", Description: "Minimum executions t for success probability 0.999 vs reliability S (Eq. 6)", Run: Fig3},
		{ID: "fig4a", Paper: "Fig. 4a", Description: "Reliability vs mean fanout, n=1000, q in {0.1,0.3,0.5,1.0}: simulation vs analysis", Run: Fig4a},
		{ID: "fig4b", Paper: "Fig. 4b", Description: "Reliability vs mean fanout, n=1000, q in {0.4,0.6,0.8,1.0}: simulation vs analysis", Run: Fig4b},
		{ID: "fig5a", Paper: "Fig. 5a", Description: "Reliability vs mean fanout, n=5000, q in {0.1,0.3,0.5,1.0}: simulation vs analysis", Run: Fig5a},
		{ID: "fig5b", Paper: "Fig. 5b", Description: "Reliability vs mean fanout, n=5000, q in {0.4,0.6,0.8,1.0}: simulation vs analysis", Run: Fig5b},
		{ID: "fig6", Paper: "Fig. 6", Description: "Distribution of per-member receipt count X over 20 executions, n=2000, f=4.0, q=0.9 vs Binomial", Run: Fig6},
		{ID: "fig7", Paper: "Fig. 7", Description: "Distribution of per-member receipt count X over 20 executions, n=2000, f=6.0, q=0.6 vs Binomial", Run: Fig7},
		{ID: "ablation-fanout-shape", Paper: "extension (A1)", Description: "Does the undirected model predict directed gossip for non-Poisson fanouts?", Run: AblationFanoutShape},
		{ID: "ablation-critical-point", Paper: "extension (A2)", Description: "Sharpness of the q_c = 1/z phase transition", Run: AblationCriticalPoint},
		{ID: "ablation-failure-mask", Paper: "extension (A3)", Description: "Fixed vs resampled failure masks across the t executions", Run: AblationFailureMask},
		{ID: "ablation-finite-size", Paper: "extension (A4)", Description: "Model error vs group size at fixed f·q", Run: AblationFiniteSize},
		{ID: "ablation-partial-view", Paper: "extension (A5)", Description: "SCAMP partial views vs the full-view assumption", Run: AblationPartialView},
		{ID: "ablation-reach-vs-giant", Paper: "extension (A6)", Description: "Directed source reach vs giant out-component (die-out mass)", Run: AblationReachVsGiant},
		{ID: "ablation-message-loss", Paper: "extension (A7)", Description: "Message loss as bond percolation: network simulation vs thinned Eq. 11", Run: AblationMessageLoss},
		{ID: "ablation-epidemic-curve", Paper: "extension (A8)", Description: "Per-round infection curve vs the pbcast-style round recurrence", Run: AblationEpidemicCurve},
		{ID: "ablation-protocol-comparison", Paper: "extension (A9)", Description: "Reliability vs message cost across protocol families", Run: AblationProtocolComparison},
		{ID: "scenario-grid", Paper: "extension (S1)", Description: "Bundled time-varying fault campaigns vs the static-q model (internal/scenario)", Run: ScenarioGrid},
		{ID: "curves-overlay", Paper: "extension (S2)", Description: "Probed π(t) curves under crash-wave and burst-loss vs the static-q round recurrence (Eq. 11 inputs)", Run: CurvesOverlay},
		{ID: "stream-round-interval", Paper: "extension (S3)", Description: "Streaming reliability degradation as the round interval shrinks below the latency bound, at three offered loads (internal/stream)", Run: StreamRoundInterval},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q", id)
}
