// Package experiment defines the reproduction harness: one Experiment per
// figure of the paper (Figs. 2–7) plus the ablation studies (A1–A3, A5–A9)
// and the scenario, telemetry and streaming extensions (S1–S3); All is the
// registry. Each experiment produces a Figure — named series of (x, y)
// points and the Claims that check them — which the harness can emit as CSV
// or render as an ASCII chart with each claim's verdict under it.
//
// A Claim is a computed finding held against a model value or a named
// reference, within a tolerance that states where it comes from: three
// standard errors over the figure's own replications, plus the finite-size
// term of the n → ∞ model it is checked against. TestClaims fails on any
// claim that does not pass; cmd/experiments prints them and keeps its exit
// status.
//
// Every replication draws its randomness from Config.stream, the package's
// one seeding rule: xrand.New(Seed) split by figure, by point and by run.
// Two seeds, two figures or two points never share a stream. Every figure
// that simulates runs its replications on runpool.Replicate under
// Config.Ctx, through core's estimators and the scenario sweeps or
// directly: cancellation stops it between replications, and its bytes are
// the same for any GOMAXPROCS.
package experiment

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"gossipkit/internal/asciiplot"
	"gossipkit/internal/xrand"
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
	n := int(float64(float64(paper)*min(s, MaxScale)) + 0.5)
	if n < floor {
		n = floor
	}
	return n
}

// stream is the package's one seeding rule: the random stream of figure id
// at path (a point's indices, then a run's), split from xrand.New(Seed).
func (c Config) stream(id string, path ...int) *xrand.RNG {
	h := fnv.New64a()
	h.Write([]byte(id))
	r := xrand.New(c.Seed).Split(h.Sum64())
	for _, p := range path {
		r = r.Split(uint64(p))
	}
	return r
}

// seed is the first draw of stream(id, path...): the base seed of a core
// estimator or scenario sweep, which splits it once per replication.
func (c Config) seed(id string, path ...int) uint64 { return c.stream(id, path...).Uint64() }

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
	// Claims are the figure's checked findings, in the order computed.
	Claims []Claim
}

// Claim is one checked finding: a value the figure measured, held against
// a model value or a named reference within a stated tolerance.
type Claim struct {
	// ID names the claim within its figure ("q=0.5 f=2.3", "p_r").
	ID string
	// Source is what the claim is about: a paper figure or equation
	// ("Fig. 3", "Eq. 11"), or an ablation or extension ("A7", "S1").
	Source string
	// Measured is the figure's value and SE its standard error over the
	// figure's own replications (0 for a value computed in closed form).
	Measured, SE float64
	// Rel compares Measured with Model: "≈" is |Measured − Model| ≤ Tol,
	// "≤" is Measured ≤ Model + Tol, "≥" is Measured ≥ Model − Tol, "<" is
	// Measured < Model − Tol and ">" is Measured > Model + Tol.
	Rel string
	// Model is the reference value and Against names it.
	Model   float64
	Against string
	// Tol is the tolerance and TolSource where it comes from.
	Tol       float64
	TolSource string
	// Pass is the verdict; a NaN on either side fails.
	Pass bool
}

// String renders the claim as one line: verdict, id, source, both values
// and the tolerance with its source.
func (c Claim) String() string {
	verdict := "FAIL"
	if c.Pass {
		verdict = "pass"
	}
	return fmt.Sprintf("%s %s [%s]: %.4g ± %.2g %s %s %.4g, tol %.3g (%s)",
		verdict, c.ID, c.Source, c.Measured, c.SE, c.Rel, c.Against, c.Model, c.Tol, c.TolSource)
}

// claim records c with its verdict.
func (f *Figure) claim(c Claim) {
	d := c.Measured - c.Model
	switch c.Rel {
	case "≈":
		c.Pass = math.Abs(d) <= c.Tol
	case "≤":
		c.Pass = d <= c.Tol
	case "≥":
		c.Pass = d >= -c.Tol
	case "<":
		c.Pass = d < -c.Tol
	case ">":
		c.Pass = d > c.Tol
	default:
		panic("experiment: unknown relation " + c.Rel)
	}
	f.Claims = append(f.Claims, c)
}

// Sources of the tolerances the figures use: none for a closed-form value
// or an order of two measurements; roundOff where a closed form meets
// float64 rounding; three standard errors over the figure's own
// replications; and for a claim against an n → ∞ model, three standard
// errors plus (qn)^−1/3, the width of the critical window of the largest
// component among qn alive members.
const (
	tolExact  = "exact"
	tolOrder  = "none: an order"
	tolRound  = "4 ulp of 1, float64 rounding"
	roundOff  = 4 * 0x1p-52
	tolSE     = "3·SE"
	tolWindow = "3·SE + (qn)^−1/3 critical window"
)

// near records that measured ± se matches the n → ∞ model value with qn
// alive members: |Δ| ≤ 3·se + (qn)^−1/3.
func (f *Figure) near(id, source string, measured, se, model float64, against string, q float64, n int) {
	f.claim(Claim{ID: id, Source: source, Measured: measured, SE: se, Rel: "≈", Model: model, Against: against,
		Tol: float64(3*se) + math.Pow(q*float64(n), -1.0/3), TolSource: tolWindow})
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
	if len(f.Claims) > 0 {
		out += "claims:\n"
		for _, c := range f.Claims {
			out += "  - " + c.String() + "\n"
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
		{ID: "fig4a", Paper: "Fig. 4a", Description: "Reliability vs mean fanout, n=1000, q in {0.1,0.3,0.5,1.0}: simulation vs analysis", Run: reliabilityFigure("fig4a", 1000, 0.1, 0.3, 0.5, 1.0)},
		{ID: "fig4b", Paper: "Fig. 4b", Description: "Reliability vs mean fanout, n=1000, q in {0.4,0.6,0.8,1.0}: simulation vs analysis", Run: reliabilityFigure("fig4b", 1000, 0.4, 0.6, 0.8, 1.0)},
		{ID: "fig5a", Paper: "Fig. 5a", Description: "Reliability vs mean fanout, n=5000, q in {0.1,0.3,0.5,1.0}: simulation vs analysis", Run: reliabilityFigure("fig5a", 5000, 0.1, 0.3, 0.5, 1.0)},
		{ID: "fig5b", Paper: "Fig. 5b", Description: "Reliability vs mean fanout, n=5000, q in {0.4,0.6,0.8,1.0}: simulation vs analysis", Run: reliabilityFigure("fig5b", 5000, 0.4, 0.6, 0.8, 1.0)},
		{ID: "fig6", Paper: "Fig. 6", Description: "Distribution of per-member receipt count X over 20 executions, n=2000, f=4.0, q=0.9 vs Binomial", Run: Fig6},
		{ID: "fig7", Paper: "Fig. 7", Description: "Distribution of per-member receipt count X over 20 executions, n=2000, f=6.0, q=0.6 vs Binomial", Run: Fig7},
		{ID: "ablation-fanout-shape", Paper: "extension (A1)", Description: "Does the undirected model predict directed gossip for non-Poisson fanouts?", Run: AblationFanoutShape},
		{ID: "ablation-critical-point", Paper: "extension (A2)", Description: "Sharpness of the q_c = 1/z phase transition", Run: AblationCriticalPoint},
		{ID: "ablation-failure-mask", Paper: "extension (A3)", Description: "Fixed vs resampled failure masks across the t executions", Run: AblationFailureMask},
		{ID: "ablation-partial-view", Paper: "extension (A5)", Description: "SCAMP partial views vs the full-view assumption", Run: AblationPartialView},
		{ID: "ablation-reach-vs-giant", Paper: "extension (A6)", Description: "Directed source reach vs giant out-component (die-out mass)", Run: AblationReachVsGiant},
		{ID: "ablation-message-loss", Paper: "extension (A7)", Description: "Message loss as bond percolation: network simulation vs thinned Eq. 11", Run: AblationMessageLoss},
		{ID: "ablation-epidemic-curve", Paper: "extension (A8)", Description: "Per-round infection curve vs the pbcast-style round recurrence", Run: AblationEpidemicCurve},
		{ID: "ablation-protocol-comparison", Paper: "extension (A9)", Description: "Reliability vs message cost across protocol families", Run: AblationProtocolComparison},
		{ID: "scenario-grid", Paper: "extension (S1)", Description: "Bundled time-varying fault campaigns vs the static-q model (internal/scenario)", Run: ScenarioGrid},
		{ID: "curves-overlay", Paper: "extension (S2)", Description: "Probed π(t) curves under crash-wave and burst-loss vs the static-q round recurrence (Eq. 11 inputs) and the fault-free baseline", Run: CurvesOverlay},
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
