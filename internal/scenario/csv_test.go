package scenario

import (
	"context"
	"strings"
	"testing"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
)

// TestCSVFieldEscaping: csvField implements RFC 4180 quoting and passes
// clean names through untouched (the bundled-suite goldens depend on the
// pass-through).
func TestCSVFieldEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"crash-wave", "crash-wave"},
		{"poisson(5)", "poisson(5)"},
		{"crash, then heal", `"crash, then heal"`},
		{`the "big" one`, `"the ""big"" one"`},
		{"line\nbreak", "\"line\nbreak\""},
	}
	for _, tc := range cases {
		if got := csvField(tc.in); got != tc.want {
			t.Errorf("csvField(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestCSVEscapesScenarioNames: a scenario name containing commas and
// quotes survives every CSV renderer (sweep, grid, compare) as one quoted
// field instead of splitting the row.
func TestCSVEscapesScenarioNames(t *testing.T) {
	s := New(`crash, "wave"`, "name designed to break naive CSV").
		At(0, CrashFraction(0.1))
	run := RunConfig{Params: core.Params{N: 100, Fanout: dist.NewPoisson(5), AliveRatio: 1}}
	const want = `"crash, ""wave"""`

	sweep, err := sweepView([]*Scenario{s}, Axes{Run: run, Seeds: 1, BaseSeed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sweep.CSV(), want+",") {
		t.Errorf("sweep CSV did not escape the name:\n%s", sweep.CSV())
	}

	grid, err := gridView([]*Scenario{s}, Axes{Run: run, Qs: []float64{1}, Seeds: 1, BaseSeed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(grid.CSV(), want+",") {
		t.Errorf("grid CSV did not escape the name:\n%s", grid.CSV())
	}

	p, err := CompareCtx(context.Background(), []*Scenario{s}, CompareConfig{
		Run: run, Executors: []Executor{PaperExecutor("paper")}, Seeds: 1, BaseSeed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmp := p.CompareResult().CSV(); !strings.Contains(cmp, "paper,"+want+",") {
		t.Errorf("compare CSV did not escape the name:\n%s", cmp)
	}
}
