package asciiplot

import (
	"strings"
	"testing"
)

func TestChartBasic(t *testing.T) {
	out := Chart("demo", []Series{
		{Name: "line", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
	}, 30, 8)
	if !strings.Contains(out, "demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "line") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("markers missing")
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("none", nil, 30, 8)
	if !strings.Contains(out, "no data") {
		t.Errorf("empty chart output: %q", out)
	}
}

func TestChartSkipsMismatchedSeries(t *testing.T) {
	out := Chart("m", []Series{
		{Name: "bad", X: []float64{1, 2}, Y: []float64{1}},
		{Name: "good", X: []float64{0, 1}, Y: []float64{5, 6}},
	}, 30, 8)
	if !strings.Contains(out, "good") {
		t.Error("good series missing")
	}
	// The bad series appears in the legend but plots nothing; chart must
	// not panic and must scale to the good series.
	if !strings.Contains(out, "6") {
		t.Error("y max label missing")
	}
}

func TestChartConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	out := Chart("const", []Series{
		{Name: "flat", X: []float64{1, 1, 1}, Y: []float64{2, 2, 2}},
	}, 25, 6)
	if !strings.Contains(out, "flat") {
		t.Error("flat series missing")
	}
}

func TestChartMinimumDimensions(t *testing.T) {
	out := Chart("small", []Series{
		{Name: "s", X: []float64{0, 1}, Y: []float64{0, 1}},
	}, 1, 1)
	if len(out) == 0 {
		t.Error("no output at clamped dimensions")
	}
}

func TestChartManySeriesMarkerCycle(t *testing.T) {
	series := make([]Series, 12)
	for i := range series {
		series[i] = Series{
			Name: strings.Repeat("s", i+1),
			X:    []float64{float64(i)},
			Y:    []float64{float64(i)},
		}
	}
	out := Chart("many", series, 40, 10)
	if !strings.Contains(out, "ssssssssssss") {
		t.Error("12th series missing from legend")
	}
}
