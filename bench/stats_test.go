package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) prints: the driver judges steadiness
// with that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 4, 6},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.1, 2.3, 2.2, 9.9, 2.0, 2.4, 2.2, 2.1, 2.5, 2.3}, 2.1, 2.25, 2.425},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if !near(s.Q1, c.q1) || !near(s.Median, c.q2) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) quartiles = %g %g %g, want %g %g %g", c.in, s.Q1, s.Median, s.Q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSummarizeAndSpread(t *testing.T) {
	s := summarize([]float64{3, 1, 2, 5, 4, 7, 6})
	if s.N != 7 || s.Min != 1 || s.Max != 7 || s.Median != 4 {
		t.Fatalf("summary %+v", s)
	}
	if got := s.spread(); !near(got, 1.0) { // (6-2)/4
		t.Errorf("spread = %g, want 1", got)
	}
	if z := summarize(nil); z.N != 0 || z.spread() != 0 {
		t.Errorf("empty summary %+v", z)
	}
	if one := summarize([]float64{2.5}); one.Median != 2.5 || one.Q1 != 2.5 || one.spread() != 0 {
		t.Errorf("single-sample summary %+v", one)
	}
	if m := summarize([]float64{4, 1, 3, 2}).Median; m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// TestHighestPercentile: a percentile is reported only when at least ten
// samples lie beyond it.
func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{3, 50, false}, {19, 50, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {1200, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		if p, ok := highestPercentile(c.n); p != c.p || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

// TestQuietPass: per facade call the quickest warm repetition, summed; for
// one-call iterations the quickest iteration.
func TestQuietPass(t *testing.T) {
	split := []iteration{
		{WallS: 10, Calls: []float64{1, 5, 4}},
		{WallS: 9, Calls: []float64{3, 2, 4}},
		{WallS: 12, Calls: []float64{2, 6, 3}},
	}
	if got := quietPass(split); got != 1+2+3 {
		t.Errorf("quietPass(split) = %g, want 6", got)
	}
	whole := []iteration{{WallS: 2.4}, {WallS: 2.1}, {WallS: 3.0}}
	if got := quietPass(whole); got != 2.1 {
		t.Errorf("quietPass(whole) = %g, want 2.1", got)
	}
}
