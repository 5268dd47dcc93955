package main

import (
	"math"
	"sort"
)

// summary is the order statistics the benchmark reports for one timed
// quantity. With 3–12 samples per run the median is the only percentile
// that has samples beyond it on both sides; highestPercentile says so.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize returns the order statistics of xs (which it does not modify).
// An empty input yields the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := s[0], s[0]
	if len(s) > 1 {
		q1, _, q3 = quartiles(s)
	}
	return summary{N: len(s), Min: s[0], Q1: q1, Median: medianSorted(s), Q3: q3, Max: s[len(s)-1]}
}

func medianSorted(s []float64) float64 {
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of sorted (len >= 2) exactly as
// Python's statistics.quantiles(values, n=4) does (the "exclusive" method),
// because the driver judges this benchmark's steadiness with that function.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of s as a share of its median: the
// number the benchmark's bounds are compared against.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// highestPercentile returns the highest of the usual reporting percentiles
// that still has at least ten samples beyond it in a sample of size n; ok
// is false when even the median does not (n < 20), in which case only the
// median is reported and the output says so.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range []float64{99.9, 99, 95, 90, 75, 50} {
		// Integer arithmetic in tenths of a percent keeps 1200·1% exact.
		if n*(1000-int(math.Round(c*10))) >= 10*1000 {
			return c, true
		}
	}
	return 50, false
}
