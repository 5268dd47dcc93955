// Package stats provides the statistical machinery used to validate the
// simulator against the analytic model: running moments, confidence
// intervals, histograms, the Binomial law (paper Eq. 5), chi-square
// goodness-of-fit with p-values, and quantiles.
//
// Determinism: all accumulators are plain value types fed in caller order;
// Running.Merge is used by the sweep runners to reduce per-worker
// accumulators in a fixed grid order, so aggregate statistics are identical
// for any worker count. Accumulation is allocation-free (Running and
// Histogram update in place); only report formatting allocates.
package stats
