// Package xrand provides a small, fast, deterministic random number
// generator with splittable streams, plus the sampling utilities the
// simulator needs (uniform ints, floats, permutations, sampling without
// replacement).
//
// The generator is PCG-XSL-RR 128/64 ("pcg64"), seeded through SplitMix64 so
// that any 64-bit seed yields a well-mixed initial state. Streams derived
// with Split are statistically independent for all practical purposes, which
// lets Monte-Carlo replications run in parallel while keeping results
// independent of goroutine scheduling: replication i always uses the stream
// split for index i.
//
// Determinism guarantee: every method consumes a random stream that is a
// pure function of the seed and the argument values — never of pooling or
// buffer capacity. In particular SampleIntsVisit and SampleExcludingVisit
// draw exactly the stream of their materializing counterparts, so swapping
// the pooled streaming sampler in or out of a hot loop cannot perturb
// downstream results (the sweep runners rely on this for byte-identical
// output).
//
// Allocation guarantee: the fanout-sized sampling path (k ≤ 64, sparse) is
// allocation-free given a capacious dst; the larger paths are
// allocation-free through SampleIntsVisit/SampleExcludingVisit with a warm
// Scratch, which also store candidates as int32 to halve resident bytes
// (the pooled failure-mask redraw is the consumer).
package xrand
