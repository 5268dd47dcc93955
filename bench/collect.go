package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"gossipkit"
)

// env is what a workload iteration runs in: the sizes, the seed every
// input derives from, the load shape, and where results are collected.
type env struct {
	ctx     context.Context
	sz      sizes
	seed    uint64
	workers int
	shards  int
	col     *collector
	rec     *recorder // nil unless this is the traced run
}

// run is the door every sweep workload goes through: one call into the
// public facade, timed, and wrapped in a harness span when tracing.
func (e *env) run(spec gossipkit.Engine, runs int, opts ...gossipkit.Option) (*gossipkit.Outcome, error) {
	id := e.rec.begin("facade.Run")
	t0 := time.Now()
	out, err := gossipkit.RunMany(e.ctx, spec, runs, opts...)
	e.col.calls = append(e.col.calls, time.Since(t0).Seconds())
	var done int64
	if out != nil {
		done = int64(out.Runs)
	}
	e.rec.end(id, map[string]int64{"runs_requested": int64(runs), "runs": done})
	return out, err
}

// observed returns the options every facade call carries: the collector's
// observer (digest, op and message counts, per-report checks).
func (e *env) observed(check func(gossipkit.Report) verdict) gossipkit.Option {
	return gossipkit.WithObserver(func(r gossipkit.Report) {
		e.col.observe(r)
		if check != nil {
			e.col.apply(check(r))
		}
	})
}

// verdict is a checker's finding about one report (or one aggregate): a
// die-out is counted and excluded, any failure makes the op a failed op.
type verdict struct {
	dieout   bool
	failures []string
}

func failf(format string, args ...any) verdict {
	return verdict{failures: []string{fmt.Sprintf(format, args...)}}
}

// iteration is one timed repetition of a workload. Calls holds the wall
// time of each facade call the iteration made, in order — the same calls
// in every iteration — when it made more than one.
type iteration struct {
	WallS float64   `json:"wall_s"`
	Msgs  int64     `json:"msgs"`
	Calls []float64 `json:"calls_s,omitempty"`
}

// collector accumulates what one child process measured. Observer
// callbacks arrive from worker goroutines but never concurrently (the
// facade's ordering guarantee), so plain fields suffice.
type collector struct {
	last    time.Time // start of the iteration in progress
	msgs    int64     // messages observed since last
	calls   []float64 // facade call walls since last
	coldEnd time.Time // end of iteration 0
	iters   []iteration

	ops, failedOps, dieouts int
	failures                []string
	digest                  uint64
	details                 []any // Report.Detail per op, kept only for the traced run's facade-vs-direct comparison
	keepDetails             bool

	// Workload facts the parent cross-checks between workloads.
	relSum     float64
	relN       int
	aliveCount int
}

func newCollector() *collector {
	return &collector{last: time.Now(), digest: fnvOffset}
}

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// observe folds one report into the op count, the message count of the
// iteration in progress, and the result digest: the bits of every field
// the simulation determines, so equal seeds must print equal digests and a
// simulator-only speed-up must leave them unchanged.
func (c *collector) observe(r gossipkit.Report) {
	c.ops++
	c.msgs += int64(r.MessagesSent)
	for _, w := range [...]uint64{
		math.Float64bits(r.Reliability), uint64(r.Delivered), uint64(r.AliveCount),
		uint64(r.MessagesSent), math.Float64bits(r.SpreadMs),
	} {
		for i := 0; i < 8; i++ {
			c.digest = (c.digest ^ (w >> (8 * i) & 0xff)) * fnvPrime
		}
	}
	if c.keepDetails {
		c.details = append(c.details, r.Detail)
	}
}

func (c *collector) apply(v verdict) {
	switch {
	case v.dieout:
		c.dieouts++
	case len(v.failures) > 0:
		c.failedOps++
		if len(c.failures) < 8 {
			c.failures = append(c.failures, v.failures...)
		}
	}
}

// mark closes the iteration in progress. The first one closed is the cold
// iteration: it is reported only through setup_s. The next iteration starts
// from a collected heap (the collection itself is not timed): where in its
// cycle the collector happens to stand would otherwise carry over from one
// iteration to the next and decide the peak RSS.
func (c *collector) mark() {
	now := time.Now()
	if len(c.iters) == 0 {
		c.coldEnd = now
	}
	it := iteration{WallS: now.Sub(c.last).Seconds(), Msgs: c.msgs}
	if len(c.calls) > 1 {
		it.Calls = c.calls
	}
	c.iters = append(c.iters, it)
	runtime.GC()
	c.last, c.msgs, c.calls = time.Now(), 0, nil
}

// skip drops the interval in progress from timing (a died-out epidemic).
func (c *collector) skip() { c.last, c.msgs = time.Now(), 0 }

func (c *collector) digestString() string { return fmt.Sprintf("%016x", c.digest) }
