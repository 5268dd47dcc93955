package sim

import (
	"cmp"
	"fmt"
	"sync"
	"time"
)

// ShardGroup advances several kernels together under the classic
// conservative-PDES discipline: because every cross-shard message is
// delayed by at least the lookahead L, all events in the window
// [T, min(Tmin+L, Tc)) — Tmin the earliest pending event across shards,
// Tc the control kernel's next event — are causally independent across
// shards and can execute in parallel. At each window barrier the caller's
// flush hook moves buffered cross-shard messages into their destination
// kernels (their delivery times are ≥ the window end by the lookahead
// argument, so they are never scheduled in a shard's past), then any
// control events due at the barrier fire on the coordinator goroutine
// while the shard workers are parked — which is what lets fault-injection
// hooks mutate shard state without synchronization.
//
// Control events fire first at their instant, at every shard count: a
// window stops short of the control kernel's next event, and every shard
// clock moves up to that instant before it fires. One shard runs the same
// way, with no lookahead and no goroutines.
type ShardGroup struct {
	kernels   []*Kernel
	control   *Kernel
	lookahead Time
}

// NewShardGroup builds a group over kernels with the given lookahead
// (the minimum cross-shard message delay; it must be positive for more
// than one kernel). The control kernel carries coordinator-side events
// (scenario actions) and must not be one of the shard kernels.
func NewShardGroup(kernels []*Kernel, control *Kernel, lookahead time.Duration) *ShardGroup {
	if len(kernels) == 0 {
		panic("sim: shard group needs at least one kernel")
	}
	if control == nil {
		panic("sim: shard group needs a control kernel")
	}
	if len(kernels) > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	for _, k := range kernels {
		if k == control {
			panic("sim: control kernel must be distinct from the shard kernels")
		}
	}
	return &ShardGroup{kernels: kernels, control: control, lookahead: Time(lookahead)}
}

// Each runs f(shard) for every shard concurrently — one goroutine per
// shard — and waits for all of them. Setup and teardown phases use it so
// each shard's state is allocated and touched by the goroutine topology
// that will run it (first-touch locality on the multi-GB working sets).
// For a single shard f runs inline.
func (g *ShardGroup) Each(f func(shard int)) {
	if len(g.kernels) == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for s := range g.kernels {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			f(s)
		}(s)
	}
	wg.Wait()
}

// Run drives the group to quiescence. Per window it advances every shard
// kernel on its own goroutine through [now, windowEnd), then — workers
// parked — calls flush(windowEnd) to move buffered cross-shard messages
// into their destination kernels, fires control events due at the
// barrier, and calls onBarrier (if non-nil) with the barrier's virtual
// time and the total events fired so far. buffered (if non-nil) reports
// the number of cross-shard messages parked outside any kernel before a
// window opens (a seed fan-out buffered before Run started): they are
// flushed with windowEnd 0 — no barrier clamp; each destination schedules
// them at their natural times (its kernel clamps past times to its own
// now) — before the window is cut, so they neither land at its end nor
// sit parked when the kernels run dry. Run returns the first worker or
// control error (ErrBudget, ErrTimeRange) encountered.
func (g *ShardGroup) Run(flush func(windowEnd Time), buffered func() int, onBarrier func(now Time, fired uint64)) error {
	if len(g.kernels) == 1 {
		return g.runOne(onBarrier)
	}

	// Persistent workers for the whole run: horizons flow out, one error
	// (usually nil) flows back per window. The channel pair is also the
	// memory barrier that hands each kernel back and forth between its
	// worker and the coordinator.
	starts := make([]chan Time, len(g.kernels))
	done := make(chan error, len(g.kernels))
	var wg sync.WaitGroup
	for s := range g.kernels {
		starts[s] = make(chan Time, 1)
		wg.Add(1)
		go func(k *Kernel, start <-chan Time) {
			defer wg.Done()
			for horizon := range start {
				done <- k.Run(horizon)
			}
		}(g.kernels[s], starts[s])
	}
	defer func() {
		for _, c := range starts {
			close(c)
		}
		wg.Wait()
	}()

	for {
		if buffered != nil && flush != nil && buffered() > 0 {
			flush(0)
		}
		tmin, any := End, false
		for _, k := range g.kernels {
			if t, ok := k.NextEventTime(); ok && (!any || t < tmin) {
				tmin, any = t, true
			}
		}
		tc, cok := g.control.NextEventTime()
		if !any && !cok {
			return g.err()
		}
		wend := End
		if any {
			wend = tmin + g.lookahead
			if wend < tmin { // overflow: effectively unbounded window
				wend = End
			}
		}
		if cok && tc < wend {
			wend = tc
		}

		// The window is exclusive of wend (Run's horizon is inclusive):
		// cross-shard arrivals land at ≥ tmin+lookahead ≥ wend, so
		// flushing them at this barrier never schedules into a shard's
		// past.
		for _, c := range starts {
			c <- wend - 1
		}
		var err error
		for range g.kernels {
			if e := <-done; e != nil && err == nil {
				err = e
			}
		}
		if err != nil {
			return err
		}
		if flush != nil {
			flush(wend)
		}
		if cok && tc <= wend {
			// Control events due at the barrier fire while the workers
			// are parked; anything they schedule at the same timestamp
			// fires too, matching single-kernel same-time semantics.
			if err := g.fireControl(wend); err != nil {
				return err
			}
		}
		if onBarrier != nil {
			onBarrier(wend, g.fired())
		}
	}
}

// runOne is Run on one shard, where nothing crosses shards to flush: it
// drains to each control instant in turn, and is a plain RunAll once no
// control event is left.
func (g *ShardGroup) runOne(onBarrier func(now Time, fired uint64)) error {
	k := g.kernels[0]
	for {
		tc, ok := g.control.NextEventTime()
		if !ok {
			return cmp.Or(k.RunAll(), g.err())
		}
		if err := k.Run(tc - 1); err != nil {
			return err
		}
		if err := g.fireControl(tc); err != nil {
			return err
		}
		if onBarrier != nil {
			onBarrier(tc, g.fired())
		}
	}
}

// fireControl moves every shard clock to at and fires the control events
// due there.
func (g *ShardGroup) fireControl(at Time) error {
	for _, k := range g.kernels {
		k.advance(at)
	}
	return g.control.Run(at)
}

// err is the first kernel's ErrTimeRange: a flush may have scheduled past
// MaxTime into a kernel with nothing else to run, whose Run never comes.
func (g *ShardGroup) err() error {
	for _, k := range g.kernels {
		if k.err != nil {
			return k.err
		}
	}
	return g.control.err
}

// fired sums events executed across the shard and control kernels. Only
// call it from the coordinator with the workers parked.
func (g *ShardGroup) fired() uint64 {
	total := g.control.Fired()
	for _, k := range g.kernels {
		total += k.Fired()
	}
	return total
}
