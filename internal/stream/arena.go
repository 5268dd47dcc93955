package stream

import (
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/failure"
	"gossipkit/internal/membership"
	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// runShared is the per-run state every worker reads: the normalized
// config, the precomputed publish schedule, and the mask and view. All
// fields except pubState are frozen before the first event.
type runShared struct {
	cfg      Config
	M        int        // schedule length
	pubTime  []sim.Time // per-message publish time, nondecreasing
	source   []int32    // per-message publishing member
	pubRound []int32    // first round tick at or after the publish
	expiry   []sim.Time // tick time at which the entry ages out
	interval time.Duration
	// lastRound is the round at which the last schedule entry expires —
	// the static tick horizon for every worker.
	lastRound int32
	mask      *failure.Mask
	view      membership.View
	// fanout is what eager and flood forward to: Config.Fanout, or for
	// flood the whole view, n−1 (every View.SampleTargets takes a k above
	// the member's degree as its degree).
	fanout dist.Distribution
	// pubState records each schedule entry's publish fate (zero until
	// published, then pubDone or pubSkipped). Entry m is written only by the worker owning
	// source[m] — distinct byte addresses, so concurrent shards never
	// race — and read only with workers parked.
	pubState []uint8
}

// Arena pools the reusable state of streaming runs on any shard count:
// the underlying core.NetArena (kernels, networks, failure mask, delivery
// matrices), the
// schedule arrays, the per-shard publish lists, and the workers with
// their buffers and tallies. One arena serves many runs — after the first
// run at a given shape an execution performs zero O(n)- or O(M)-sized
// allocations beyond the documented Result.Messages slice. Single-
// goroutine state between runs.
type Arena struct {
	net     *core.NetArena
	sh      runShared
	pubBy   [][]int32 // per-shard publish lists
	workers []*worker
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{net: core.NewNetArena()} }

// NewArenaOn returns an arena riding an existing core.NetArena — for
// callers that already pool network run state per worker (the scenario
// executor seam) and want streaming runs to recycle the same kernels,
// networks, and delivery matrices. A nil net behaves like NewArena.
func NewArenaOn(net *core.NetArena) *Arena {
	if net == nil {
		return NewArena()
	}
	return &Arena{net: net}
}

// schedule draws the run's publish schedule from a non-consuming split of
// r: Poisson inter-arrivals at the aggregate rate, sources uniform over
// [0, Sources), stopping at the publish window or the message cap. The
// derived round geometry (publish rounds, expiry times, the final round)
// comes with it. The returned runShared is pooled; valid until the next
// call.
func (a *Arena) schedule(cfg Config, interval time.Duration, r *xrand.RNG) *runShared {
	sh := &a.sh
	sh.cfg = cfg
	sh.interval = interval
	sh.pubTime = sh.pubTime[:0]
	sh.source = sh.source[:0]
	sh.pubRound = sh.pubRound[:0]
	sh.expiry = sh.expiry[:0]
	sh.lastRound = 0
	sh.mask, sh.view = nil, nil

	rng := r.Split(publishSplit)
	t := 0.0 // seconds
	for len(sh.pubTime) < cfg.MaxMessages {
		t += rng.ExpFloat64() / cfg.Rate
		// Compared as floats — a tiny rate overflows sim.Time; truncated
		// to whole ns, ns exceeds the window exactly when ≥ Duration+1.
		ns := t * float64(time.Second)
		if ns >= float64(cfg.Duration)+1 {
			break
		}
		sh.pubTime = append(sh.pubTime, sim.Time(ns))
		sh.source = append(sh.source, int32(rng.Intn(cfg.Sources)))
	}
	sh.M = len(sh.pubTime)
	active := int32(cfg.ActiveRounds)
	for _, at := range sh.pubTime {
		pr := int32(at/sim.Time(interval)) + 1
		sh.pubRound = append(sh.pubRound, pr)
		sh.expiry = append(sh.expiry, sim.Time(int64(pr)+int64(active))*sim.Time(interval))
		if pr+active > sh.lastRound {
			sh.lastRound = pr + active
		}
	}
	if cap(sh.pubState) >= sh.M {
		sh.pubState = sh.pubState[:sh.M]
		clear(sh.pubState)
	} else {
		sh.pubState = make([]uint8, sh.M)
	}
	return sh
}

// publishLists partitions the schedule into per-shard publish lists by
// owning block (shard s owns sources in [s·block, (s+1)·block)), each in
// time order. Pooled; valid until the next call.
func (a *Arena) publishLists(sh *runShared, shards, block int) [][]int32 {
	for len(a.pubBy) < shards {
		a.pubBy = append(a.pubBy, nil)
	}
	for s := range a.pubBy {
		a.pubBy[s] = a.pubBy[s][:0]
	}
	for m, src := range sh.source {
		s := int(src) / block
		a.pubBy[s] = append(a.pubBy[s], int32(m))
	}
	return a.pubBy[:shards]
}

// leaseWorkers leases the pooled workers of a run on the given shard
// count, growing the pool as needed. The caller resets them for the run.
func (a *Arena) leaseWorkers(shards int) []*worker {
	for len(a.workers) < shards {
		a.workers = append(a.workers, &worker{})
	}
	return a.workers[:shards]
}
