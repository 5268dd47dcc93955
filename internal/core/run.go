package core

import (
	"errors"
	"fmt"
	"time"

	"gossipkit/internal/bitset"
	"gossipkit/internal/failure"
	"gossipkit/internal/membership"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// The layout of a run's randomness on its root stream r, for every DES
// front end: one shard runs on r itself, more on r.Split(shardSplit+s),
// and each shard's network (latency and loss draws) on a further
// Split(netSplit) of its run stream, taken by Reset. A split depends on
// its parent's position but never advances it, so what a front end draws
// from r itself — the failure mask, after the paper executor's key root
// (keyRoot) — is the same for every shard count. The indices collide with
// no other split constant in the tree.
const (
	shardSplit = 0x5a7d00
	netSplit   = 0xfeed
)

// ErrOpenLedger is wrapped by Run.Drive when a run drains with messages
// still in flight, id-slabs still leased or events still pending.
var ErrOpenLedger = errors.New("core: run drained with an open ledger")

// ShardOptions parameterizes a sharded network execution.
type ShardOptions struct {
	// Shards is the shard-kernel count; values below 1 mean one shard.
	// The run itself falls back to one shard when the latency model has
	// no positive floor (no lookahead — see simnet.LatencyFloorer).
	Shards int
	// Progress, if non-nil, observes every window barrier with the
	// barrier's virtual time and the total kernel events fired so far —
	// the live-progress source for single long runs. Called from the
	// coordinator goroutine.
	Progress func(events uint64, now sim.Time)
}

// EffectiveShards resolves the shard count NetArena.Begin uses for a run
// of n members over cfg: the requested count reduced to the number of
// member blocks that many shards actually fill (simnet.ShardBlocks — at
// most n), and 1 for requests below 2 or whenever the latency model has
// no positive floor.
func EffectiveShards(requested, n int, cfg simnet.Config) int {
	if requested < 2 || n < 1 || latencyFloor(cfg.Latency) <= 0 {
		return 1
	}
	_, s := simnet.ShardBlocks(n, requested)
	return s
}

// latencyFloor returns the model's guaranteed minimum delay — the
// lookahead a sharded run is windowed with — or 0 when it has none (nil
// models mean zero latency).
func latencyFloor(m simnet.LatencyModel) time.Duration {
	f, ok := m.(simnet.LatencyFloorer)
	if !ok {
		return 0
	}
	d, ok := f.LatencyFloor()
	if !ok || d < 0 {
		return 0
	}
	return d
}

// Run is one DES execution from lease to quiescence: the arena's pooled
// state sized for the run, the shard group that drives it and the layout
// of its randomness. Every DES front end — the paper's executor here, the
// stream runner, the protocol runtime — builds its execution on one:
//
//	run := arena.Begin(n, netCfg, r, opts) // lease, size, lay out the streams
//	run.Reset(budget, perShard)            // kernel and network per shard, then the front end's state
//	run.CrashFailed(s)                     // once run.Mask is filled
//	inject(run.NetRun(view, hooks))        // the fault-injection seam
//	err := run.Drive()                     // to quiescence, closing the ledger
//	run.Close(&res)                        // single-rumor front ends: NetResult
//
// and keeps only what is its own: the handlers, what a receipt does, what
// seeds the run. A Run is valid until the arena's next Begin or Lease.
type Run struct {
	// Kernels are the shard kernels, one per shard.
	Kernels []*sim.Kernel
	// Control carries coordinator-side events (scenario actions) on a
	// kernel of its own. Its events fire at window barriers, ahead of
	// every shard event due at the same instant (see sim.ShardGroup).
	Control *sim.Kernel
	// Net is the fabric; Net.Shard(s) is shard s's network.
	Net *simnet.ShardedNet
	// Mask is the pooled failure mask, for the front end to fill (from r,
	// after Reset) before CrashFailed.
	Mask *failure.Mask
	// Received is shard 0's first-receipt bitset — the whole group's on
	// one shard. Close counts survivors over it and its siblings.
	Received *bitset.Bits
	// Bits and Nacks are the per-shard delivery and pending-repair
	// matrices of streaming runs, to be Reset by their shard.
	Bits, Nacks []*MessageBits

	states []shardState
	// held[s] is shard s's received bits as they stood at the last window
	// barrier: copied by the coordinator with the workers parked and only
	// read during windows, by every worker. It lives apart from states so
	// that no worker reads a cache line another worker writes.
	held     []bitset.Bits
	group    *sim.ShardGroup
	progress func(events uint64, now sim.Time)
	// snapshotHeld has every barrier copy each shard's received bits into
	// its held snapshot (set by a sharded front end that settles against
	// them).
	snapshotHeld bool
}

// Begin leases the arena for one execution over n ≥ 1 members: it resolves
// the shard count (EffectiveShards), grows the pools to it, resets the
// control kernel, sizes the fabric over netCfg, windows the shard group
// with the latency floor and lays out the run streams (see shardSplit).
// Nothing per-shard is reset yet.
func (a *NetArena) Begin(n int, netCfg simnet.Config, r *xrand.RNG, opts ShardOptions) *Run {
	k := EffectiveShards(opts.Shards, n, netCfg)
	a.Sharded(k)
	a.ctl.Reset()
	a.net.Prepare(k, n, netCfg)
	states := a.states[:k]
	states[0].rng = r
	if k > 1 {
		for s := range states {
			r.SplitInto(&states[s].split, shardSplit+uint64(s))
			states[s].rng = &states[s].split
		}
	}
	a.run = Run{
		Kernels: a.kernels[:k], Control: a.ctl, Net: a.net, Mask: a.mask,
		Received: &states[0].received, Bits: a.msgBits[:k], Nacks: a.nackBits[:k],
		states: states, held: a.held[:k], progress: opts.Progress,
		group: sim.NewShardGroup(a.kernels[:k], a.ctl, latencyFloor(netCfg.Latency)),
	}
	return &a.run
}

// Lease is Begin and Reset for front ends that run on one shard (the
// protocol baseline runtime): a fresh n-member run on r with the kernel
// budgeted, the network reset over netCfg and Received cleared. Results
// are byte-identical whether the arena is fresh or recycled.
func (a *NetArena) Lease(n int, netCfg simnet.Config, r *xrand.RNG) *Run {
	run := a.Begin(n, netCfg, r, ShardOptions{Shards: 1})
	run.Reset(rumorBudget(n), func(int) { run.Received.Reset(n) })
	return run
}

// rumorBudget bounds the kernel events of a single-rumor run — a runaway
// guard far above any real execution.
func rumorBudget(n int) uint64 { return uint64(n) * 10000 }

// RNG returns shard s's run stream.
func (run *Run) RNG(s int) *xrand.RNG { return run.states[s].rng }

// Each runs f(s) for every shard, concurrently on more than one (see
// sim.ShardGroup.Each).
func (run *Run) Each(f func(s int)) { run.group.Each(f) }

// Reset readies every shard on the shard's own goroutine (first-touch
// locality of the kernel queue, the network's bitsets and pools, and
// whatever perShard resets): the kernel is Reset and capped at budget
// events, the network reset on it over its own stream, then perShard(s).
func (run *Run) Reset(budget uint64, perShard func(s int)) {
	run.Each(func(s int) {
		k := run.Kernels[s]
		k.Reset()
		k.SetBudget(budget)
		st := &run.states[s]
		st.rng.SplitInto(&st.net, netSplit)
		run.Net.ResetShard(s, k, &st.net)
		perShard(s)
	})
}

// CrashFailed takes shard s's mask-failed members down at the network
// layer, so handlers only ever see alive-at-delivery members (and the
// paper's "wasted" sends are counted as crash drops).
func (run *Run) CrashFailed(s int) {
	nw := run.Net.Shard(s)
	for id, hi := run.Net.Range(s); id < hi; id++ {
		if !run.Mask.Alive(id) {
			nw.Crash(simnet.NodeID(id))
		}
	}
}

// Pending counts the live events of the execution: on the control kernel,
// on every shard kernel, and parked in the cross-shard buffers.
func (run *Run) Pending() int {
	n := run.Net.Buffered() + run.Control.Pending()
	for _, k := range run.Kernels {
		n += k.Pending()
	}
	return n
}

// RunHooks is what a front end tells the injection facade about its
// execution: whether member id holds the message, how many members do,
// and how id publishes it out of band — called only for an in-range
// member that is up and alive under the mask, from a control event, so the
// publish runs inline on the owning shard's clock (which reads the
// control instant; see sim.ShardGroup).
type RunHooks struct {
	HasReceived func(id int) bool
	Delivered   func() int
	Publish     func(id int)
}

// NetRun builds the run's fault-injection facade over view, the
// membership view the front end draws targets from.
func (run *Run) NetRun(view membership.View, hooks RunHooks) *NetRun {
	return &NetRun{Kernel: run.Control, Net: run.Net, View: view, run: run, hooks: hooks}
}

// Drive runs the execution to quiescence — every kernel empty, no message
// parked between shards — and then closes the run's ledger: a drained run
// with a message still in flight, an id-slab still leased or an event
// still pending has lost track of something, and Drive says so
// (ErrOpenLedger) rather than let a result be built on it. A kernel out
// of event budget returns sim.ErrBudget.
func (run *Run) Drive() error {
	var onBarrier func(now sim.Time, fired uint64)
	if run.progress != nil || run.snapshotHeld {
		onBarrier = run.barrier
	}
	if err := run.group.Run(run.Net.Flush, run.Net.Buffered, onBarrier); err != nil {
		return err
	}
	inFlight, slabs, pending := run.Net.Stats().InFlight(), run.Net.SlabsInUse(), run.Pending()
	if inFlight != 0 || slabs != 0 || pending != 0 {
		return fmt.Errorf("%w: %d messages in flight, %d id-slabs leased, %d events pending",
			ErrOpenLedger, inFlight, slabs, pending)
	}
	return nil
}

// barrier is Drive's window-barrier hook, run by the coordinator with the
// workers parked: it refreshes every shard's held snapshot, then reports
// progress.
func (run *Run) barrier(now sim.Time, fired uint64) {
	if run.snapshotHeld {
		for s := range run.states {
			run.held[s].CopyFrom(&run.states[s].received)
		}
	}
	if run.progress != nil {
		run.progress(fired, now)
	}
}

// Close completes a single-rumor front end's NetResult (AliveCount and
// Delivered already set) from the drained run: reliability, the members
// still up and how many of those hold the message per the run's
// first-receipt bitsets, the fabric's final counters and the shard
// kernels' queue counters.
func (run *Run) Close(res *NetResult) {
	run.Each(func(s int) {
		st, nw := &run.states[s], run.Net.Shard(s)
		st.upAtEnd, st.delivUp = 0, 0
		lo, hi := run.Net.Range(s)
		for id := lo; id < hi; id++ {
			if nw.Up(simnet.NodeID(id)) {
				st.upAtEnd++
				if st.received.Get(id - lo) {
					st.delivUp++
				}
			}
		}
	})
	for s := range run.states {
		res.UpAtEnd += run.states[s].upAtEnd
		res.DeliveredUp += run.states[s].delivUp
	}
	if res.AliveCount > 0 {
		res.Reliability = float64(res.Delivered) / float64(res.AliveCount)
	}
	if res.UpAtEnd > 0 {
		res.SurvivorReliability = float64(res.DeliveredUp) / float64(res.UpAtEnd)
	}
	res.Net = run.Net.Stats()
	res.Queue = QueueCounters{Kind: run.Kernels[0].QueueKind()}
	for _, k := range run.Kernels {
		q := k.QueueStats()
		res.Queue.Fired += k.Fired()
		res.Queue.PeakPending += q.PeakPending
		res.Queue.Grows += q.Grows
		res.Queue.Rebases += q.Rebases
		res.Queue.OverflowAdmits += q.OverflowAdmits
	}
}
