package core

import (
	"fmt"

	"gossipkit/internal/bitset"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// shardState is one shard's private slice of the run state, pooled on the
// NetArena. Everything here is written by the shard's worker goroutine
// during windows (and by the coordinator only while workers are parked);
// received is indexed by (id − base) so no two shards ever share a bitset
// word. The trailing pad keeps neighboring shards' hot counters off each
// other's cache lines.
type shardState struct {
	received  bitset.Bits
	targets   []int
	rng       *xrand.RNG
	keys      xrand.RNG // the run's key root (keyRoot)
	draws     xrand.RNG // the forwarding member's stream, losses included
	delays    xrand.RNG // and its latency stream
	probe     *obs.Probe
	delivered int
	msgs      int
	wasted    int
	dups      int
	upAtEnd   int
	delivUp   int
	spread    sim.Time
	lat       stats.Running
	_         [64]byte
}

// ExecuteOnNetworkSharded runs one execution of the paper's algorithm as
// an event-driven protocol over the simulated network. It is the one DES
// executor: members are partitioned into contiguous blocks across
// opts.Shards shard kernels, shards advance in lookahead windows derived
// from the latency model's floor, and cross-shard messages cross at window
// barriers (see sim.ShardGroup and simnet.ShardedNet). On one shard — what
// ExecuteOnNetworkArena and ExecuteOnNetworkProbed ask for — the group is a
// single kernel drained in one go, with no windows, barriers or goroutines.
//
// inject, if non-nil, is called with the run's NetRun after the network
// and handlers are set up and before the source publishes at t=0, so it
// can schedule mid-execution actions (crashes, restarts, partitions, loss
// episodes, extra publishers) on the control kernel. arena (nil for a
// throwaway one) carries kernels, networks and per-member buffers across
// runs. probe (nil is the zero-overhead off state) observes the run's
// virtual-time curves, histograms and optionally its raw events; it never
// consumes the run's RNG streams and schedules nothing, so the NetResult
// is bit-identical with it on or off. On more than one shard it fans out
// to per-shard child probes and adopts their merged telemetry, without
// hop histograms: a cross-shard sender's hop count is unknown to the
// receiving shard.
//
// Determinism contract:
//   - a fixed shard count is byte-identical across repeated runs and
//     fresh and recycled arenas, for the same (p, netCfg, r, inject),
//     GOARCH and Go release (the test suite checks amd64;
//     TestNoFusedFloat keeps fused multiply-add out of this module's
//     float code on arm64, ppc64le, s390x and riscv64; the standard
//     library's math functions are not yet measured across
//     architectures):
//     every member draws from its own keyed streams (keyRoot), windows are
//     cut at deterministic virtual times, and barriers flush the per-pair
//     buffers in a fixed order, so scheduling nondeterminism never reaches
//     the simulation. testdata/oracle.golden pins one shard.
//   - different shard counts give the same NetResult but for accounting
//     and the last bits of DeliveryLatency's mean and m2, which the shard
//     merge reassociates (TestShardInvariance). Under inject this holds
//     only in distribution: a burst-loss model's state is cloned per shard
//     and control events fire at window barriers.
//
// opts.Shards below 1 means one shard; see EffectiveShards for the
// configurations that run on fewer shards than asked.
func ExecuteOnNetworkSharded(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), arena *NetArena, probe *obs.Probe, opts ShardOptions) (NetResult, error) {
	if err := p.Validate(); err != nil {
		return NetResult{}, err
	}
	if arena == nil {
		arena = NewNetArena()
	}
	run := arena.Begin(p.N, netCfg, r, opts)
	sn, mask, states := run.Net, run.Mask, run.states
	block := sn.Block()
	keys := keyRoot(r)
	run.Reset(rumorBudget(p.N), func(s int) {
		st := &states[s]
		lo, hi := sn.Range(s)
		st.received.Reset(hi - lo)
		st.delivered, st.msgs, st.wasted, st.dups = 0, 0, 0, 0
		st.spread = 0
		st.lat = stats.Running{}
		st.probe = nil
		st.keys = keys
		sn.Shard(s).DrawFrom(&st.draws, &st.delays)
	})
	// The key root, then the mask, come off r, which no split advances, so
	// every shard count sees both.
	p.drawMaskInto(mask, r)
	run.Each(run.CrashFailed)
	view := p.view()

	for s, child := range probe.ShardProbes(len(states)) { // none for a nil probe
		states[s].probe = child
		child.Attach(sn.Shard(s), p.N, &states[s].delivered)
	}

	// forward and receive run on shard s's goroutine (or with every worker
	// parked). forward draws from self's streams at key (see keyRoot); the
	// network draws each send's loss and latency from them too.
	forward := func(s, self int, key uint64) {
		st, nw := &states[s], sn.Shard(s)
		st.keys.SplitInto(&st.draws, key)
		st.keys.SplitInto(&st.delays, key|latencyKey)
		f := p.Fanout.Sample(&st.draws)
		st.targets = view.SampleTargets(st.targets, self, f, &st.draws)
		st.msgs += len(st.targets)
		st.probe.ObserveFanout(len(st.targets))
		for _, v := range st.targets {
			if !mask.Alive(v) {
				st.wasted++
			}
			nw.Send(simnet.NodeID(self), simnet.NodeID(v), nil)
		}
	}
	// from is the forwarding member, or -1 for an out-of-band receipt (an
	// additional publisher injected by a campaign).
	receive := func(s, id, from int, now sim.Time) {
		st := &states[s]
		st.received.Set(id - s*block)
		st.delivered++
		st.lat.Add(now.Seconds())
		if now > st.spread {
			st.spread = now
		}
		st.probe.ObserveFirstReceipt(id, from, now)
		forward(s, id, uint64(id))
	}
	// One shared handler per shard (index dispatch on msg.To) instead of n
	// per-member closures; mask-failed members are down at the network
	// layer, so the handler only ever sees alive-at-delivery members.
	for s := range states {
		st, base := &states[s], s*block
		sn.Shard(s).RegisterAll(func(now sim.Time, msg simnet.Message) {
			id := int(msg.To)
			if st.received.Get(id - base) {
				st.dups++
				return
			}
			receive(s, id, int(msg.From), now)
		})
	}

	hasReceived := func(id int) bool {
		s := id / block
		return states[s].received.Get(id - s*block)
	}
	if inject != nil {
		inject(run.NetRun(view, RunHooks{
			HasReceived: hasReceived,
			Delivered: func() int {
				total := 0
				for s := range states {
					total += states[s].delivered
				}
				return total
			},
			Publish: func(id int) {
				s := id / block
				run.OnShard(s, func(now sim.Time) {
					if hasReceived(id) { // re-gossip, keyed by member and instant
						forward(s, id, regossipKey|(uint64(now)*0x9e3779b97f4a7c15^uint64(id))&(regossipKey-1))
						return
					}
					receive(s, id, -1, now) // additional publisher
				})
			},
		}))
	}

	// The source initiates at t=0 with no latency sample of its own
	// (unless an injection hook already published from it directly). No
	// worker is running yet, so seeding shard-owned state from here is
	// safe.
	if src := p.Source; !hasReceived(src) {
		s := src / block
		states[s].received.Set(src - s*block)
		states[s].delivered++
		states[s].probe.ObserveSeed(src)
		forward(s, src, uint64(src))
	}

	if err := run.Drive(); err != nil {
		return NetResult{}, fmt.Errorf("core: network execution aborted: %w", err)
	}
	for s := range states {
		states[s].probe.Finish(run.Kernels[s].Now())
	}
	probe.AdoptShards()

	res := NetResult{Result: Result{AliveCount: mask.AliveCount()}}
	for s := range states {
		st := &states[s]
		res.Delivered += st.delivered
		res.MessagesSent += st.msgs
		res.WastedOnFailed += st.wasted
		res.Duplicates += st.dups
		res.DeliveryLatency.Merge(st.lat)
		if d := st.spread.Duration(); d > res.SpreadTime {
			res.SpreadTime = d
		}
	}
	run.Close(&res)
	return res, nil
}
