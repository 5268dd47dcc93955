package core

import (
	"fmt"
	"math"
	"slices"
	"time"

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
// word. label is
// indexed like received: ⌈at/labelQuantum⌉ of the earliest surviving copy
// queued to the member from this shard in this run, 0 for none. The
// trailing pad keeps neighboring shards' hot counters off each other's
// cache lines.
type shardState struct {
	received  bitset.Bits
	targets   []int
	rng       *xrand.RNG // the run stream, or split on more than one shard
	split     xrand.RNG
	net       xrand.RNG // the network's stream (netSplit)
	fw        Forwarder // the forwarding member's keyed draws
	probe     *obs.Probe
	delivered int
	msgs      int
	wasted    int
	dups      int
	upAtEnd   int
	delivUp   int
	spread    sim.Time
	lat       stats.Running
	label     []uint16
	_         [64]byte
}

// labelQuantum is the resolution of shardState.label: a 16-bit label
// reaches 65535·125 µs ≈ 8.19 s of virtual time, and an earliest arrival
// past that horizon is not recorded. It depends on neither the shard count
// nor the latency model.
const labelQuantum = sim.Time(125 * time.Microsecond)

// settleAll is the SendBefore cutoff that settles every surviving copy.
const settleAll = sim.Time(math.MinInt64)

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
// A copy whose arrival is decided when it is sent does not queue: with no
// inject and no probe, a copy to a mask-dead member (on any shard), to a
// member of the sending shard that already holds m, or to a member of
// another shard that held m at the last window barrier settles at send
// time (simnet.Network.SendBefore: the same loss and latency draws, then a
// crash drop or a duplicate counted at once, and one Net.Settled). So does
// a copy to a member of the sending shard that lands no earlier than a
// copy the shard already queued to it: a first receipt is the earliest
// surviving copy, so this one can only be a duplicate. The sending shard
// keeps each of its members' earliest queued arrival as a 16-bit label in
// units of labelQuantum, rounded up, so a copy settles only when it
// certainly does not arrive first. The other shards' bits are read from a
// snapshot (Run.held) that the coordinator refreshes at each
// barrier with the workers parked, never live; with no campaign no member
// loses m, so a stale bit is still true. A copy to another shard's member
// that first received m inside the current window queues, and so does a
// copy that overtakes every queued one (the earlier copy then fires as a
// duplicate). None settles under inject, a probe, a tracer or a
// partition.
//
// Determinism contract:
//   - a fixed shard count is byte-identical across repeated runs and
//     fresh and recycled arenas, for the same (p, netCfg, r, inject),
//     GOARCH and Go release (the test suite checks amd64;
//     TestNoFusedFloat keeps fused multiply-add out of this module's
//     float code on arm64, ppc64le, s390x and riscv64; the standard
//     library's math functions are not yet measured across
//     architectures):
//     every member draws from its own keyed streams (KeyRoot), windows are
//     cut at deterministic virtual times, and barriers flush the per-pair
//     buffers in a fixed order, so scheduling nondeterminism never reaches
//     the simulation. testdata/oracle.golden pins one shard.
//   - different shard counts give the same NetResult but for accounting
//     and the last bits of DeliveryLatency's mean and m2, which the shard
//     merge reassociates (TestShardInvariance, and under inject
//     TestCampaignShardInvariance in internal/scenario): a burst-loss
//     chain belongs to its sender, and control events fire ahead of
//     every shard event at their instant.
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
	sn, mask, states, held := run.Net, run.Mask, run.states, run.held
	block := sn.Block()
	keys := KeyRoot(r)
	// A copy whose arrival is decided settles only when nothing else can
	// see the run: no campaign, no probe. Labels settle only on one shard:
	// at k > 1 a shard's labels see only the copies it queued itself, so
	// they settle about a third as many copies (n = 10⁶, two shards), and
	// on a 2-vCPU host their per-shard arrays cost set-up time (worse in 9
	// of 10 alternated runs) for no measured gain in run time.
	settle := inject == nil && probe == nil
	label := settle && len(states) == 1
	run.Reset(rumorBudget(p.N), func(s int) {
		st := &states[s]
		lo, hi := sn.Range(s)
		st.received.Reset(hi - lo)
		held[s].Reset(hi - lo)
		st.label = st.label[:0]
		if label {
			st.label = slices.Grow(st.label, hi-lo)[:hi-lo]
			clear(st.label)
		}
		st.delivered, st.msgs, st.wasted, st.dups = 0, 0, 0, 0
		st.spread = 0
		st.lat = stats.Running{}
		st.probe = nil
		st.fw.Reset(keys, sn.Shard(s))
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
	// parked). forward draws from self's streams at key (Forwarder); the
	// network draws each send's loss and latency from them too. When the
	// run settles, no member ever loses m, so one that held it at the last
	// barrier (held, refreshed by Drive) still holds it when any copy sent
	// in this window arrives, and a queued copy to a member alive under the
	// mask is delivered when its label says.
	run.snapshotHeld = settle && len(states) > 1
	forward := func(s, self int, key uint64) {
		st, nw, base := &states[s], sn.Shard(s), s*block
		st.targets = st.fw.Targets(st.targets, key, p.Fanout, view, self)
		st.msgs += len(st.targets)
		st.probe.ObserveFanout(len(st.targets))
		for _, v := range st.targets {
			alive, own := mask.Alive(v), uint(v-base) < uint(block)
			if !alive {
				st.wasted++
			}
			cutoff := sim.End
			if settle {
				switch {
				case !alive || own && st.received.Get(v-base):
					cutoff = settleAll
				case own:
					if label && st.label[v-base] != 0 {
						cutoff = sim.Time(st.label[v-base]) * labelQuantum
					}
				default:
					if d := v / block; held[d].Get(v - d*block) {
						cutoff = settleAll
					}
				}
			}
			at, settled := nw.SendBefore(simnet.NodeID(self), simnet.NodeID(v), cutoff, alive)
			switch {
			case settled && alive:
				st.dups++
			case !settled && label && own && at <= math.MaxUint16*labelQuantum:
				// Queued, so at < cutoff: the label only ever falls.
				st.label[v-base] = uint16((at + labelQuantum - 1) / labelQuantum)
			}
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
		forward(s, id, Key(id, 0))
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
				s, now := id/block, run.Control.Now()
				if hasReceived(id) { // re-gossip, keyed by member and instant
					forward(s, id, RegossipKey(id, 0, now))
					return
				}
				receive(s, id, -1, now) // additional publisher
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
		forward(s, src, Key(src, 0))
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
