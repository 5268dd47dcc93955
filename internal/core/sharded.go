package core

import (
	"fmt"
	"runtime"
	"time"

	"gossipkit/internal/bitset"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// shardSplit offsets the per-shard RNG split indices on the run's root
// stream (shard s draws from r.Split(shardSplit+s)); chosen to collide
// with no other split constant in the tree. Splitting never advances the
// parent, so the failure mask — drawn from r after the splits — is
// byte-identical across every shard count.
const shardSplit = 0x5a7d00

// ShardOptions parameterizes a sharded network execution.
type ShardOptions struct {
	// Shards is the shard-kernel count; values below 1 mean
	// runtime.GOMAXPROCS(0). The executor itself falls back to one shard
	// when the latency model has no positive floor (no lookahead — see
	// simnet.LatencyFloorer) or a shared Config.Tracer is installed.
	Shards int
	// Progress, if non-nil, observes every window barrier with the
	// barrier's virtual time and the total kernel events fired so far —
	// the live-progress source for single long runs. Called from the
	// coordinator goroutine.
	Progress func(events uint64, now sim.Time)
}

// EffectiveShards resolves the shard count ExecuteOnNetworkSharded (and
// stream.RunSharded) use for a run of n members over cfg: GOMAXPROCS for
// requests below 1, reduced to the number of member blocks that many
// shards actually fill (simnet.ShardBlocks — at most n), and 1 whenever
// the configuration cannot shard (no positive latency floor, or a shared
// tracer).
func EffectiveShards(requested, n int, cfg simnet.Config) int {
	s := requested
	if s < 1 {
		s = runtime.GOMAXPROCS(0)
	}
	if n < 1 || cfg.Tracer != nil || latencyFloor(cfg.Latency) <= 0 {
		return 1
	}
	_, s = simnet.ShardBlocks(n, s)
	return s
}

// LatencyFloor returns the model's guaranteed minimum delay, or 0 when it
// has none — the lookahead a conservative-PDES front end windows a sharded
// run with. Exported for sibling DES front ends (the streaming engine).
func LatencyFloor(m simnet.LatencyModel) time.Duration { return latencyFloor(m) }

// latencyFloor returns the model's guaranteed minimum delay, or 0 when it
// has none (nil models mean zero latency).
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
// ExecuteOnNetwork, ExecuteOnNetworkArena and ExecuteOnNetworkProbed ask
// for — the group is a single kernel drained in one go, with no windows,
// barriers or goroutines.
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
//   - a fixed shard count is byte-identical across repeated runs, fresh
//     and recycled arenas, and hosts, for the same (p, netCfg, r, inject):
//     shard s draws from r.Split(shardSplit+s) (from r itself on one
//     shard) and its network from a further Split(0xfeed), windows are cut
//     at deterministic virtual times, and barriers flush the per-pair
//     buffers in a fixed order, so scheduling nondeterminism never reaches
//     the simulation. testdata/oracle.golden pins the one-shard layout.
//   - different shard counts are statistically pinned, not byte-identical:
//     the failure mask is identical (drawn from r, which splitting never
//     advances) but fanout and latency draws come from different streams,
//     so results agree in distribution (the tests pin mean reliability
//     across shard counts).
//
// opts.Shards below 1 auto-selects GOMAXPROCS; see EffectiveShards for the
// configurations that run on fewer shards than asked.
func ExecuteOnNetworkSharded(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), arena *NetArena, probe *obs.Probe, opts ShardOptions) (NetResult, error) {
	if err := p.Validate(); err != nil {
		return NetResult{}, err
	}
	shards := EffectiveShards(opts.Shards, p.N, netCfg)
	if arena == nil {
		arena = NewNetArena()
	}
	rs := arena.Sharded(shards).State()
	kernels, ctl, sn, mask := rs.Kernels, rs.Control, rs.Net, rs.Mask
	states := arena.states[:shards]
	group := sim.NewShardGroup(kernels, ctl, latencyFloor(netCfg.Latency))
	sn.Prepare(shards, p.N, netCfg)
	block := sn.Block()

	// RNG layout. One shard runs on r itself; more draw from splits of r.
	// Splits never advance r, so the mask draw below is the same for every
	// shard count.
	states[0].rng = r
	if shards > 1 {
		for s := range states {
			states[s].rng = r.Split(shardSplit + uint64(s))
		}
	}
	group.Each(func(s int) {
		// Per-shard state is reset on the shard's own goroutine: the
		// kernel queue, the network's bitsets and pools, and the local
		// received bitset are first-touched by the topology that runs
		// them.
		st := &states[s]
		kernels[s].Reset()
		kernels[s].SetBudget(uint64(p.N) * 10000)
		sn.ResetShard(s, kernels[s], st.rng.Split(0xfeed))
		lo, hi := sn.Range(s)
		st.received.Reset(hi - lo)
		st.delivered, st.msgs, st.wasted, st.dups = 0, 0, 0, 0
		st.upAtEnd, st.delivUp = 0, 0
		st.spread = 0
		st.lat = stats.Running{}
	})
	p.drawMaskInto(mask, r)
	view := p.view()

	probes := probe.ShardProbes(shards) // nil for a nil probe
	for s := range states {
		states[s].probe = nil
		if probes != nil {
			states[s].probe = probes[s]
		}
		states[s].probe.Attach(sn.Shard(s), p.N, &states[s].delivered)
	}

	// forward and receive run on shard s's goroutine (or with every worker
	// parked).
	forward := func(s, self int) {
		st, nw := &states[s], sn.Shard(s)
		f := p.Fanout.Sample(st.rng)
		st.targets = view.SampleTargets(st.targets, self, f, st.rng)
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
		forward(s, id)
	}
	// One shared handler per shard (index dispatch on msg.To) instead of n
	// per-member closures; fail-stop members are crashed at the network
	// layer, so the handler only ever sees alive-at-delivery members.
	// (Crashing also counts the paper's "wasted" sends as crash drops.)
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
	group.Each(func(s int) {
		for id, hi := sn.Range(s); id < hi; id++ {
			if !mask.Alive(id) {
				sn.Shard(s).Crash(simnet.NodeID(id))
			}
		}
	})

	hasReceived := func(id int) bool {
		s := id / block
		return states[s].received.Get(id - s*block)
	}
	if inject != nil {
		inject(&NetRun{
			Kernel:      ctl,
			Net:         sn,
			View:        view,
			mask:        mask,
			hasReceived: hasReceived,
			delivered: func() int {
				total := 0
				for s := range states {
					total += states[s].delivered
				}
				return total
			},
			pending: rs.Pending,
			publish: func(id int) {
				if id < 0 || id >= p.N || !sn.Up(simnet.NodeID(id)) || !mask.Alive(id) {
					return
				}
				s := id / block
				rs.OnShard(s, func(now sim.Time) {
					if hasReceived(id) {
						forward(s, id) // re-gossip
						return
					}
					receive(s, id, -1, now) // additional publisher
				})
			},
		})
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
		forward(s, src)
	}

	var onBarrier func(now sim.Time, fired uint64)
	if opts.Progress != nil {
		onBarrier = func(now sim.Time, fired uint64) { opts.Progress(fired, now) }
	}
	if err := group.Run(sn.Flush, sn.Buffered, onBarrier); err != nil {
		return NetResult{}, fmt.Errorf("core: network execution aborted: %w", err)
	}
	for s := range states {
		states[s].probe.Finish(kernels[s].Now())
	}
	probe.AdoptShards()

	group.Each(func(s int) {
		st := &states[s]
		nw := sn.Shard(s)
		lo, hi := sn.Range(s)
		for id := lo; id < hi; id++ {
			if nw.Up(simnet.NodeID(id)) {
				st.upAtEnd++
				if st.received.Get(id - lo) {
					st.delivUp++
				}
			}
		}
	})

	res := NetResult{Result: Result{AliveCount: mask.AliveCount()}}
	for s := range states {
		st := &states[s]
		res.Delivered += st.delivered
		res.MessagesSent += st.msgs
		res.WastedOnFailed += st.wasted
		res.Duplicates += st.dups
		res.UpAtEnd += st.upAtEnd
		res.DeliveredUp += st.delivUp
		res.DeliveryLatency.Merge(st.lat)
		if d := st.spread.Duration(); d > res.SpreadTime {
			res.SpreadTime = d
		}
	}
	if res.AliveCount > 0 {
		res.Reliability = float64(res.Delivered) / float64(res.AliveCount)
	}
	if res.UpAtEnd > 0 {
		res.SurvivorReliability = float64(res.DeliveredUp) / float64(res.UpAtEnd)
	}
	res.Net = sn.Stats()
	return res, nil
}
