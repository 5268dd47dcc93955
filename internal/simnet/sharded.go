package simnet

import (
	"fmt"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// crossMsg is one cross-shard message parked in a per-(src,dst) buffer
// between its send and the next window barrier. 40 bytes, value-typed:
// buffering and flushing never touch the garbage collector. A batch
// message (idLen > 0) keeps its ids out of line in the pair's flat id
// buffer at [idOff, idOff+idLen); tag then holds the batch kind.
type crossMsg struct {
	sentAt sim.Time
	at     sim.Time
	from   int32
	to     int32
	tag    int32
	idOff  int32
	idLen  int32
	_      int32 // pad to 40 bytes
}

// ShardedNet is the sharded fabric: one *Network per shard kernel, member
// ids partitioned into contiguous blocks (owner(id) = id / blockSize), and
// per-(src,dst) buffers carrying cross-shard messages between window
// barriers. Each buffer has exactly one producer — the source shard's
// goroutine during a window — and is drained by the coordinator at the
// barrier while every worker is parked, so plain slices suffice (the
// ShardGroup's channel handoff is the memory barrier). Flush drains the
// buffers in (dst, src) order, which makes the interleaving — and thus
// the whole execution — deterministic for a fixed shard count.
//
// Per-shard state is authoritative only for the shard's own block: a
// shard's up-bitset is consulted for local senders and local delivery
// targets only, and the control methods (Up, Crash, Restart, the model
// swaps, Stats, Drained — everything fault-injection hooks drive mid-run)
// route by owner; call them with the execution quiescent or parked at a
// window barrier. Mutable loss models are cloned per shard (LossCloner);
// each shard draws loss and latency from its own RNG stream.
type ShardedNet struct {
	n      int
	shards int
	block  int
	nets   []*Network
	cfgs   []Config // per-shard configs (loss cloned), built by Prepare
	bufs   [][]crossMsg
	ids    [][]int32 // per-(src,dst) flat id storage for buffered batches
}

// NewShardedNet returns an empty sharded fabric; Prepare sizes it.
func NewShardedNet() *ShardedNet { return &ShardedNet{} }

// ShardBlocks partitions n member ids into contiguous blocks for a run
// asked to use `shards` shards: block is the block size ⌈n/shards⌉ and
// used the number of blocks that actually hold a member, ⌈n/block⌉ ≤
// shards. Executors run on `used` shards, so no shard ever owns an empty
// range past n (n=5 over 4 shards is three blocks of two, not four).
func ShardBlocks(n, shards int) (block, used int) {
	if n < 1 || shards < 1 {
		panic(fmt.Sprintf("simnet: %d members across %d shards", n, shards))
	}
	block = (n + shards - 1) / shards
	return block, (n + block - 1) / block
}

// Prepare sizes the fabric for a run over n members on `shards` shards
// and derives the per-shard configs from cfg, cloning stateful loss
// models so shards never share mutable model state. Call once per run,
// before the per-shard ResetShard calls. shards must be a count
// ShardBlocks(n, ·) returns as used — every shard owns at least one
// member.
func (sn *ShardedNet) Prepare(shards, n int, cfg Config) {
	block, used := ShardBlocks(n, shards)
	if used != shards {
		panic(fmt.Sprintf("simnet: %d members fill only %d of %d shards", n, used, shards))
	}
	sn.n = n
	sn.shards = shards
	sn.block = block
	if cap(sn.nets) < shards {
		sn.nets = append(sn.nets[:cap(sn.nets)], make([]*Network, shards-cap(sn.nets))...)
		sn.cfgs = append(sn.cfgs[:cap(sn.cfgs)], make([]Config, shards-cap(sn.cfgs))...)
	}
	sn.nets = sn.nets[:shards]
	sn.cfgs = sn.cfgs[:shards]
	for s := range sn.cfgs {
		c := cfg
		if cloner, ok := cfg.Loss.(LossCloner); ok {
			c.Loss = cloner.CloneLoss()
		}
		sn.cfgs[s] = c
	}
	if cap(sn.bufs) < shards*shards {
		sn.bufs = make([][]crossMsg, shards*shards)
	}
	sn.bufs = sn.bufs[:shards*shards]
	for i := range sn.bufs {
		sn.bufs[i] = sn.bufs[i][:0]
	}
	if cap(sn.ids) < shards*shards {
		sn.ids = make([][]int32, shards*shards)
	}
	sn.ids = sn.ids[:shards*shards]
	for i := range sn.ids {
		sn.ids[i] = sn.ids[i][:0]
	}
}

// ResetShard (re)initializes shard s's network on its kernel and installs
// the cross-shard route hook. It touches only shard-s state, so the
// executor calls it from each shard's own worker goroutine (first-touch
// locality of the per-shard bitsets and pools). The kernel must be
// freshly Reset.
func (sn *ShardedNet) ResetShard(s int, kernel *sim.Kernel, rng *xrand.RNG) {
	if sn.nets[s] == nil {
		sn.nets[s] = New(kernel, sn.n, rng, sn.cfgs[s])
	} else {
		sn.nets[s].Reset(kernel, sn.n, rng, sn.cfgs[s])
	}
	if sn.shards == 1 {
		return // no cross-shard traffic: keep the hot path seam empty
	}
	shards, block := sn.shards, sn.block
	bufs := sn.bufs[s*shards : (s+1)*shards]
	idbufs := sn.ids[s*shards : (s+1)*shards]
	sn.nets[s].SetRoute(func(from, to NodeID, tag int32, sentAt, at sim.Time) bool {
		d := int(to) / block
		if d == s {
			return false
		}
		bufs[d] = append(bufs[d], crossMsg{
			sentAt: sentAt, at: at, from: int32(from), to: int32(to), tag: tag,
		})
		return true
	})
	sn.nets[s].SetRouteBatch(func(from, to NodeID, kind int32, ids []int32, sentAt, at sim.Time) bool {
		d := int(to) / block
		if d == s {
			return false
		}
		off := int32(len(idbufs[d]))
		idbufs[d] = append(idbufs[d], ids...)
		bufs[d] = append(bufs[d], crossMsg{
			sentAt: sentAt, at: at, from: int32(from), to: int32(to), tag: kind,
			idOff: off, idLen: int32(len(ids)),
		})
		return true
	})
}

// Flush drains every cross-shard buffer into the destination shards'
// kernels. Call only at a window barrier (all workers parked), with wend
// the window's end time: arrivals are clamped to wend, which can only
// engage when a mid-run SetLatency swap lowered the floor below the
// lookahead the run was windowed with (a documented deviation — the
// message arrives at the barrier instead of inside the closed window).
func (sn *ShardedNet) Flush(wend sim.Time) {
	for dst := 0; dst < sn.shards; dst++ {
		nw := sn.nets[dst]
		for src := 0; src < sn.shards; src++ {
			pair := src*sn.shards + dst
			buf := sn.bufs[pair]
			if len(buf) == 0 {
				continue
			}
			ids := sn.ids[pair]
			for _, m := range buf {
				at := m.at
				if at < wend {
					at = wend
				}
				if m.idLen > 0 {
					nw.ScheduleArrivalBatch(NodeID(m.from), NodeID(m.to), m.tag,
						ids[m.idOff:m.idOff+m.idLen], m.sentAt, at)
					continue
				}
				nw.ScheduleArrival(NodeID(m.from), NodeID(m.to), m.tag, m.sentAt, at)
			}
			sn.bufs[pair] = buf[:0]
			sn.ids[pair] = ids[:0]
		}
	}
}

// Buffered returns the number of cross-shard messages parked for the next
// barrier. Zero at every barrier after Flush and at quiescence.
func (sn *ShardedNet) Buffered() int {
	total := 0
	for _, b := range sn.bufs {
		total += len(b)
	}
	return total
}

// Owner returns the shard owning id's block.
func (sn *ShardedNet) Owner(id NodeID) int { return int(id) / sn.block }

// Block returns the member-id block size.
func (sn *ShardedNet) Block() int { return sn.block }

// Range returns the member ids [lo, hi) shard s owns:
// [s·Block, min((s+1)·Block, N)).
func (sn *ShardedNet) Range(s int) (lo, hi int) {
	return s * sn.block, min((s+1)*sn.block, sn.n)
}

// Shard returns shard s's network (senders local to s emit through it).
func (sn *ShardedNet) Shard(s int) *Network { return sn.nets[s] }

// N returns the number of members.
func (sn *ShardedNet) N() int { return sn.n }

// Up consults the owning shard's authoritative bit.
func (sn *ShardedNet) Up(id NodeID) bool { return sn.nets[sn.Owner(id)].Up(id) }

// Crash marks id failed on the owning shard.
func (sn *ShardedNet) Crash(id NodeID) { sn.nets[sn.Owner(id)].Crash(id) }

// Restart marks id up again on the owning shard.
func (sn *ShardedNet) Restart(id NodeID) { sn.nets[sn.Owner(id)].Restart(id) }

// SetPartition installs a partition: every shard consults the same
// predicate, which must therefore be pure (SplitPartition closures are).
func (sn *ShardedNet) SetPartition(blocked func(a, b NodeID) bool) {
	for _, nw := range sn.nets {
		nw.SetPartition(blocked)
	}
}

// SetLoss swaps the loss model, cloning stateful models per shard exactly
// as Prepare does for the initial model.
func (sn *ShardedNet) SetLoss(l LossModel) {
	for _, nw := range sn.nets {
		m := l
		if cloner, ok := l.(LossCloner); ok {
			m = cloner.CloneLoss()
		}
		nw.SetLoss(m)
	}
}

// SetLatency swaps the latency model. Latency models are value-typed and
// stateless, so every shard shares the swapped model. Swapping to a model
// whose floor is below the run's lookahead does not break causality —
// cross-shard arrivals inside an already-open window are clamped to the
// next barrier (see Flush).
func (sn *ShardedNet) SetLatency(l LatencyModel) {
	for _, nw := range sn.nets {
		nw.SetLatency(l)
	}
}

// Stats returns the sum of the per-shard counters. Each
// cross-shard message is Sent-counted on its source shard and resolved
// (delivered or dropped) on its destination shard, so per-shard InFlight
// is meaningless but the sum — including messages still parked in
// cross-shard buffers — is exact.
func (sn *ShardedNet) Stats() Stats {
	var total Stats
	for _, nw := range sn.nets {
		total.Add(nw.Stats())
	}
	return total
}

// SlabsInUse returns leased-but-unreturned id-slabs summed over the
// shards — zero at quiescence, like the single-network invariant.
func (sn *ShardedNet) SlabsInUse() int {
	total := 0
	for _, nw := range sn.nets {
		total += nw.SlabsInUse()
	}
	return total
}

// Drained reports that no accepted message is airborne on any shard or
// parked in a cross-shard buffer.
func (sn *ShardedNet) Drained() bool {
	return sn.Stats().InFlight() == 0 && sn.Buffered() == 0
}
