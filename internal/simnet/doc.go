// Package simnet is the simulated network substrate the gossip protocols
// run on when message timing matters. It models per-message latency,
// probabilistic loss (including bursty Gilbert–Elliott loss), network
// partitions, and node crashes, all on top of the deterministic
// discrete-event kernel in internal/sim.
//
// The paper's MATLAB simulation abstracts the network away entirely (a
// gossip "send" always arrives, instantly); simnet reproduces that setting
// with the zero-value models (constant zero latency, no loss) and extends it
// with the realism knobs used by the ablation experiments and the fault
// campaigns.
//
// A Network is one kernel's worth of members; ShardedNet is the fabric
// executions run on — one Network per shard kernel (one by default) plus
// the cross-shard buffers — and the only network type fault-injection
// hooks see. core.Run alone sizes, resets and flushes it (TestAPIGate).
//
// Determinism: a Network is single-goroutine state driven by its kernel;
// every latency and loss draw comes from the caller-supplied RNG, so a run
// is a pure function of (config, seed). Models are immutable values every
// shard shares; a Gilbert–Elliott chain belongs to its sender and lives in
// the Network, so burst loss does not depend on the shard count. Latency models with a delay band —
// a LatencyBounder's bound, ExponentialLatency's Floor + 7·Mean quantile —
// switch the kernel to its calendar event queue, a pure throughput lever
// that never changes delivery order or results.
//
// Allocation guarantee: the steady-state send→deliver path allocates
// nothing. Node up/down flags are a packed bitset; payload-free messages
// whose tag packs into the event record — each of its two words holds a
// node id in its low bits.Len(n−1) bits and half the tag in the rest, so
// the band follows the group size — ride entirely inside the kernel's
// 16-byte event records (the gossip hot path, and every per-id stream tag
// at n ≤ 2¹⁵, ids below 2²⁶ at n = 10⁵). Everything else — tags past that
// band, payload-carrying messages, batches and every message under a full
// tracer — parks in a 40-byte in-flight slot, recycled through a free list
// (alloc_test.go enforces this; parked_test.go pins the slot's bytes).
//
// Settled sends: a front end that already knows a copy's fate at delivery
// hands it to SendSettled, which makes Send's send-time draws and counts
// the outcome at once, with no event (Stats.Settled). The paper executor
// settles copies to mask-dead members, to members of the sending shard that
// already hold m, and to members of other shards that held m at the last
// window barrier, when the run has no campaign and no probe; none settles
// under a tracer or a partition. A settled cross-shard copy never enters
// ShardedNet's buffers. The stream engine and the protocol runtime queue
// every send.
package simnet
