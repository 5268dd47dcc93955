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
// is a pure function of (config, seed). Latency models with a delay band —
// a LatencyBounder's bound, ExponentialLatency's Floor + 7·Mean quantile —
// switch the kernel to its calendar event queue, a pure throughput lever
// that never changes delivery order or results.
//
// Allocation guarantee: the steady-state send→deliver path allocates
// nothing. Node up/down flags are a packed bitset; payload-free messages
// whose (tag, sender) pair packs into the event word — the sender id in
// its low bits.Len(n−1) bits, the tag in the rest, so the band follows the
// group size — ride entirely inside the kernel's 16-byte event records
// (the gossip hot path, and the per-id stream's ids below 65,536 at
// n = 5000); boxed ones — tags past that band — add an 8-byte tag slot
// each; payload-carrying messages, batches and every message under a full
// tracer park in 40-byte in-flight slots. Both slot pools
// recycle through free lists (alloc_test.go enforces this; tagslot_test.go
// pins the tag slot's bytes).
package simnet
