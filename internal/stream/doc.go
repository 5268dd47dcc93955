// Package stream is the steady-state multi-message workload engine: an
// open-loop Poisson publish stream — many sources, an aggregate offered
// rate — driven through the DES substrate, where each message is an
// independent rumor identified by its simnet tag and every member holds a
// bounded rumor buffer with a pluggable eviction policy. It generalizes
// the single-rumor executors in internal/core and internal/protocols to
// the regime the paper's reliability model is silent about: sustained
// load, finite buffers, and the saturation knee where eviction loss
// overtakes network loss.
//
// A run precomputes its publish schedule (Poisson inter-arrivals over the
// configured rate, uniformly drawn sources) from a non-consuming split of
// the run RNG, so the offered load is identical across shard counts. Four
// gossip disciplines map the repo's protocol families onto the buffer
// model — eager push at first receipt (the paper's algorithm), round-based
// buffer push (pbcast/lpbcast), round-based digest push-pull with NACK
// and repair (anti-entropy/RDG), and full-view flooding (flooding/LRG) —
// all gossiping their active buffer instead of one rumor. Buffered
// entries age out after a fixed number of round-interval ticks; capacity
// pressure evicts per the configured policy, and the run's ledger
// reconciles publishes, deliveries, evictions and drops exactly.
//
// RunSharded is the one runner, a front end on core.Run — the run
// assembly (lease, random-stream layout, drive, ledger check) it shares
// with the core executor and the protocol runtime — with the core
// executor's determinism contract: byte-identical for a fixed shard
// count, statistically pinned across shard counts. RunProbed is
// RunSharded on one shard, the default. Telemetry rides the
// obs.StreamProbe family (nil probe = zero overhead), and scenario
// campaigns inject through the same core.NetRun seam as every other
// execution.
package stream
