// Package protocols implements the baseline dissemination protocols the
// paper positions itself against (§2 Related Work), so the experiment
// harness can compare the paper's single-shot general gossip with the
// protocol families the related work analyzes:
//
//   - Pbcast (Bimodal Multicast, Birman et al. [5]): round-based
//     anti-entropy gossip — every member that has the message gossips every
//     round for a fixed number of rounds, which removes the single-shot
//     die-out failure mode at the cost of more messages.
//   - lpbcast (Eugster et al. [1]): gossip over SCAMP partial views with
//     bounded event buffers that age out under load — constant memory
//     traded against reliability.
//   - Anti-entropy (Demers et al. [2]): each round every member contacts
//     one uniformly random peer and exchanges state push, pull, or
//     push-pull.
//   - RDG (Route Driven Gossip, Luo, Eugster & Hubaux [8]): push gossip of
//     payloads and packet-id digests over partial views, then NACK-driven
//     pull recovery.
//   - LRG (Local Retransmission-based Gossip, Jia et al. [9]):
//     probabilistic flooding over a bounded-degree neighbor overlay with
//     NACK-style local repair rounds.
//   - Flooding: the best-effort baseline — forward to every member on
//     first receipt (fanout n−1), maximal reliability and maximal cost.
//
// All protocols share the paper's failure model: a fail-stop alive mask
// with the source protected.
//
// # Two execution substrates, one oracle
//
// Every baseline has two executions, one of which ships:
//
//   - The legacy pure round loops (RunPbcast, RunLpbcast, RunAntiEntropy,
//     RunRDG, RunLRG, RunFlooding): synchronous-round simulations with no
//     notion of time, latency, or mid-run faults beyond the static mask.
//     They are the equivalence oracle and nothing else: they live in
//     oracle_test.go and compile only under go test. Their parameter and
//     result types stay in the package proper, where the machines use
//     them.
//   - The discrete-event runtime (RunOnDES over a Spec): the same
//     protocol logic driven by the shared sim.Kernel round ticker with
//     every gossip, digest, NACK, and pull reply routed through a
//     simnet.Network — so latency models, message loss, partitions, and
//     mid-run crash/restart/churn campaigns apply to the baselines
//     exactly as they apply to the paper's own algorithm in
//     internal/core.
//
// Under a zero-latency, no-loss network the DES execution consumes the
// protocol RNG stream in exactly the legacy order and fires deliveries in
// legacy iteration order, so its results are identical to the oracle's —
// equiv_test.go pins this per protocol, golden values included. The
// runtime is a front end on a one-shard core.Run leased from a
// core.NetArena (zero O(n) allocations on a warm arena): the run drives
// the kernel, closes the ledger and builds the core.NetRun through which
// scenario campaigns inject into baseline runs exactly as into paper runs.
package protocols
