// Package core implements the paper's primary contribution: the general
// gossiping algorithm (paper Fig. 1) with arbitrary fanout distributions,
// its fault-tolerant execution semantics, Monte-Carlo estimators for the
// reliability of gossiping R(q, P), the repeated-execution success protocol
// S(q, P, t), and the analytic predictions (via internal/genfunc) the
// simulations are validated against.
//
// The algorithm, verbatim from the paper:
//
//	Upon member i receiving the message m for the first time:
//	  member i generates a random number f_i following distribution P
//	  member i selects f_i nodes uniformly at random from its membership view
//	  member i sends the message m to the selected f_i nodes
//
// Failed members follow the fail-stop model: they never forward, and the
// paper treats a crash before receiving and one after receiving but before
// forwarding as the same case, so a failed member counts as never
// receiving; the source never fails.
//
// Two executors are provided. ExecuteOnce runs the spread as an untimed BFS
// (the paper's own setting). ExecuteOnNetworkSharded runs it as a
// discrete-event protocol over internal/simnet, where latency, loss,
// partitions, and mid-run fault injection apply, on any number of shard
// kernels; ExecuteOnNetworkArena and ExecuteOnNetworkProbed are that
// executor on one shard, the default.
// Every execution is a pure function of its Params, seed, injection hook
// and shard count — results are byte-identical across worker counts and
// arena reuse for the same GOARCH and Go release (the test suite checks
// amd64); keyed draws (KeyRoot) make it the same at every shard count (see
// ExecuteOnNetworkSharded) and its spread the same in both executors. Across
// architectures: on arm64, ppc64le, s390x and riscv64, TestNoFusedFloat
// keeps fused multiply-add out of this module's own float code; whether
// the standard library's math functions give the same bits on every
// architecture is not yet measured.
//
// The Monte-Carlo estimators on the untimed executor (EstimateReliabilityCtx,
// EstimateComponentReliabilityCtx, RunSuccessCtx, MeanTraceRounds) are sweeps
// on runpool.Replicate: replication i runs on the stream split at index i on
// its worker's executor, which redraws its own failure mask in place, and
// results reduce in run order, so an estimate depends on the seed alone.
// The giant-component estimator's per-worker state is a componentScratch:
// beside the pooled mask, the gossip graph (a graph.Digraph Reset every
// replication), a graph.Searcher and the target and probe buffers, so a
// warm replication on the full view allocates nothing. Every part is
// rebuilt from (Params, RNG) before it is read, so results do not depend on
// what the scratch ran before.
//
// The package also owns the run assembly every DES front end stands on
// (run.go): NetArena.Begin leases the pooled state as a Run and lays out
// its random streams, Run.Reset readies each shard, Run.NetRun builds the
// fault-injection seam, Run.Drive runs the shard group dry and refuses a
// result whose ledger did not close (ErrOpenLedger). The executor above,
// internal/stream's runner and internal/protocols' runtime are three
// front ends on that one sequence.
//
// Allocation guarantee: with a recycled NetArena (one per sweep worker),
// a network execution performs zero O(n)-sized heap allocations — the
// receive bitset, failure mask, kernel queue, and network state are all
// redrawn in place — which is what makes n=10⁶..10⁷ runs routine
// (scale_test.go enforces this with allocation- and byte-count guards).
package core
