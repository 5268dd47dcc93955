// Package sim is a small deterministic discrete-event simulation kernel:
// a virtual clock and a priority queue of timestamped events. It underpins
// the simulated network substrate (internal/simnet), which the gossip
// protocols run on when latency, loss, and timing matter.
//
// Determinism: events with equal timestamps fire in scheduling order
// (FIFO), so a run is a pure function of its inputs and seeds regardless of
// map iteration or goroutine scheduling — the kernel is single-goroutine by
// design.
//
// Two queue disciplines back the kernel, firing events in exactly the same
// (at, seq) order, seq being the scheduling order:
//
//   - A flat, value-typed 4-ary min-heap of fixed-size records, each paired
//     with its seq — the general-purpose default, O(log n) per operation.
//   - A CalendarQueue — time buckets in two tiers with an overflow heap
//     behind them, amortized O(1) per operation when event delays mostly
//     stay within a band. Callers that know their delay band select it
//     with SetBoundedDelayHint: simnet does for every latency model with a
//     bound, and for ExponentialLatency with the quantile Floor + 7·Mean
//     (the rarer draws beyond it wait in the overflow heap). A push into
//     the bucket being drained that fires after everything there — every
//     push at the current instant — is an append, so a zero-delay cascade
//     costs O(1) per event. The heap serves zero-latency networks and
//     models of unknown shape, and is the equivalence oracle.
//
// Run pops at most one record per event: the earliest record at or before
// the horizon comes off the queue in one call, a canceled closure record is
// discarded there, and a live one is dispatched in place.
//
// The calendar's tiers partition the future by time range. The near ring
// holds fine buckets — a handful of records each, sorted when the cursor
// gathers one — for the two coarse "far slots" of time the cursor is in;
// it is capped at 4096 buckets so it stays cache-resident at any n. The far
// ring holds the following K slots as append-only chunk chains: a push
// there is one read of a slot header from a table of a few KB and one
// store, and a slot is read back once, sequentially, when the window slides
// over it and scatters it into the near ring. Later records wait in the
// overflow heap. The (bound, pending) hint sizes everything: pending picks
// the number of fine buckets the window is cut into, bound their width,
// and K is what it takes for the far ring alone to span the window — so a
// run that keeps to its hint never touches the overflow heap, and a warm
// kernel re-hinted for a smaller run shrinks to exactly a fresh one's
// geometry. Only gathered near buckets are ever popped, sorted stably on
// the timestamp, which is why the route a record took cannot change the
// fire order: a calendar record stores no seq, and every tier and every
// move between tiers keeps equal-time records in push order by position
// (the overflow heap alone pairs its records with a seq).
// Kernel.QueueStats reports the geometry chosen, the peak load, the bytes
// retained and every corrective action (grow, rebase, overflow admission)
// the queue took on its own.
//
// Neither discipline allocates on the hot path: typed events scheduled
// with Schedule and dispatched to a registered handler by index are plain
// 16-byte records — the timestamp and handler id packed in one word, which
// caps schedulable time at MaxTime (about 834 days; a later event fails
// Run with ErrTimeRange) and a kernel at 255 handlers — which is what makes
// n=10⁶..10⁷-node network executions feasible. The closure-based At/After/Every/Cancel API is the
// control-event layer for low-rate callers (scenario hooks, round ticks);
// it parks the closure in a generation-counted slot table and enqueues a
// record pointing at the slot, so canceling is O(1) lazy invalidation
// rather than a queue removal.
package sim
