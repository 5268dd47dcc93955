// Package obs is the observability layer of the DES stack: probes that
// turn an opaque execution into inspectable telemetry without perturbing
// it.
//
// There is one instrument, the unexported sampler, and two front ends
// that embed it. The sampler owns everything the two share: the network's
// tracer seam, the per-kind event counters, the tick clock, a column
// table that gains one row per tick, the delivery-latency histogram, and
// the end-of-run capture of network totals and kernel queue statistics
// (Queues). A front end supplies the gauge that fills a row and whatever
// else is its own:
//
//   - Probe, for one run of a single-rumor front end (core's network
//     executor or the protocol baseline runtime): the infected count π(t),
//     the in-flight gauge and cumulative per-kind send/deliver/drop
//     counters as columns; hops- or rounds-to-delivery and per-emission
//     fanout histograms; optionally raw network events in a preallocated
//     ring, with exporters to Chrome trace-event JSON and CSV.
//   - StreamProbe, for one run of the stream engine: buffer occupancy, the
//     active-message gauge and cumulative publish / first-receipt /
//     evict / expire / sent / dropped counters as columns, with latency
//     measured per message from its publish.
//
// Each front end snapshots into its own struct (Metrics, StreamMetrics)
// and aggregates replications into its own (Merged, StreamMerged); all
// four expose their columns in one fixed order through an unexported
// columns() accessor, and the reductions are written once over that list:
// the per-shard sum of a sharded run (final-value padding for shards that
// drained early, simnet's Stats.Add for totals), the histogram sum, the
// run-ordered replication merge, and the curve CSV. A generic shard pool
// leases one child probe per shard kernel and adopts their merged view.
//
// Zero-overhead contract: a nil *Probe or *StreamProbe is a valid probe,
// and every Observe* hook on it is a nil-check-only no-op, so the
// unprobed hot path pays one predictable branch per hook site and
// allocates nothing — core's n=10⁶ benchmark invariant (25 allocs) is
// guarded with probes both off and on. When a probe IS attached, its
// buffers are pooled and reused across runs (one probe per sweep worker),
// so probed sweeps stay O(1)-allocation per run too.
//
// Curve sampling is driven by the network's tracer seam, not by kernel
// events: the sampler observes each network event, fills every elapsed
// tick bin with the state just before the event, and never schedules
// anything — so probing cannot interact with quiescence detection, stall
// triggers, or the drain logic. Counters and curves ride the lite tracer
// (simnet.SetTracerLite), which keeps the slot-free zero-allocation send
// encoding; only ring tracing (which needs exact per-message send times)
// or a caller's own tracer installs a full one. Because sampling is a
// pure function of the run's event sequence, per-run snapshots are
// deterministic, and merging them in run order is worker-count-invariant.
package obs
