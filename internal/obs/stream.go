package obs

import (
	"io"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
)

// StreamProbe is the streaming-workload front end of the sampler: it
// rides the same tracer seam, tick clock and column table as Probe, but
// its columns are the steady-state quantities of a multi-message run —
// buffer occupancy, active-message gauge, cumulative publishes / first
// receipts / evictions / expiries — and its latency histogram is binned
// per message (receipt time minus publish time, which the single-rumor
// probe cannot know).
//
// The nil *StreamProbe is the off state: every method is a nil-check-only
// no-op, preserving the zero-overhead-when-off contract. A probe is
// reused across runs (Attach resets it) but never across goroutines.
type StreamProbe struct {
	sampler
	// occupancy and active are the executor's live gauges: buffered rumor
	// copies in this probe's member block, and globally active messages
	// (nil on non-lead shards of a sharded run, where the series samples
	// zero and the shard merge takes the lead shard's values).
	occupancy *int64
	active    *int64

	// Cumulative stream counters fed by the Observe hooks.
	published int64
	delivered int64
	evicted   int64
	expired   int64

	shards shardPool[*StreamProbe, *StreamMetrics]
}

// NewStream returns a streaming probe collecting per opts (defaulted
// exactly like New). Its buffers are allocated once and pooled across
// Attach cycles.
func NewStream(opts Options) *StreamProbe {
	p := &StreamProbe{}
	p.init(opts, p, len(new(StreamMetrics).columns().series))
	p.shards.init(p)
	return p
}

// Attach binds the probe to a fresh streaming run: net is the run's
// network (its tracer seam drives tick sampling and the sent/dropped
// curves), occupancy the executor's buffered-copies gauge for this
// probe's member block, and active the global active-message gauge (nil
// when this probe's shard does not maintain it). The probe samples
// through the lite tracer, which keeps the slot-free send path. Attach
// resets all pooled state.
func (p *StreamProbe) Attach(net *simnet.Network, occupancy, active *int64) {
	if p == nil {
		return
	}
	p.occupancy, p.active = occupancy, active
	p.shards.adopted = nil
	p.published, p.delivered, p.evicted, p.expired = 0, 0, 0, 0
	p.attach(net)
}

// fill is the probe's gauge; the order is StreamMetrics.columns().series.
func (p *StreamProbe) fill(row []int64) {
	row[0], row[1] = 0, 0
	if p.occupancy != nil {
		row[0] = *p.occupancy
	}
	if p.active != nil {
		row[1] = *p.active
	}
	row[2], row[3] = p.published, p.delivered
	row[4], row[5] = p.evicted, p.expired
	row[6] = p.cnt[simnet.EventSent]
	row[7] = p.cnt[simnet.EventDroppedLoss] + p.cnt[simnet.EventDroppedCrash] +
		p.cnt[simnet.EventDroppedDown] + p.cnt[simnet.EventDroppedPartition]
}

// ObservePublish records one message entering the stream at virtual time
// now. Hooks advance the sampler themselves: publishes and expiries fire
// from kernel closures, not network events, so the tracer alone would
// sample their tick bins late.
func (p *StreamProbe) ObservePublish(now sim.Time) {
	if p == nil {
		return
	}
	p.advanceTo(now)
	p.published++
}

// ObserveDeliver records one member's first receipt of one message at
// virtual time now, latency after its publish.
func (p *StreamProbe) ObserveDeliver(now, latency sim.Time) {
	if p == nil {
		return
	}
	p.advanceTo(now)
	p.delivered++
	p.observeLatency(latency)
}

// ObserveEvict records one buffered copy displaced by the eviction policy
// at virtual time now (capacity pressure, not age).
func (p *StreamProbe) ObserveEvict(now sim.Time) {
	if p == nil {
		return
	}
	p.advanceTo(now)
	p.evicted++
}

// ObserveExpire records k buffered copies retired by age at virtual time
// now (the round tick's batch compaction).
func (p *StreamProbe) ObserveExpire(now sim.Time, k int) {
	if p == nil {
		return
	}
	p.advanceTo(now)
	p.expired += int64(k)
}

// Finish seals the run's telemetry at virtual time now, like Probe.Finish.
func (p *StreamProbe) Finish(now sim.Time) {
	if p != nil {
		p.finish(now)
	}
}

// StreamMetrics is the frozen telemetry of one streaming run. Series
// index i holds the state just before the first event at or after
// virtual time i·Tick; the last point holds the drained final state.
type StreamMetrics struct {
	// Tick is the curve sampling interval; End the run's final virtual
	// time; Truncated that the run outlived 4096 ticks.
	Tick      time.Duration
	End       time.Duration
	Truncated bool
	// Occupancy is the buffered-copies gauge; Active the live-message
	// gauge (messages published and not yet expired).
	Occupancy []int64
	Active    []int64
	// Published, Delivered (first receipts), Evicted and Expired are
	// cumulative stream counters; Sent and Dropped cumulative network
	// counters (Dropped sums every drop kind).
	Published, Delivered []int64
	Evicted, Expired     []int64
	Sent, Dropped        []int64
	// Totals is the network's final counter snapshot (authoritative even
	// when curves are off or truncated).
	Totals simnet.Stats
	// Latency is the per-message delivery-latency histogram (receipt
	// minus publish time).
	Latency HistSnapshot
}

func (m *StreamMetrics) columns() columns {
	return columns{
		tick: &m.Tick, end: &m.End, truncated: &m.Truncated, totals: &m.Totals,
		series: []*[]int64{&m.Occupancy, &m.Active, &m.Published, &m.Delivered,
			&m.Evicted, &m.Expired, &m.Sent, &m.Dropped},
		hists: []*HistSnapshot{&m.Latency},
	}
}

// Metrics snapshots the probe into a standalone StreamMetrics (the only
// allocating step of a probed run; call once, after Finish). After
// AdoptShards it returns the merged whole-run view instead.
func (p *StreamProbe) Metrics() *StreamMetrics {
	if p == nil {
		return nil
	}
	if p.shards.adopted != nil {
		return p.shards.adopted
	}
	m := &StreamMetrics{}
	p.snapshot(m.columns())
	return m
}

// ShardProbes leases the k streaming probes of a k-shard execution, one
// per shard kernel: the parent itself on one shard, else child probes
// pooled on the parent across runs. Call AdoptShards after the run.
func (p *StreamProbe) ShardProbes(k int) []*StreamProbe {
	if p == nil {
		return nil
	}
	return p.shards.lease(k)
}

func (p *StreamProbe) newChild() *StreamProbe { return NewStream(p.opts) }

// AdoptShards merges the finished telemetry of the probes last leased with
// ShardProbes into one whole-run StreamMetrics (see mergeShards; the
// Active gauge is the lead shard's alone, so summation passes it through)
// that the parent's Metrics returns until its next Attach.
func (p *StreamProbe) AdoptShards() {
	if p != nil {
		p.shards.adopt(mergeShards[StreamMetrics])
	}
}

// Queues returns each shard kernel's account of its event queue over the
// run just finished, in shard order; see Probe.Queues.
func (p *StreamProbe) Queues() []sim.QueueStats {
	if p == nil {
		return nil
	}
	return p.shards.queues()
}

// StreamMerged aggregates per-run StreamMetrics across replications via
// stats.Running per tick index. Merge in run order for byte-identical
// results at any worker count, like every other reduction.
type StreamMerged struct {
	// Tick is the curve sampling interval (from the first run); Runs the
	// merged-run count; Truncated that at least one run hit its cap.
	Tick      time.Duration
	Runs      int
	Truncated bool
	// The merged virtual-time series; see StreamMetrics.
	Occupancy, Active    Series
	Published, Delivered Series
	Evicted, Expired     Series
	Sent, Dropped        Series
	// Latency is the summed delivery-latency histogram.
	Latency MergedHist
}

func (g *StreamMerged) columns() mergedColumns {
	return mergedColumns{
		tick: &g.Tick, runs: &g.Runs, truncated: &g.Truncated,
		series: []*Series{&g.Occupancy, &g.Active, &g.Published, &g.Delivered,
			&g.Evicted, &g.Expired, &g.Sent, &g.Dropped},
		hists: []*MergedHist{&g.Latency},
	}
}

// Merge folds one run's StreamMetrics into the aggregate; nil is a no-op
// (a skipped run).
func (g *StreamMerged) Merge(m *StreamMetrics) {
	if m != nil {
		g.columns().merge(m.columns())
	}
}

// StreamCurveCSVHeader is the column header WriteCurveCSV emits.
const StreamCurveCSVHeader = "label,t_ms,runs,occupancy_mean,occupancy_stddev,active_mean,published_mean,delivered_mean,evicted_mean,expired_mean,sent_mean,dropped_mean\n"

// WriteCurveCSV renders the merged streaming series as CSV, one row per
// tick, labeled with label in the first column. Emit the header once via
// StreamCurveCSVHeader, or let the first call write it with header=true.
func (g *StreamMerged) WriteCurveCSV(w io.Writer, label string, header bool) error {
	return g.columns().writeCurveCSV(w, label, header, StreamCurveCSVHeader)
}
