package obs

import (
	"fmt"
	"io"
	"math"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
)

// StreamProbe is the streaming-workload sibling of Probe: it rides the
// same tracer seam and tick sampler, but its curves are the steady-state
// quantities of a multi-message run — buffer occupancy, active-message
// gauge, cumulative publishes / first receipts / evictions / expiries —
// plus a delivery-latency histogram binned per message (receipt time
// minus publish time, which the single-rumor probe cannot know).
//
// The nil *StreamProbe is the off state: every method is a nil-check-only
// no-op, preserving the zero-overhead-when-off contract. A probe is
// reused across runs (Attach resets it) but never across goroutines.
// Options is shared with Probe; HopBins, FanoutBins and TraceCapacity are
// ignored here.
type StreamProbe struct {
	opts Options

	net  *simnet.Network
	prev simnet.Tracer
	// occupancy and active are the executor's live gauges: buffered rumor
	// copies in this probe's member block, and globally active messages
	// (nil on non-lead shards of a sharded run, where the series samples
	// zero and the shard merge takes the lead shard's values).
	occupancy *int64
	active    *int64

	tick sim.Time
	next sim.Time
	cnt  [kindCount]int64

	// Cumulative stream counters fed by the Observe hooks.
	published int64
	delivered int64
	evicted   int64
	expired   int64

	sOcc, sAct             []int64
	sPub, sDel, sEvc, sExp []int64
	sSent, sDrop           []int64
	truncated              bool

	lat *stats.Histogram

	end    sim.Time
	totals simnet.Stats

	children []*StreamProbe // pooled child probes of multi-shard runs
	self     [1]*StreamProbe
	leased   []*StreamProbe // probes of the current run: children[:k], or self on one shard
	adopted  *StreamMetrics
}

// NewStream returns a streaming probe collecting per opts (normalized
// exactly like New). The latency histogram is allocated once and pooled
// across Attach cycles.
func NewStream(opts Options) *StreamProbe {
	p := &StreamProbe{opts: opts.normalize()}
	if p.opts.CurveTick > 0 {
		p.tick = sim.Time(p.opts.CurveTick)
	}
	if p.opts.LatencyBins > 0 {
		p.lat = stats.NewHistogram(p.opts.LatencyBins)
	}
	return p
}

// Attach binds the probe to a fresh streaming run: net is the run's
// network (its tracer seam drives tick sampling and the sent/dropped
// curves), occupancy the executor's buffered-copies gauge for this
// probe's member block, and active the global active-message gauge (nil
// when this probe's shard does not maintain it). Any tracer already on
// net keeps seeing every event — the probe chains it, at full-tracer
// cost; otherwise the lite tracer keeps the slot-free send path. Attach
// resets all pooled state.
func (p *StreamProbe) Attach(net *simnet.Network, occupancy, active *int64) {
	if p == nil {
		return
	}
	p.net, p.occupancy, p.active = net, occupancy, active
	p.adopted = nil
	p.next = 0
	p.truncated = false
	p.end = 0
	p.totals = simnet.Stats{}
	for k := range p.cnt {
		p.cnt[k] = 0
	}
	p.published, p.delivered, p.evicted, p.expired = 0, 0, 0, 0
	p.sOcc, p.sAct = p.sOcc[:0], p.sAct[:0]
	p.sPub, p.sDel = p.sPub[:0], p.sDel[:0]
	p.sEvc, p.sExp = p.sEvc[:0], p.sExp[:0]
	p.sSent, p.sDrop = p.sSent[:0], p.sDrop[:0]
	if p.lat != nil {
		p.lat.Reset()
	}
	p.prev = net.Tracer()
	switch {
	case p.prev != nil:
		net.SetTracer(p.observe)
	case p.tick > 0:
		net.SetTracerLite(p.observe)
	}
}

// observe is the probe's tracer: advance the sampler to the event's time
// (filling elapsed tick bins with the pre-event state), count the event,
// feed any chained tracer. Event times arrive in nondecreasing order.
func (p *StreamProbe) observe(e simnet.Event) {
	if p.tick > 0 {
		p.advanceTo(e.At)
	}
	if int(e.Kind) < kindCount {
		p.cnt[e.Kind]++
	}
	if p.prev != nil {
		p.prev(e)
	}
}

func (p *StreamProbe) advanceTo(t sim.Time) {
	for p.next <= t {
		if !p.sample() {
			p.next = sim.Time(math.MaxInt64)
			return
		}
		p.next += p.tick
	}
}

// sample appends one point to every series from the current state; it
// reports false (and marks truncation) once MaxSamples is reached.
func (p *StreamProbe) sample() bool {
	if len(p.sOcc) >= p.opts.MaxSamples {
		p.truncated = true
		return false
	}
	var occ, act int64
	if p.occupancy != nil {
		occ = *p.occupancy
	}
	if p.active != nil {
		act = *p.active
	}
	p.sOcc = append(p.sOcc, occ)
	p.sAct = append(p.sAct, act)
	p.sPub = append(p.sPub, p.published)
	p.sDel = append(p.sDel, p.delivered)
	p.sEvc = append(p.sEvc, p.evicted)
	p.sExp = append(p.sExp, p.expired)
	p.sSent = append(p.sSent, p.cnt[simnet.EventSent])
	p.sDrop = append(p.sDrop, p.cnt[simnet.EventDroppedLoss]+
		p.cnt[simnet.EventDroppedCrash]+
		p.cnt[simnet.EventDroppedDown]+
		p.cnt[simnet.EventDroppedPartition])
	return true
}

// ObservePublish records one message entering the stream at virtual time
// now. Hooks advance the sampler themselves: publishes and expiries fire
// from kernel closures, not network events, so the tracer alone would
// sample their tick bins late.
func (p *StreamProbe) ObservePublish(now sim.Time) {
	if p == nil {
		return
	}
	if p.tick > 0 {
		p.advanceTo(now)
	}
	p.published++
}

// ObserveDeliver records one member's first receipt of one message at
// virtual time now, latency after its publish.
func (p *StreamProbe) ObserveDeliver(now, latency sim.Time) {
	if p == nil {
		return
	}
	if p.tick > 0 {
		p.advanceTo(now)
	}
	p.delivered++
	if p.lat != nil {
		p.lat.Add(int(latency.Duration() / p.opts.LatencyBinWidth))
	}
}

// ObserveEvict records one buffered copy displaced by the eviction policy
// at virtual time now (capacity pressure, not age).
func (p *StreamProbe) ObserveEvict(now sim.Time) {
	if p == nil {
		return
	}
	if p.tick > 0 {
		p.advanceTo(now)
	}
	p.evicted++
}

// ObserveExpire records k buffered copies retired by age at virtual time
// now (the round tick's batch compaction).
func (p *StreamProbe) ObserveExpire(now sim.Time, k int) {
	if p == nil {
		return
	}
	if p.tick > 0 {
		p.advanceTo(now)
	}
	p.expired += int64(k)
}

// Finish seals the run's telemetry at virtual time now: fill the
// remaining tick bins, append one trailing sample so the drained plateau
// is present, snapshot the network's final counters.
func (p *StreamProbe) Finish(now sim.Time) {
	if p == nil {
		return
	}
	if p.tick > 0 {
		p.advanceTo(now)
		p.sample()
	}
	p.end = now
	if p.net != nil {
		p.totals = p.net.Stats()
	}
}

// StreamMetrics is the frozen telemetry of one streaming run. Series
// index i holds the state just before the first event at or after
// virtual time i·Tick; the last point holds the drained final state.
type StreamMetrics struct {
	// Tick is the curve sampling interval; End the run's final virtual
	// time; Truncated that the run outlived MaxSamples·Tick.
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
	// minus publish time); nil Counts when disabled.
	Latency HistSnapshot
}

// Metrics snapshots the probe into a standalone StreamMetrics (the only
// allocating step of a probed run; call once, after Finish). After
// AdoptShards it returns the merged whole-run view instead.
func (p *StreamProbe) Metrics() *StreamMetrics {
	if p == nil {
		return nil
	}
	if p.adopted != nil {
		return p.adopted
	}
	m := &StreamMetrics{
		Tick:      p.opts.CurveTick,
		End:       p.end.Duration(),
		Truncated: p.truncated,
		Occupancy: append([]int64(nil), p.sOcc...),
		Active:    append([]int64(nil), p.sAct...),
		Published: append([]int64(nil), p.sPub...),
		Delivered: append([]int64(nil), p.sDel...),
		Evicted:   append([]int64(nil), p.sEvc...),
		Expired:   append([]int64(nil), p.sExp...),
		Sent:      append([]int64(nil), p.sSent...),
		Dropped:   append([]int64(nil), p.sDrop...),
		Totals:    p.totals,
	}
	if p.lat != nil {
		m.Latency = HistSnapshot{BinWidth: p.opts.LatencyBinWidth, Counts: p.lat.Counts(), Total: p.lat.Total()}
	}
	return m
}

// ShardProbes leases the k streaming probes of a k-shard execution, one
// per shard kernel: the parent itself on one shard, else child probes
// pooled on the parent across runs. Call AdoptShards after the run.
func (p *StreamProbe) ShardProbes(k int) []*StreamProbe {
	if p == nil {
		return nil
	}
	if k == 1 {
		p.self[0] = p
		p.leased = p.self[:]
		return p.leased
	}
	for len(p.children) < k {
		p.children = append(p.children, NewStream(p.opts))
	}
	p.leased = p.children[:k]
	return p.leased
}

// AdoptShards merges the finished telemetry of the probes last leased with
// ShardProbes into one whole-run StreamMetrics that the parent's Metrics
// returns until its next Attach. On one shard the parent observed the run
// itself and there is nothing to merge.
func (p *StreamProbe) AdoptShards() {
	if p == nil || (len(p.leased) == 1 && p.leased[0] == p) {
		return
	}
	parts := make([]*StreamMetrics, len(p.leased))
	for i, c := range p.leased {
		parts[i] = c.Metrics()
	}
	p.adopted = MergeShardStreamMetrics(parts)
}

// MergeShardStreamMetrics merges per-shard StreamMetrics of one sharded
// execution into the whole-run view: curves are summed elementwise with
// final-value padding for shards that drained early (the Active gauge is
// maintained by the lead shard only, so summation passes it through),
// totals and histograms are summed. Returns nil for no parts.
func MergeShardStreamMetrics(parts []*StreamMetrics) *StreamMetrics {
	if len(parts) == 0 {
		return nil
	}
	m := &StreamMetrics{Tick: parts[0].Tick}
	maxLen := 0
	for _, part := range parts {
		if part.End > m.End {
			m.End = part.End
		}
		m.Truncated = m.Truncated || part.Truncated
		if n := len(part.Occupancy); n > maxLen {
			maxLen = n
		}
		m.Totals.Sent += part.Totals.Sent
		m.Totals.Delivered += part.Totals.Delivered
		m.Totals.DroppedLoss += part.Totals.DroppedLoss
		m.Totals.DroppedCrash += part.Totals.DroppedCrash
		m.Totals.DroppedDown += part.Totals.DroppedDown
		m.Totals.DroppedPart += part.Totals.DroppedPart
		m.Totals.BoxedSends += part.Totals.BoxedSends
		m.Totals.Batches += part.Totals.Batches
		m.Totals.BatchEntries += part.Totals.BatchEntries
		m.Totals.BatchesDown += part.Totals.BatchesDown
		m.Totals.BatchEntriesDown += part.Totals.BatchEntriesDown
		m.Totals.BatchesDelivered += part.Totals.BatchesDelivered
		m.Totals.BatchEntriesDelivered += part.Totals.BatchEntriesDelivered
	}
	series := func(pick func(*StreamMetrics) []int64) []int64 {
		return sumShardStreamSeries(parts, maxLen, pick)
	}
	m.Occupancy = series(func(p *StreamMetrics) []int64 { return p.Occupancy })
	m.Active = series(func(p *StreamMetrics) []int64 { return p.Active })
	m.Published = series(func(p *StreamMetrics) []int64 { return p.Published })
	m.Delivered = series(func(p *StreamMetrics) []int64 { return p.Delivered })
	m.Evicted = series(func(p *StreamMetrics) []int64 { return p.Evicted })
	m.Expired = series(func(p *StreamMetrics) []int64 { return p.Expired })
	m.Sent = series(func(p *StreamMetrics) []int64 { return p.Sent })
	m.Dropped = series(func(p *StreamMetrics) []int64 { return p.Dropped })
	m.Latency = sumShardStreamHists(parts, func(p *StreamMetrics) HistSnapshot { return p.Latency })
	return m
}

// sumShardStreamSeries is sumShardSeries over StreamMetrics parts.
func sumShardStreamSeries(parts []*StreamMetrics, maxLen int, pick func(*StreamMetrics) []int64) []int64 {
	if maxLen == 0 {
		return nil
	}
	out := make([]int64, maxLen)
	for _, part := range parts {
		s := pick(part)
		for i := 0; i < maxLen; i++ {
			switch {
			case i < len(s):
				out[i] += s[i]
			case len(s) > 0:
				out[i] += s[len(s)-1]
			}
		}
	}
	return out
}

// sumShardStreamHists is sumShardHists over StreamMetrics parts.
func sumShardStreamHists(parts []*StreamMetrics, pick func(*StreamMetrics) HistSnapshot) HistSnapshot {
	var out HistSnapshot
	for _, part := range parts {
		h := pick(part)
		if h.Counts == nil {
			continue
		}
		if out.Counts == nil {
			out.BinWidth = h.BinWidth
			out.Counts = make([]int64, len(h.Counts))
		}
		for i := range h.Counts {
			if i < len(out.Counts) {
				out.Counts[i] += h.Counts[i]
			}
		}
		out.Total += h.Total
	}
	return out
}

// Quantile returns an upper bound on the q-quantile of a fixed-bin
// histogram: the upper edge of the first bin whose cumulative count
// reaches ⌈q·Total⌉, scaled by BinWidth. Observations clamped into the
// last bin make its edge a lower bound only; zero for an empty or
// disabled histogram.
func (h HistSnapshot) Quantile(q float64) time.Duration {
	if h.Total == 0 || len(h.Counts) == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return time.Duration(i+1) * h.BinWidth
		}
	}
	return time.Duration(len(h.Counts)) * h.BinWidth
}

// Quantile is HistSnapshot.Quantile over a run-merged histogram.
func (h MergedHist) Quantile(q float64) time.Duration {
	return HistSnapshot{BinWidth: h.BinWidth, Counts: h.Counts, Total: h.Total}.Quantile(q)
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

// Merge folds one run's StreamMetrics into the aggregate; nil is a no-op
// (a skipped run).
func (g *StreamMerged) Merge(m *StreamMetrics) {
	if m == nil {
		return
	}
	if g.Runs == 0 {
		g.Tick = m.Tick
	}
	g.Runs++
	g.Truncated = g.Truncated || m.Truncated
	g.Occupancy.merge(m.Occupancy)
	g.Active.merge(m.Active)
	g.Published.merge(m.Published)
	g.Delivered.merge(m.Delivered)
	g.Evicted.merge(m.Evicted)
	g.Expired.merge(m.Expired)
	g.Sent.merge(m.Sent)
	g.Dropped.merge(m.Dropped)
	g.Latency.merge(m.Latency)
}

// StreamCurveCSVHeader is the column header WriteCurveCSV emits.
const StreamCurveCSVHeader = "label,t_ms,runs,occupancy_mean,occupancy_stddev,active_mean,published_mean,delivered_mean,evicted_mean,expired_mean,sent_mean,dropped_mean\n"

// WriteCurveCSV renders the merged streaming series as CSV, one row per
// tick, labeled with label in the first column. Emit the header once via
// StreamCurveCSVHeader, or let the first call write it with header=true.
func (g *StreamMerged) WriteCurveCSV(w io.Writer, label string, header bool) error {
	if header {
		if _, err := io.WriteString(w, StreamCurveCSVHeader); err != nil {
			return err
		}
	}
	tickMs := float64(g.Tick) / float64(time.Millisecond)
	at := func(s Series, i int) float64 {
		if i < len(s.Points) {
			return s.Points[i].Mean()
		}
		return 0
	}
	for i := range g.Occupancy.Points {
		_, err := fmt.Fprintf(w, "%s,%g,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
			label, float64(i)*tickMs, g.Occupancy.Points[i].N(),
			g.Occupancy.Points[i].Mean(), g.Occupancy.Points[i].StdDev(),
			at(g.Active, i), at(g.Published, i), at(g.Delivered, i),
			at(g.Evicted, i), at(g.Expired, i),
			at(g.Sent, i), at(g.Dropped, i))
		if err != nil {
			return err
		}
	}
	return nil
}
