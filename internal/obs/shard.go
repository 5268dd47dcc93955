package obs

import (
	"sort"

	"gossipkit/internal/sim"
)

// frontEnd is what the shard pool needs of a probe front end: P is *Probe
// or *StreamProbe and M its snapshot type.
type frontEnd[P, M any] interface {
	Metrics() M
	base() *sampler
	newChild() P
}

// shardPool leases the probes of a k-shard execution and holds their
// merged telemetry. On one shard the parent probe observes the run
// itself — a fresh probe starts out leased to itself — and on more, child
// probes pooled on the parent across runs each observe one shard kernel.
type shardPool[P frontEnd[P, M], M any] struct {
	self     [1]P // the parent
	children []P
	leased   []P // the current run's probes: self[:], or children[:k]
	adopted  M   // the merged whole-run view, until the parent's next Attach
}

func (sp *shardPool[P, M]) init(parent P) {
	sp.self[0] = parent
	sp.leased = sp.self[:]
}

func (sp *shardPool[P, M]) lease(k int) []P {
	sp.leased = sp.self[:]
	if k > 1 {
		for len(sp.children) < k {
			sp.children = append(sp.children, sp.self[0].newChild())
		}
		sp.leased = sp.children[:k]
	}
	return sp.leased
}

// adopt merges the finished telemetry of the probes last leased into the
// whole-run view. On one shard the parent observed the run itself and
// there is nothing to merge.
func (sp *shardPool[P, M]) adopt(merge func([]M) M) {
	if len(sp.leased) < 2 {
		return
	}
	parts := make([]M, len(sp.leased))
	for i, c := range sp.leased {
		parts[i] = c.Metrics()
	}
	sp.adopted = merge(parts)
}

// queues returns each leased probe's queue record, in shard order.
func (sp *shardPool[P, M]) queues() []sim.QueueStats {
	qs := make([]sim.QueueStats, len(sp.leased))
	for i, c := range sp.leased {
		qs[i] = c.base().queue
	}
	return qs
}

// ShardProbes leases the k probes of a k-shard execution — one per shard
// kernel, each to be attached to its shard's network and delivered
// counter. On one shard that is the parent itself. For k > 1 they are
// child probes pooled on the parent, sharing its options except hop
// collection: a receiving shard cannot know a cross-shard sender's hop
// count, so hop histograms exist only on one-shard runs. Call AdoptShards
// after the run so the parent's Metrics reflects the merged telemetry.
func (p *Probe) ShardProbes(k int) []*Probe {
	if p == nil {
		return nil
	}
	return p.shards.lease(k)
}

func (p *Probe) newChild() *Probe {
	c := New(p.opts)
	c.hops = nil
	return c
}

// AdoptShards merges the finished telemetry of the probes last leased with
// ShardProbes into one whole-run Metrics that the parent's Metrics method
// returns until its next Attach. On one shard the parent observed the run
// itself and there is nothing to merge.
func (p *Probe) AdoptShards() {
	if p != nil {
		p.shards.adopt(MergeShardMetrics)
	}
}

// Queues returns each shard kernel's own account of its event queue over
// the run just finished, in shard order (one entry on one shard): which
// discipline ran, the geometry the hint gave it, how much it held and
// retains, and how often it had to grow, rebase or fall back on its
// overflow heap. It sits beside Metrics rather than in it because the
// figures describe the arena the run was given — a warm kernel retains
// more than a fresh one — where Metrics is a pure function of the run.
func (p *Probe) Queues() []sim.QueueStats {
	if p == nil {
		return nil
	}
	return p.shards.queues()
}

// MergeShardMetrics merges per-shard Metrics of one sharded execution
// into the whole-run view: the columns reduce as mergeShards describes,
// and traces are k-way merged by event time. Returns nil for no parts.
func MergeShardMetrics(parts []*Metrics) *Metrics {
	m := mergeShards(parts)
	for _, part := range parts {
		m.TraceDropped += part.TraceDropped
		m.Trace = append(m.Trace, part.Trace...)
	}
	if m != nil && m.Trace != nil { // m is nil only for no parts
		sort.SliceStable(m.Trace, func(i, j int) bool { return m.Trace[i].At < m.Trace[j].At })
	}
	return m
}

// mergeShards reduces the per-shard snapshots of one sharded execution
// column by column: curves are summed elementwise (a shard that drained
// early holds its final value — its state really does stay flat while
// other shards run on; a gauge only the lead shard maintains passes
// through), totals and histograms are summed (a histogram no shard
// collected keeps nil Counts). Cumulative per-shard series are exact
// under summation because every child samples on the same tick grid from
// virtual time zero. Returns nil for no parts.
func mergeShards[T any, M interface {
	*T
	columns() columns
}](parts []M) M {
	if len(parts) == 0 {
		return nil
	}
	m := M(new(T))
	dst := m.columns()
	srcs := make([]columns, len(parts))
	maxLen := 0
	for i, part := range parts {
		c := part.columns()
		srcs[i] = c
		*dst.end = max(*dst.end, *c.end)
		*dst.truncated = *dst.truncated || *c.truncated
		maxLen = max(maxLen, len(*c.series[0]))
		dst.totals.Add(*c.totals)
	}
	*dst.tick = *srcs[0].tick
	for i := range dst.series {
		*dst.series[i] = sumShardSeries(srcs, i, maxLen)
	}
	for i, h := range dst.hists {
		var sum MergedHist
		for _, c := range srcs {
			sum.merge(*c.hists[i])
		}
		*h = HistSnapshot(sum)
	}
	return m
}

// sumShardSeries sums series i across shards, padding shorter shards
// with their final value (empty shards contribute zero).
func sumShardSeries(parts []columns, i, maxLen int) []int64 {
	if maxLen == 0 {
		return nil
	}
	out := make([]int64, maxLen)
	for _, part := range parts {
		s := *part.series[i]
		if len(s) == 0 {
			continue
		}
		for j := range out {
			out[j] += s[min(j, len(s)-1)]
		}
	}
	return out
}
