package obs

import (
	"sort"

	"gossipkit/internal/sim"
)

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
	if k == 1 {
		p.self[0] = p
		p.leased = p.self[:]
		return p.leased
	}
	opts := p.opts
	opts.HopBins = -1
	for len(p.children) < k {
		p.children = append(p.children, New(opts))
	}
	p.leased = p.children[:k]
	return p.leased
}

// AdoptShards merges the finished telemetry of the probes last leased with
// ShardProbes into one whole-run Metrics that the parent's Metrics method
// returns until its next Attach. On one shard the parent observed the run
// itself and there is nothing to merge.
func (p *Probe) AdoptShards() {
	if p == nil || (len(p.leased) == 1 && p.leased[0] == p) {
		return
	}
	parts := make([]*Metrics, len(p.leased))
	for i, c := range p.leased {
		parts[i] = c.Metrics()
	}
	p.adopted = MergeShardMetrics(parts)
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
	if len(p.leased) == 0 || p.leased[0] == p {
		return []sim.QueueStats{p.queue}
	}
	qs := make([]sim.QueueStats, len(p.leased))
	for i, c := range p.leased {
		qs[i] = c.queue
	}
	return qs
}

// MergeShardMetrics merges per-shard Metrics of one sharded execution
// into the whole-run view: curves are summed elementwise (a shard that
// drained early holds its final value — its state really does stay flat
// while other shards run on), totals and histograms are summed, and
// traces are k-way merged by event time. Cumulative per-shard series are
// exact under summation because every child samples on the same tick
// grid from virtual time zero. Returns nil for no parts.
func MergeShardMetrics(parts []*Metrics) *Metrics {
	if len(parts) == 0 {
		return nil
	}
	m := &Metrics{Tick: parts[0].Tick}
	maxLen := 0
	for _, part := range parts {
		if part.End > m.End {
			m.End = part.End
		}
		m.Truncated = m.Truncated || part.Truncated
		if n := len(part.Infected); n > maxLen {
			maxLen = n
		}
		m.Totals.Sent += part.Totals.Sent
		m.Totals.Delivered += part.Totals.Delivered
		m.Totals.DroppedLoss += part.Totals.DroppedLoss
		m.Totals.DroppedCrash += part.Totals.DroppedCrash
		m.Totals.DroppedDown += part.Totals.DroppedDown
		m.Totals.DroppedPart += part.Totals.DroppedPart
		m.TraceDropped += part.TraceDropped
	}
	series := func(pick func(*Metrics) []int64) []int64 {
		return sumShardSeries(parts, maxLen, pick)
	}
	m.Infected = series(func(p *Metrics) []int64 { return p.Infected })
	m.InFlight = series(func(p *Metrics) []int64 { return p.InFlight })
	m.Sent = series(func(p *Metrics) []int64 { return p.Sent })
	m.Delivered = series(func(p *Metrics) []int64 { return p.Delivered })
	m.DroppedLoss = series(func(p *Metrics) []int64 { return p.DroppedLoss })
	m.DroppedCrash = series(func(p *Metrics) []int64 { return p.DroppedCrash })
	m.DroppedDown = series(func(p *Metrics) []int64 { return p.DroppedDown })
	m.DroppedPart = series(func(p *Metrics) []int64 { return p.DroppedPart })
	m.Latency = sumShardHists(parts, func(p *Metrics) HistSnapshot { return p.Latency })
	m.Hops = sumShardHists(parts, func(p *Metrics) HistSnapshot { return p.Hops })
	m.Fanout = sumShardHists(parts, func(p *Metrics) HistSnapshot { return p.Fanout })
	for _, part := range parts {
		m.Trace = append(m.Trace, part.Trace...)
	}
	if m.Trace != nil {
		sort.SliceStable(m.Trace, func(i, j int) bool { return m.Trace[i].At < m.Trace[j].At })
	}
	return m
}

// sumShardSeries sums one series across shards, padding shorter shards
// with their final value (empty shards contribute zero).
func sumShardSeries(parts []*Metrics, maxLen int, pick func(*Metrics) []int64) []int64 {
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

// sumShardHists sums one histogram across shards; shards with the
// collector disabled (nil Counts) are skipped, and the merged histogram
// is nil-Counts when every shard's was.
func sumShardHists(parts []*Metrics, pick func(*Metrics) HistSnapshot) HistSnapshot {
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
