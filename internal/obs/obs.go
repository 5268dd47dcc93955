package obs

import (
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
)

// Probe is the single-rumor front end of the sampler: its gauge is the
// infected count π(t) beside the in-flight and per-kind counters, and it
// adds the hop and fanout histograms and the optional event ring. It
// collects telemetry from one run at a time; reuse it across runs (Attach
// resets it) but never across goroutines. The nil *Probe is the off
// state: every method is a nil-check-only no-op, which is the whole
// zero-overhead contract — executors thread a possibly-nil probe and
// call its hooks unconditionally.
type Probe struct {
	sampler
	delivered *int

	// hops is nil on the child probes of a multi-shard run: a receiving
	// shard cannot know a cross-shard sender's hop count.
	hops   *stats.Histogram
	hopOf  []int32
	fanout *stats.Histogram

	shards shardPool[*Probe, *Metrics]
}

// New returns a probe collecting per opts. Column, histogram and ring
// buffers are allocated once here and pooled across Attach cycles.
func New(opts Options) *Probe {
	p := &Probe{hops: stats.NewHistogram(hopBins), fanout: stats.NewHistogram(fanoutBins)}
	p.init(opts, p, len(new(Metrics).columns().series))
	p.shards.init(p)
	if p.opts.TraceCapacity > 0 {
		p.ring = NewRing(p.opts.TraceCapacity)
	}
	return p
}

// Attach binds the probe to a fresh run: net is the run's network (its
// tracer seam drives curve sampling and ring recording), n the group
// size, and delivered a pointer to the run's delivered-member counter —
// the exact π(t) source, so curves agree with the run's own bookkeeping
// including out-of-band publishes. The ring (Options.TraceCapacity) is
// the one way to see a run's raw events, and each probe has its own.
// Attach resets all pooled state; call it after the arena lease and
// before the first event.
func (p *Probe) Attach(net *simnet.Network, n int, delivered *int) {
	if p == nil {
		return
	}
	p.delivered = delivered
	p.shards.adopted = nil
	if p.hops != nil {
		p.hops.Reset()
		if cap(p.hopOf) < n {
			p.hopOf = make([]int32, n)
		}
		p.hopOf = p.hopOf[:n]
		clear(p.hopOf)
	}
	p.fanout.Reset()
	p.attach(net)
}

// fill is the probe's gauge; the order is Metrics.columns().series.
func (p *Probe) fill(row []int64) {
	c := &p.cnt
	row[0] = int64(*p.delivered)
	row[1] = c[simnet.EventSent] - c[simnet.EventDelivered] - c[simnet.EventDroppedLoss] -
		c[simnet.EventDroppedCrash] - c[simnet.EventDroppedPartition]
	row[2], row[3] = c[simnet.EventSent], c[simnet.EventDelivered]
	row[4], row[5] = c[simnet.EventDroppedLoss], c[simnet.EventDroppedCrash]
	row[6], row[7] = c[simnet.EventDroppedDown], c[simnet.EventDroppedPartition]
}

// ObserveFirstReceipt records a member's first receipt of the multicast:
// id received at virtual time now from member `from` (-1 for an
// out-of-band receipt, e.g. an additional publisher). It fills the
// latency histogram with the first-receipt time and the hop histogram
// with 1 + the sender's own hop count.
func (p *Probe) ObserveFirstReceipt(id, from int, now sim.Time) {
	if p == nil {
		return
	}
	p.observeLatency(now)
	if p.hops != nil {
		var h int32
		if from >= 0 {
			h = p.hopOf[from] + 1
		}
		p.hopOf[id] = h
		p.hops.Add(int(h))
	}
}

// ObserveFirstReceiptRound is the round-driven runtime's variant of
// ObserveFirstReceipt: the hop histogram bins rounds-to-delivery (the
// number of round ticks fired when id first received) instead of a hop
// chain, which digest/NACK indirection would obscure anyway.
func (p *Probe) ObserveFirstReceiptRound(id, round int, now sim.Time) {
	if p == nil {
		return
	}
	p.observeLatency(now)
	if p.hops != nil {
		p.hops.Add(round)
	}
}

// ObserveSeed records that id holds the multicast before the clock starts
// (the t=0 source bootstrap): hop zero, no latency sample — mirroring the
// executors, which take no DeliveryLatency sample for the source either.
func (p *Probe) ObserveSeed(id int) {
	if p != nil && p.hops != nil {
		p.hopOf[id] = 0
	}
}

// ObserveFanout records one gossip emission's target count.
func (p *Probe) ObserveFanout(k int) {
	if p != nil {
		p.fanout.Add(k)
	}
}

// Finish seals the run's telemetry at virtual time now, the executor's
// kernel time after the drain; sampler.finish says what that captures.
func (p *Probe) Finish(now sim.Time) {
	if p != nil {
		p.finish(now)
	}
}

// Metrics is the frozen telemetry of one run, snapshot by
// (*Probe).Metrics after Finish. Series index i holds the state at
// virtual time i·Tick — more precisely, just before the first event at or
// after that boundary — and the last point holds the drained final state.
type Metrics struct {
	// Tick is the curve sampling interval; End the run's final virtual
	// time.
	Tick time.Duration
	End  time.Duration
	// Truncated reports that the run outlived 4096 ticks and the
	// series cover only the prefix.
	Truncated bool
	// Infected is π(t)·n: the number of members holding the multicast.
	Infected []int64
	// InFlight is the number of accepted messages still airborne.
	InFlight []int64
	// Sent, Delivered and the Dropped* series are cumulative per-kind
	// event counts.
	Sent, Delivered                                     []int64
	DroppedLoss, DroppedCrash, DroppedDown, DroppedPart []int64
	// Totals is the network's final counter snapshot (authoritative even
	// when curves are off or truncated).
	Totals simnet.Stats
	// Latency, Hops and Fanout are the run's histograms; Hops has nil
	// Counts on a multi-shard run, which collects none.
	Latency HistSnapshot
	Hops    HistSnapshot
	Fanout  HistSnapshot
	// Trace holds the ring-traced events oldest-first (nil when ring
	// tracing was off); TraceDropped counts events the ring overwrote.
	Trace        []simnet.Event
	TraceDropped int64
}

func (m *Metrics) columns() columns {
	return columns{
		tick: &m.Tick, end: &m.End, truncated: &m.Truncated, totals: &m.Totals,
		series: []*[]int64{&m.Infected, &m.InFlight, &m.Sent, &m.Delivered,
			&m.DroppedLoss, &m.DroppedCrash, &m.DroppedDown, &m.DroppedPart},
		hists: []*HistSnapshot{&m.Latency, &m.Hops, &m.Fanout},
	}
}

// Metrics snapshots the probe's state into a standalone Metrics (the only
// allocating step of a probed run; call it once, after Finish). After
// AdoptShards it returns the merged whole-run view instead.
func (p *Probe) Metrics() *Metrics {
	if p == nil {
		return nil
	}
	if p.shards.adopted != nil {
		return p.shards.adopted
	}
	m := &Metrics{Fanout: freeze(p.fanout, 0)}
	p.snapshot(m.columns())
	if p.hops != nil {
		m.Hops = freeze(p.hops, 0)
	}
	if p.ring != nil {
		m.Trace = p.ring.Events()
		m.TraceDropped = p.ring.Dropped()
	}
	return m
}
