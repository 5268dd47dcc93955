package obs

import (
	"math"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
)

// kindCount sizes the per-kind counter and series arrays; simnet's event
// kinds are a dense enum ending at EventDroppedDown.
const kindCount = int(simnet.EventDroppedDown) + 1

// Options selects what a Probe collects. The zero value enables the
// standard telemetry set — curves at a 1ms tick plus the three
// histograms, no ring tracing; set a field negative to disable that
// collector, positive to size it explicitly.
type Options struct {
	// CurveTick is the virtual-time sampling interval of the series
	// (infected count, in-flight gauge, per-kind counters). Zero defaults
	// to 1ms; negative disables curve sampling.
	CurveTick time.Duration
	// MaxSamples caps each run's series length; a run whose duration
	// exceeds MaxSamples·CurveTick stops sampling and sets
	// Metrics.Truncated rather than growing without bound. Zero defaults
	// to 4096.
	MaxSamples int
	// LatencyBins / LatencyBinWidth shape the first-receipt delivery-
	// latency histogram (bin i counts receipts in [i·W, (i+1)·W), clamped
	// at the last bin). Zero defaults to 64 bins of 1ms; negative
	// LatencyBins disables it.
	LatencyBins     int
	LatencyBinWidth time.Duration
	// HopBins shapes the hops-to-delivery histogram (rounds-to-delivery
	// on the round-driven protocol runtime). Zero defaults to 32;
	// negative disables it.
	HopBins int
	// FanoutBins shapes the per-emission fanout histogram. Zero defaults
	// to 33 (fanouts 0..32, clamped); negative disables it.
	FanoutBins int
	// TraceCapacity, when positive, records raw network events into a
	// preallocated ring of that many slots (oldest overwritten first) and
	// switches the run to a full tracer so per-message send times are
	// exact. Zero or negative disables ring tracing.
	TraceCapacity int
}

func (o Options) normalize() Options {
	if o.CurveTick == 0 {
		o.CurveTick = time.Millisecond
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 4096
	}
	if o.LatencyBins == 0 {
		o.LatencyBins = 64
	}
	if o.LatencyBinWidth <= 0 {
		o.LatencyBinWidth = time.Millisecond
	}
	if o.HopBins == 0 {
		o.HopBins = 32
	}
	if o.FanoutBins == 0 {
		o.FanoutBins = 33
	}
	return o
}

// Probe collects telemetry from one run at a time; reuse it across runs
// (Attach resets it) but never across goroutines. The nil *Probe is the
// off state: every method is a nil-check-only no-op, which is the whole
// zero-overhead contract — executors thread a possibly-nil probe and
// call its hooks unconditionally.
type Probe struct {
	opts Options

	net       *simnet.Network
	prev      simnet.Tracer
	delivered *int

	tick sim.Time
	next sim.Time
	cnt  [kindCount]int64

	infected  []int64
	inflight  []int64
	series    [kindCount][]int64
	truncated bool

	lat    *stats.Histogram
	hops   *stats.Histogram
	fanout *stats.Histogram
	hopOf  []int32

	ring *Ring

	end    sim.Time
	totals simnet.Stats
	queue  sim.QueueStats

	// Sharded runs (see ShardProbes / AdoptShards in shard.go): the
	// pooled child probes, the probes leased to the current run — a
	// prefix of children, or self on one shard — and the merged telemetry.
	children []*Probe
	self     [1]*Probe
	leased   []*Probe
	adopted  *Metrics
}

// New returns a probe collecting per opts. Histogram and ring buffers are
// allocated once here and pooled across Attach cycles.
func New(opts Options) *Probe {
	p := &Probe{opts: opts.normalize()}
	if p.opts.CurveTick > 0 {
		p.tick = sim.Time(p.opts.CurveTick)
	}
	if p.opts.LatencyBins > 0 {
		p.lat = stats.NewHistogram(p.opts.LatencyBins)
	}
	if p.opts.HopBins > 0 {
		p.hops = stats.NewHistogram(p.opts.HopBins)
	}
	if p.opts.FanoutBins > 0 {
		p.fanout = stats.NewHistogram(p.opts.FanoutBins)
	}
	if p.opts.TraceCapacity > 0 {
		p.ring = NewRing(p.opts.TraceCapacity)
	}
	return p
}

// Attach binds the probe to a fresh run: net is the run's network (its
// tracer seam drives curve sampling and ring recording), n the group
// size, and delivered a pointer to the run's delivered-member counter —
// the exact π(t) source, so curves agree with the run's own bookkeeping
// including out-of-band publishes. Any tracer already installed on net
// (e.g. Config.Tracer) keeps seeing every event: the probe chains it,
// at full-tracer cost. Attach resets all pooled state; call it after the
// arena lease and before the first event.
func (p *Probe) Attach(net *simnet.Network, n int, delivered *int) {
	if p == nil {
		return
	}
	p.net, p.delivered = net, delivered
	p.adopted = nil
	p.next = 0
	p.truncated = false
	p.end = 0
	p.totals = simnet.Stats{}
	p.queue = sim.QueueStats{}
	for k := range p.cnt {
		p.cnt[k] = 0
		p.series[k] = p.series[k][:0]
	}
	p.infected = p.infected[:0]
	p.inflight = p.inflight[:0]
	if p.lat != nil {
		p.lat.Reset()
	}
	if p.hops != nil {
		p.hops.Reset()
		if cap(p.hopOf) < n {
			p.hopOf = make([]int32, n)
		}
		p.hopOf = p.hopOf[:n]
		clear(p.hopOf)
	}
	if p.fanout != nil {
		p.fanout.Reset()
	}
	if p.ring != nil {
		p.ring.Reset()
	}
	p.prev = net.Tracer()
	switch {
	case p.ring != nil || p.prev != nil:
		// Exact send times (ring) or a chained caller tracer need the
		// full tracer, at slot-allocation cost.
		net.SetTracer(p.observe)
	case p.tick > 0:
		// Curves only need kinds and times: the lite tracer keeps the
		// slot-free zero-allocation send path.
		net.SetTracerLite(p.observe)
	}
}

// observe is the probe's tracer: it advances the curve sampler to the
// event's time (filling every elapsed tick bin with the pre-event state),
// counts the event, and feeds the ring and any chained tracer. Event
// times arrive in nondecreasing order (the tracer runs on the kernel
// goroutine at kernel-now), so sampling is single-pass.
func (p *Probe) observe(e simnet.Event) {
	if p.tick > 0 {
		p.advanceTo(e.At)
	}
	if int(e.Kind) < kindCount {
		p.cnt[e.Kind]++
	}
	if p.ring != nil {
		p.ring.push(e)
	}
	if p.prev != nil {
		p.prev(e)
	}
}

func (p *Probe) advanceTo(t sim.Time) {
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
func (p *Probe) sample() bool {
	if len(p.infected) >= p.opts.MaxSamples {
		p.truncated = true
		return false
	}
	p.infected = append(p.infected, int64(*p.delivered))
	p.inflight = append(p.inflight, p.cnt[simnet.EventSent]-
		p.cnt[simnet.EventDelivered]-
		p.cnt[simnet.EventDroppedLoss]-
		p.cnt[simnet.EventDroppedCrash]-
		p.cnt[simnet.EventDroppedPartition])
	for k := range p.series {
		p.series[k] = append(p.series[k], p.cnt[k])
	}
	return true
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
	if p.lat != nil {
		p.lat.Add(int(now.Duration() / p.opts.LatencyBinWidth))
	}
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
	if p.lat != nil {
		p.lat.Add(int(now.Duration() / p.opts.LatencyBinWidth))
	}
	if p.hops != nil {
		p.hops.Add(round)
	}
}

// ObserveSeed records that id holds the multicast before the clock starts
// (the t=0 source bootstrap): hop zero, no latency sample — mirroring the
// executors, which take no DeliveryLatency sample for the source either.
func (p *Probe) ObserveSeed(id int) {
	if p == nil {
		return
	}
	if p.hops != nil {
		p.hopOf[id] = 0
	}
}

// ObserveFanout records one gossip emission's target count.
func (p *Probe) ObserveFanout(k int) {
	if p == nil {
		return
	}
	if p.fanout != nil {
		p.fanout.Add(k)
	}
}

// Finish seals the run's telemetry at virtual time now (the executor's
// kernel time after the drain): it fills the remaining tick bins and
// appends one trailing sample so the final plateau is always present,
// then snapshots the network's final counters and its kernel's queue
// statistics.
func (p *Probe) Finish(now sim.Time) {
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
		p.queue = p.net.Kernel().QueueStats()
	}
}

// HistSnapshot is one frozen fixed-bin histogram.
type HistSnapshot struct {
	// BinWidth is the value width of one bin — a duration for the
	// latency histogram, zero for unit-binned hop and fanout histograms.
	BinWidth time.Duration
	// Counts holds the per-bin observation counts (out-of-range values
	// were clamped to the edge bins).
	Counts []int64
	// Total is the number of observations.
	Total int64
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
	// Truncated reports that the run outlived MaxSamples·Tick and the
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
	// Latency, Hops and Fanout are the run's histograms; nil Counts when
	// that collector was disabled.
	Latency HistSnapshot
	Hops    HistSnapshot
	Fanout  HistSnapshot
	// Trace holds the ring-traced events oldest-first (nil when ring
	// tracing was off); TraceDropped counts events the ring overwrote.
	Trace        []simnet.Event
	TraceDropped int64
}

// Metrics snapshots the probe's state into a standalone Metrics (the only
// allocating step of a probed run; call it once, after Finish).
func (p *Probe) Metrics() *Metrics {
	if p == nil {
		return nil
	}
	if p.adopted != nil {
		return p.adopted
	}
	m := &Metrics{
		Tick:         p.opts.CurveTick,
		End:          p.end.Duration(),
		Truncated:    p.truncated,
		Infected:     append([]int64(nil), p.infected...),
		InFlight:     append([]int64(nil), p.inflight...),
		Sent:         append([]int64(nil), p.series[simnet.EventSent]...),
		Delivered:    append([]int64(nil), p.series[simnet.EventDelivered]...),
		DroppedLoss:  append([]int64(nil), p.series[simnet.EventDroppedLoss]...),
		DroppedCrash: append([]int64(nil), p.series[simnet.EventDroppedCrash]...),
		DroppedDown:  append([]int64(nil), p.series[simnet.EventDroppedDown]...),
		DroppedPart:  append([]int64(nil), p.series[simnet.EventDroppedPartition]...),
		Totals:       p.totals,
	}
	if p.lat != nil {
		m.Latency = HistSnapshot{BinWidth: p.opts.LatencyBinWidth, Counts: p.lat.Counts(), Total: p.lat.Total()}
	}
	if p.hops != nil {
		m.Hops = HistSnapshot{Counts: p.hops.Counts(), Total: p.hops.Total()}
	}
	if p.fanout != nil {
		m.Fanout = HistSnapshot{Counts: p.fanout.Counts(), Total: p.fanout.Total()}
	}
	if p.ring != nil {
		m.Trace = p.ring.Events()
		m.TraceDropped = p.ring.Dropped()
	}
	return m
}
