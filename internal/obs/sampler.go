package obs

import (
	"math"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
)

// kindCount sizes the per-kind counter array; simnet's event kinds are a
// dense enum ending at EventDroppedDown.
const kindCount = int(simnet.EventDroppedDown) + 1

// The histogram shapes. Bin i of the latency histogram counts values in
// [i·W, (i+1)·W); hop and fanout bins are unit-wide (fanouts 0..32); all
// three clamp out-of-range values into their edge bins.
const (
	latencyBins     = 64
	latencyBinWidth = time.Millisecond
	hopBins         = 32
	fanoutBins      = 33
)

// maxSamples caps each run's series length: a run that outlives
// maxSamples·CurveTick stops sampling and sets Truncated rather than
// growing without bound.
const maxSamples = 4096

// Options selects what a probe collects. The zero value enables the
// standard telemetry set — curves at a 1ms tick plus the histograms, no
// ring tracing.
type Options struct {
	// CurveTick is the virtual-time sampling interval of the series.
	// Zero defaults to 1ms; negative disables curve sampling.
	CurveTick time.Duration
	// TraceCapacity, when positive, records raw network events into a
	// preallocated ring of that many slots (oldest overwritten first) and
	// switches the run to a full tracer so per-message send times are
	// exact. Zero or negative disables ring tracing; StreamProbe ignores
	// it. Each probe (one per worker, plus one per extra shard) allocates
	// its own ring of 48-byte events, so the facade rejects a capacity
	// above 2²⁰ (48 MiB per ring) as invalid rather than let it exhaust
	// memory.
	TraceCapacity int
}

// gauge is a front end's side of the column table: fill writes the
// current value of each of its columns into row, in the order its
// snapshot type lists them in columns().series.
type gauge interface {
	fill(row []int64)
}

// sampler is the one instrument under both probes. It owns the network's
// tracer seam, the per-kind event counters, the tick clock, the column
// table — one row per tick, read from the front end's gauge — the latency
// histogram, and the end-of-run capture. Probe and StreamProbe embed it
// and add only the quantities that are theirs.
type sampler struct {
	opts  Options
	tick  sim.Time // zero when curve sampling is off
	front gauge

	net  *simnet.Network
	ring *Ring // flight recorder; nil unless the front end asked for one

	next      sim.Time
	cnt       [kindCount]int64
	row       []int64   // one tick's values, in column order
	cols      [][]int64 // the column table
	truncated bool

	lat *stats.Histogram

	end    sim.Time
	totals simnet.Stats
	queue  sim.QueueStats
}

// init sizes the sampler for a front end with width columns, defaulting
// zero options. The column and histogram buffers are allocated once here
// and pooled across attach cycles.
func (s *sampler) init(opts Options, front gauge, width int) {
	if opts.CurveTick == 0 {
		opts.CurveTick = time.Millisecond
	}
	s.opts, s.front = opts, front
	s.tick = max(0, sim.Time(opts.CurveTick))
	s.row = make([]int64, width)
	s.cols = make([][]int64, width)
	s.lat = stats.NewHistogram(latencyBins)
}

// attach binds the sampler to a fresh run on net, resetting all pooled
// state, and installs its tracer on net.
func (s *sampler) attach(net *simnet.Network) {
	s.net = net
	s.next, s.truncated, s.end = 0, false, 0
	s.totals, s.queue = simnet.Stats{}, sim.QueueStats{}
	s.cnt = [kindCount]int64{}
	for i := range s.cols {
		s.cols[i] = s.cols[i][:0]
	}
	s.lat.Reset()
	if s.ring != nil {
		s.ring.Reset()
	}
	switch {
	case s.ring != nil:
		// Exact send times need the full tracer, at slot-allocation cost.
		net.SetTracer(s.observe)
	case s.tick > 0:
		// Curves only need kinds and times: the lite tracer keeps the
		// slot-free zero-allocation send path.
		net.SetTracerLite(s.observe)
	}
}

// observe is the sampler's tracer: it advances the tick clock to the
// event's time (filling every elapsed tick bin with the pre-event state),
// counts the event, and feeds the ring. Event times arrive in
// nondecreasing order (the tracer runs on the kernel goroutine at
// kernel-now), so sampling is single-pass.
func (s *sampler) observe(e simnet.Event) {
	s.advanceTo(e.At)
	if int(e.Kind) < kindCount {
		s.cnt[e.Kind]++
	}
	if s.ring != nil {
		s.ring.push(e)
	}
}

// advanceTo samples every tick boundary at or before t that has not been
// sampled yet. Front-end hooks that change a gauge outside the tracer
// (publishes and expiries fire from kernel events, not network events)
// call it first, or their tick bins would be sampled late.
func (s *sampler) advanceTo(t sim.Time) {
	if s.tick <= 0 {
		return
	}
	for s.next <= t {
		if !s.sample() {
			s.next = sim.Time(math.MaxInt64)
			return
		}
		s.next += s.tick
	}
}

// sample appends one row to the column table from the current state; it
// reports false (and marks truncation) once maxSamples is reached.
func (s *sampler) sample() bool {
	if len(s.cols[0]) >= maxSamples {
		s.truncated = true
		return false
	}
	s.front.fill(s.row)
	for i, v := range s.row {
		s.cols[i] = append(s.cols[i], v)
	}
	return true
}

// observeLatency bins one delivery latency.
func (s *sampler) observeLatency(d sim.Time) {
	s.lat.Add(int(d.Duration() / latencyBinWidth))
}

// finish seals the run's telemetry at virtual time now (the executor's
// kernel time after the drain): it fills the remaining tick bins and
// appends one trailing row so the final plateau is always present, then
// snapshots the network's final counters and its kernel's queue
// statistics.
func (s *sampler) finish(now sim.Time) {
	if s.tick > 0 {
		s.advanceTo(now)
		s.sample()
	}
	s.end = now
	if s.net != nil {
		s.totals = s.net.Stats()
		s.queue = s.net.Kernel().QueueStats()
	}
}

// snapshot copies the sampler's share of a run — header, column table,
// totals, latency histogram — into the snapshot struct behind c (the only
// allocating step of a probed run).
func (s *sampler) snapshot(c columns) {
	*c.tick, *c.end, *c.truncated = s.opts.CurveTick, s.end.Duration(), s.truncated
	for i, col := range s.cols {
		*c.series[i] = append([]int64(nil), col...)
	}
	*c.totals = s.totals
	*c.hists[0] = freeze(s.lat, latencyBinWidth)
}

// base returns the sampler itself: promoted through the embedding, it is
// how the shard pool reaches the instrument under either front end.
func (s *sampler) base() *sampler { return s }

// columns is the reducible content of one run snapshot (Metrics or
// StreamMetrics), as pointers into it, so that the sampler's snapshot and
// the shard reductions are each written once and read or fill either
// struct. series and hists fix the column order; hists[0] is the latency
// histogram.
type columns struct {
	tick, end *time.Duration
	truncated *bool
	series    []*[]int64
	totals    *simnet.Stats
	hists     []*HistSnapshot
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

func freeze(h *stats.Histogram, width time.Duration) HistSnapshot {
	return HistSnapshot{BinWidth: width, Counts: h.Counts(), Total: h.Total()}
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
