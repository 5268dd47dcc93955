package simnet

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"gossipkit/internal/bitset"
	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// NodeID identifies a node in the network, 0..N-1.
type NodeID int

// Message is a network datagram. Tag is a small protocol-defined message
// kind (0 for plain Send); multi-message-type protocols — the baseline
// runtime's gossip pushes, digests, NACKs, and pull replies — dispatch on
// it without boxing a payload (see SendTag).
type Message struct {
	From    NodeID
	To      NodeID
	Tag     int32
	Payload any
}

// Handler consumes a delivered message at simulated time now.
type Handler func(now sim.Time, msg Message)

// LatencyModel draws the one-way delay for a message.
type LatencyModel interface {
	Latency(r *xrand.RNG, from, to NodeID) time.Duration
}

// LatencyBounder is optionally implemented by latency models whose draws
// never exceed a known bound. A network whose model reports a positive
// bound switches the kernel's event queue to the calendar discipline sized
// for that band (sim.Kernel.SetBoundedDelayHint) — the scale lever that
// makes n=10⁷ executions practical. The bound is a performance hint only:
// exceeding it (e.g. after a mid-run SetLatency swap to a heavier model)
// costs throughput, never correctness.
type LatencyBounder interface {
	// LatencyBound returns the maximum delay the model can draw, and
	// whether such a bound exists.
	LatencyBound() (time.Duration, bool)
}

// LatencyFloorer is optionally implemented by latency models whose draws
// never fall below a known minimum. A positive floor is the lookahead
// window of the conservative-PDES sharded runtime: events less than the
// floor apart on different shards cannot influence each other, so shard
// kernels may advance that far in parallel. Models without a positive
// floor keep executions on one shard (core.EffectiveShards resolves that
// rather than guessing a window).
type LatencyFloorer interface {
	// LatencyFloor returns the minimum delay the model can draw, and
	// whether such a floor exists.
	LatencyFloor() (time.Duration, bool)
}

// LossModel decides whether a message is dropped in transit. The set is
// closed and every model an immutable value: the run keeps the state a
// bursty model needs, two bits per sender, and passes it in.
type LossModel interface {
	drop(r *xrand.RNG, burst *bitset.Bits, from NodeID) bool
}

// ---------------------------------------------------------------------------
// Latency models

// ConstantLatency delays every message by D.
type ConstantLatency struct{ D time.Duration }

// Latency implements LatencyModel.
func (c ConstantLatency) Latency(*xrand.RNG, NodeID, NodeID) time.Duration { return c.D }

// LatencyBound implements LatencyBounder.
func (c ConstantLatency) LatencyBound() (time.Duration, bool) { return c.D, true }

// LatencyFloor implements LatencyFloorer.
func (c ConstantLatency) LatencyFloor() (time.Duration, bool) { return c.D, true }

// UniformLatency draws delays uniformly from [Lo, Hi].
type UniformLatency struct{ Lo, Hi time.Duration }

// Latency implements LatencyModel.
func (u UniformLatency) Latency(r *xrand.RNG, _, _ NodeID) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(r.Uint64n(uint64(u.Hi-u.Lo)+1))
}

// LatencyBound implements LatencyBounder.
func (u UniformLatency) LatencyBound() (time.Duration, bool) {
	if u.Hi <= u.Lo {
		return u.Lo, true
	}
	return u.Hi, true
}

// LatencyFloor implements LatencyFloorer.
func (u UniformLatency) LatencyFloor() (time.Duration, bool) { return u.Lo, true }

// ExponentialLatency draws delays from Exp(mean) shifted by Floor, a common
// WAN model (propagation floor plus queueing tail).
type ExponentialLatency struct {
	Floor time.Duration
	Mean  time.Duration // mean of the exponential part
}

// Latency implements LatencyModel.
func (e ExponentialLatency) Latency(r *xrand.RNG, _, _ NodeID) time.Duration {
	return e.Floor + time.Duration(r.ExpFloat64()*float64(e.Mean))
}

// LatencyFloor implements LatencyFloorer.
func (e ExponentialLatency) LatencyFloor() (time.Duration, bool) { return e.Floor, true }

// ---------------------------------------------------------------------------
// Loss models

// NoLoss never drops messages.
type NoLoss struct{}

func (NoLoss) drop(*xrand.RNG, *bitset.Bits, NodeID) bool { return false }

// BernoulliLoss drops each message independently with probability P.
type BernoulliLoss struct{ P float64 }

func (b BernoulliLoss) drop(r *xrand.RNG, _ *bitset.Bits, _ NodeID) bool { return r.Bool(b.P) }

// GilbertElliott is the classic two-state bursty loss model, one chain
// per sender: member u's chain is Good (loss PGood) or Bad (loss PBad) and
// moves with probabilities PG2B and PB2G on u's own sends only, drawing
// from the stream u's loss comes from. It starts at u's first send from
// its stationary law, Bad with π_B = PG2B/(PG2B+PB2G) (Good if both are 0),
// so u's long-run loss rate is π_B·PBad + (1−π_B)·PGood. The Network holds
// the chains, so no result depends on the shard count.
type GilbertElliott struct {
	PG2B, PB2G  float64
	PGood, PBad float64
}

// NewGilbertElliott returns a Gilbert–Elliott model; it panics on a
// probability outside [0, 1].
func NewGilbertElliott(pG2B, pB2G, pGood, pBad float64) GilbertElliott {
	for _, p := range []float64{pG2B, pB2G, pGood, pBad} {
		if !(p >= 0 && p <= 1) { // NaN fails every comparison
			panic(fmt.Sprintf("simnet: probability %g outside [0,1]", p))
		}
	}
	return GilbertElliott{PG2B: pG2B, PB2G: pB2G, PGood: pGood, PBad: pBad}
}

// drop advances from's chain (bit 2·from: started, 2·from+1: Bad) and
// draws the message's loss in the state it lands in.
func (g GilbertElliott) drop(r *xrand.RNG, burst *bitset.Bits, from NodeID) bool {
	started, badBit := 2*int(from), 2*int(from)+1
	var bad bool
	switch {
	case !burst.Get(started):
		burst.Set(started)
		if t := g.PG2B + g.PB2G; t > 0 {
			bad = r.Bool(g.PG2B / t)
		}
	case burst.Get(badBit):
		bad = !r.Bool(g.PB2G)
	default:
		bad = r.Bool(g.PG2B)
	}
	if bad {
		burst.Set(badBit)
		return r.Bool(g.PBad)
	}
	burst.Unset(badBit)
	return r.Bool(g.PGood)
}

// ---------------------------------------------------------------------------
// Network

// Stats counts network-level outcomes. The fields tagged
// golden:"accounting" are bookkeeping about how messages travelled; the
// goldens pin them apart from the outcomes (see internal/golden).
type Stats struct {
	Sent         int64 // Send calls accepted from live nodes
	Delivered    int64 // messages handed to a handler
	DroppedLoss  int64 // lost in transit
	DroppedCrash int64 // destination was crashed (or had no handler) at delivery
	DroppedDown  int64 // discarded at send time: the sender was down (never in Sent)
	DroppedPart  int64 // blocked by a partition
	// BoxedSends counts payload-free messages that fell off the slot-free
	// event-record encoding into a pooled 40-byte parked slot: the tag did
	// not fit the bits the group's ids leave free (see SendTag), or a full
	// tracer was watching. Boxed sends stay allocation-free in the steady
	// state (slots are recycled) but each keeps its slot beside its 16-byte
	// event record while airborne, so workloads whose tags outgrow the
	// packed band watch this counter instead of discovering the shift in a
	// memory profile.
	// It is bookkeeping about Sent messages, not an outcome: boxed sends
	// are already included in Sent and resolve into Delivered or a drop
	// counter like any other.
	BoxedSends int64 `golden:"accounting"`
	// Settled counts the sends SendBefore resolved at send time: accepted,
	// past loss and already counted in Delivered or DroppedCrash, each one
	// delivery event the kernel did not queue. Like BoxedSends it is
	// bookkeeping about how Sent messages travelled, not an outcome.
	Settled int64 `golden:"accounting"`

	// Batch accounting. A SendBatch call is one wire message — counted once
	// in Sent / Delivered / the drop counters and once in InFlight, exactly
	// like a SendTag — but it carries many id entries, so entry-level
	// conservation (what the streaming ledger reconciles) needs the payload
	// sizes alongside the wire counts. Batches/BatchEntries count accepted
	// batches (subsets of Sent); BatchesDown/BatchEntriesDown send-time
	// discards from down senders (subsets of DroppedDown);
	// BatchesDelivered/BatchEntriesDelivered batches handed to the batch
	// handler (subsets of Delivered). Entries lost in transit are the
	// quiescent difference SentEntries() − DeliveredEntries().
	Batches               int64 `golden:"accounting"`
	BatchEntries          int64 `golden:"accounting"`
	BatchesDown           int64 `golden:"accounting"`
	BatchEntriesDown      int64 `golden:"accounting"`
	BatchesDelivered      int64 `golden:"accounting"`
	BatchEntriesDelivered int64 `golden:"accounting"`
}

// Add accumulates o into s field by field — the one place the counters
// are summed, so a per-shard reduction cannot forget a field added later.
func (s *Stats) Add(o Stats) {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.DroppedLoss += o.DroppedLoss
	s.DroppedCrash += o.DroppedCrash
	s.DroppedDown += o.DroppedDown
	s.DroppedPart += o.DroppedPart
	s.BoxedSends += o.BoxedSends
	s.Settled += o.Settled
	s.Batches += o.Batches
	s.BatchEntries += o.BatchEntries
	s.BatchesDown += o.BatchesDown
	s.BatchEntriesDown += o.BatchEntriesDown
	s.BatchesDelivered += o.BatchesDelivered
	s.BatchEntriesDelivered += o.BatchEntriesDelivered
}

// SentEntries returns accepted sends in id-entry units: every non-batch
// message counts 1 and every batch counts its id-slab length. This is the
// send-side term of the streaming ledger's entry conservation; for runs
// without batches it equals Sent.
func (s Stats) SentEntries() int64 { return s.Sent - s.Batches + s.BatchEntries }

// DeliveredEntries returns deliveries in id-entry units (see SentEntries);
// without batches it equals Delivered.
func (s Stats) DeliveredEntries() int64 {
	return s.Delivered - s.BatchesDelivered + s.BatchEntriesDelivered
}

// DownEntries returns send-time down-sender discards in id-entry units
// (see SentEntries); without batches it equals DroppedDown.
func (s Stats) DownEntries() int64 { return s.DroppedDown - s.BatchesDown + s.BatchEntriesDown }

// InFlight returns the number of accepted messages still in transit: sent
// but neither delivered nor dropped. Round-driven protocols use it to
// distinguish "no progress because the spread died" from "no progress yet
// because messages are still airborne" before declaring quiescence. Every
// term is an outcome of an accepted (Sent-counted) message — send-time
// discards from down senders live in DroppedDown precisely so they cannot
// push this below zero.
func (s Stats) InFlight() int64 {
	return s.Sent - s.Delivered - s.DroppedLoss - s.DroppedCrash - s.DroppedPart
}

// Config parameterizes a Network. Zero values mean: zero latency, no loss.
type Config struct {
	Latency LatencyModel
	Loss    LossModel
}

// RoundInterval resolves the gossip round tick of a round-driven front end
// (the protocol runtime, the stream engine) over this network: explicit
// when positive; otherwise the latency model's bound when it has one
// (LatencyBounder), so round r's messages land before round r+1 fires;
// 20ms for unbounded models and 1ms with no model at all.
func (c Config) RoundInterval(explicit time.Duration) time.Duration {
	if explicit > 0 {
		return explicit
	}
	if c.Latency == nil {
		return time.Millisecond
	}
	if b, ok := c.Latency.(LatencyBounder); ok {
		if d, bounded := b.LatencyBound(); bounded && d > 0 {
			return d
		}
	}
	return 20 * time.Millisecond
}

// inflight is the pooled parked slot of one message in transit that does
// not pack into its event record: a payload, a batch, a tag past the packed
// band, or any payload-free message under a full tracer (which needs the
// exact SentAt). The destination rides in the event record itself (its
// node word); the slot holds the rest, the send time included. Slots are
// recycled through a free list, so the steady-state send→deliver path
// allocates nothing. slab is the index of an id-slab for batch messages
// (-1 otherwise), leased at send time and released when the batch resolves.
type inflight struct {
	from    NodeID
	sentAt  sim.Time
	tag     int32
	slab    int32
	payload any
}

// Network is a simulated message-passing network over n nodes.
// It must be driven from the kernel's goroutine.
type Network struct {
	kernel    *sim.Kernel
	rng       *xrand.RNG // loss draws
	latRng    *xrand.RNG // latency draws; rng unless DrawFrom split them
	n         int
	latency   LatencyModel
	loss      LossModel
	burst     bitset.Bits // GilbertElliott's chains: two bits per sender
	all       Handler     // shared handler for every node (RegisterAll)
	up        bitset.Bits
	partition func(a, b NodeID) bool
	stats     Stats
	tracer    Tracer
	traceFull bool  // tracer needs exact SentAt: disable the slot-free path
	idBits    uint8 // low bits of each packed event word holding a node id

	deliverID sim.HandlerID
	inflight  []inflight
	freeMsg   []int32

	// allBatch consumes delivered batches (RegisterBatchAll); slabs is the
	// pooled id-slab store batches park their entry lists in between send
	// and delivery, recycled through freeSlab. A slab is leased only for a
	// batch that actually schedules (send-time drops never touch the pool)
	// and released the moment its batch resolves, so at quiescence
	// SlabsInUse is zero.
	allBatch BatchHandler
	slabs    [][]int32
	freeSlab []int32

	// route, when installed, intercepts payload-free sends whose
	// destination lives on another shard (see SetRoute). A one-shard run
	// installs none and pays one nil check for the seam. routeBatch is its SendBatch
	// sibling.
	route      func(from, to NodeID, tag int32, sentAt, at sim.Time) bool
	routeBatch func(from, to NodeID, kind int32, ids []int32, sentAt, at sim.Time) bool
}

// BatchHandler consumes a delivered batch message: one wire event carrying
// many message ids of one protocol kind. The ids slice aliases a pooled
// slab that is recycled when the handler returns — consume it during the
// call, never retain it.
type BatchHandler func(now sim.Time, from, to NodeID, kind int32, ids []int32)

// New returns a network of n nodes driven by kernel, with randomness from
// rng (latency jitter and loss draws).
func New(kernel *sim.Kernel, n int, rng *xrand.RNG, cfg Config) *Network {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("simnet: node count %d outside [0, 2³¹)", n))
	}
	if kernel == nil || rng == nil {
		panic("simnet: nil kernel or rng")
	}
	nw := &Network{}
	nw.Reset(kernel, n, rng, cfg)
	return nw
}

// Reset reinitializes the network in place for a fresh run: all nodes up,
// counters zeroed, handlers, partition and tracer cleared, models taken
// from cfg. Pooled buffers (up flags, payload slots) are retained when the
// node count allows, so a run-scoped arena can recycle one network across
// many executions. The kernel must be freshly created or Reset: the network
// registers its delivery handler on it.
func (nw *Network) Reset(kernel *sim.Kernel, n int, rng *xrand.RNG, cfg Config) {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("simnet: node count %d outside [0, 2³¹)", n))
	}
	if kernel == nil || rng == nil {
		panic("simnet: nil kernel or rng")
	}
	nw.kernel = kernel
	nw.rng, nw.latRng = rng, rng
	nw.n = n
	nw.latency = cfg.Latency
	nw.all = nil
	nw.allBatch = nil
	nw.partition = nil
	nw.stats = Stats{}
	nw.tracer, nw.traceFull = nil, false
	nw.route = nil
	nw.routeBatch = nil
	if nw.latency == nil {
		nw.latency = ConstantLatency{}
	}
	nw.SetLoss(cfg.Loss)
	nw.idBits = uint8(bits.Len32(uint32(max(n, 1) - 1)))
	nw.up.Reset(n)
	nw.up.SetAll()
	for i := range nw.inflight {
		nw.inflight[i].payload = nil
	}
	nw.inflight = nw.inflight[:0]
	nw.freeMsg = nw.freeMsg[:0]
	nw.freeSlab = nw.freeSlab[:0]
	for i := range nw.slabs {
		nw.slabs[i] = nw.slabs[i][:0]
		nw.freeSlab = append(nw.freeSlab, int32(i))
	}
	nw.deliverID = kernel.RegisterHandler(nw.deliverEvent)
	// The default pending estimate is n: a single rumor's in-flight
	// messages peak at a few per member. An executor that keeps more in
	// the air re-hints with its own figure.
	nw.HintPending(n)
}

// HintPending sizes the kernel's event queue for about pending messages in
// flight at once: a latency model with a delay band (delayBand) selects the
// calendar queue, whose bucket width and far ring follow from the band and
// pending (a low figure costs throughput — coarser buckets, then a grow —
// never correctness); zero latency and models of unknown shape keep the
// heap. Reset hints n; call this after it, while the kernel's queue is still
// empty, to correct that.
func (nw *Network) HintPending(pending int) {
	if d, ok := delayBand(nw.latency); ok {
		nw.kernel.SetBoundedDelayHint(d, pending)
	}
}

// delayBand is the span of delays the calendar is sized for: a
// LatencyBounder's bound, or for ExponentialLatency — which has none — the
// quantile Floor + Mean·ln(1/ε) at ε = e⁻⁷ ≈ 10⁻³. A draw past the band
// still fires in exact (at, seq) order: the calendar's window reaches
// beyond it, and its overflow heap holds the rest, so the band moves
// throughput, never fire order. ExponentialLatency stays no LatencyBounder
// on purpose: Config.RoundInterval paces rounds by that interface.
func delayBand(m LatencyModel) (time.Duration, bool) {
	if e, ok := m.(ExponentialLatency); ok {
		band := float64(e.Floor) + 7*float64(e.Mean) // in float, so a huge Mean cannot wrap
		return time.Duration(min(band, 1<<62)), band > 0
	}
	if b, ok := m.(LatencyBounder); ok {
		d, bounded := b.LatencyBound()
		return d, bounded && d > 0
	}
	return 0, false
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// Kernel returns the driving kernel.
func (nw *Network) Kernel() *sim.Kernel { return nw.kernel }

// RegisterAll installs the one handler shared by every node (the
// delivered Message's To field says which node received), replacing any
// previous one. One shared handler rather than n per-node closures is what
// keeps dispatch allocation-free at n=10⁵..10⁶.
func (nw *Network) RegisterAll(h Handler) {
	nw.all = h
}

// RegisterBatchAll installs the handler consuming delivered batches
// (SendBatch wire messages) at every node. Batch delivery is a separate
// dispatch from Message delivery on purpose: the common case registers
// both once per run, and a network without a batch handler drops arriving
// batches as unprocessable (counted DroppedCrash, like a missing Handler).
func (nw *Network) RegisterBatchAll(h BatchHandler) {
	nw.allBatch = h
}

// DrawFrom points loss and latency draws at two streams until the next
// Reset, which points both at its own; they may be redrawn between sends.
func (nw *Network) DrawFrom(loss, latency *xrand.RNG) { nw.rng, nw.latRng = loss, latency }

// packLimit is the first tag that does not pack. A packed record's two
// 31-bit words each hold a node id in their low idBits bits — the sender in
// the payload word, the destination in the node word — and one half of the
// tag above it, so 2·(31 − idBits) tag bits fit, capped at the int32 range
// (see SendTag).
func (nw *Network) packLimit() int64 { return 1 << min(62-2*int(nw.idBits), 31) }

// Send queues a message for delivery after the modeled latency. Messages
// from crashed nodes are silently discarded; messages to nodes that are
// crashed at delivery time are dropped (fail-stop: a crashed node never
// processes anything).
func (nw *Network) Send(from, to NodeID, payload any) {
	nw.send(from, to, 0, payload, sim.End, false)
}

// SendTag queues a payload-free message carrying a small protocol message
// kind, delivered as Message.Tag. Protocols with several message types
// (data push, digest, NACK, pull reply) stay on the slot-free zero-
// allocation path this way instead of boxing a payload per message.
//
// The slot-free encoding holds while the tag fits the bits the two node
// ids leave free in the event record's two 31-bit words — each id takes
// the low bits.Len(n−1) bits of its word and the tag is split across the
// rest: tag < min(2^(62 − 2·bits.Len(n−1)), 2³¹), so the band follows the
// group size (every tag at n ≤ 2¹⁵, tags below 2²⁸ at n = 10⁵, 2²² at
// n = 10⁶, 2¹⁴ at n = 2²⁴). Outside it — say, streaming message ids past
// 2²⁰ at n = 10⁶ — the message transparently parks in a pooled 40-byte
// in-flight slot instead: same delivery semantics, same zero steady-state
// allocations, but the slot beside its 16-byte event record while
// airborne. Stats.BoxedSends counts exactly these fallbacks so the shift
// is observable rather than silent.
func (nw *Network) SendTag(from, to NodeID, tag int32) {
	if tag < 0 {
		panic(fmt.Sprintf("simnet: negative message tag %d", tag))
	}
	nw.send(from, to, tag, nil, sim.End, false)
}

// SendBefore is Send for a payload-free message whose fate at delivery the
// caller already knows should it arrive at or after cutoff: deliver says
// whether the destination would take such a copy (its handler would find
// it a no-op, say a duplicate) or is down for the rest of the run. It makes
// Send's draws in Send's order, from the same streams — the Sent count, the
// loss draw, then the latency draw — and a copy that survives loss with
// arrival time at ≥ cutoff is counted Delivered (or DroppedCrash) and
// Settled at once, with no event. Any other copy queues exactly as Send
// queues it, route hook included, so with cutoff sim.End SendBefore is
// Send. It returns the copy's arrival time (sim.End for a copy that never
// arrives: a down sender, a partition, a loss) and whether it settled.
// Under a tracer or a partition nothing settles: the handler then sees
// every copy.
func (nw *Network) SendBefore(from, to NodeID, cutoff sim.Time, deliver bool) (at sim.Time, settled bool) {
	return nw.send(from, to, 0, nil, cutoff, deliver)
}

// send is Send, SendTag and SendBefore; Send and SendTag pass cutoff
// sim.End, which settles nothing.
func (nw *Network) send(from, to NodeID, tag int32, payload any, cutoff sim.Time, deliver bool) (sim.Time, bool) {
	nw.checkID(from)
	nw.checkID(to)
	now := nw.kernel.Now()
	if !nw.up.Get(int(from)) {
		nw.stats.DroppedDown++
		nw.trace(Event{Kind: EventDroppedDown, From: from, To: to, At: now, SentAt: now})
		return sim.End, false
	}
	nw.stats.Sent++
	nw.trace(Event{Kind: EventSent, From: from, To: to, At: now, SentAt: now})
	if nw.partition != nil && nw.partition(from, to) {
		nw.stats.DroppedPart++
		nw.trace(Event{Kind: EventDroppedPartition, From: from, To: to, At: now, SentAt: now})
		return sim.End, false
	}
	if nw.loss.drop(nw.rng, &nw.burst, from) {
		nw.stats.DroppedLoss++
		nw.trace(Event{Kind: EventDroppedLoss, From: from, To: to, At: now, SentAt: now})
		return sim.End, false
	}
	at := now.Add(max(nw.latency.Latency(nw.latRng, from, to), 0))
	if cutoff != sim.End && at >= cutoff && nw.tracer == nil && nw.partition == nil {
		nw.stats.Settled++
		if deliver {
			nw.stats.Delivered++
		} else {
			nw.stats.DroppedCrash++
		}
		return at, true
	}
	// A routed (cross-shard) destination: all send-time concerns — sender
	// liveness, Sent count, partition and loss draws, the latency draw —
	// have already been decided here with this shard's RNG; the hook takes
	// over delivery scheduling on the owning shard. Only payload-free
	// messages route (the sharded fabric carries no payloads).
	if nw.route != nil && payload == nil && nw.route(from, to, tag, now, at) {
		return at, false
	}
	if payload == nil {
		nw.scheduleTag(from, to, tag, now, at)
		return at, false
	}
	nw.kernel.Schedule(at, nw.deliverID, int32(to), nw.allocMsg(from, now, tag, payload))
	return at, false
}

// SendBatch queues one wire message carrying every id in ids as a batch of
// protocol kind `kind` — the digest/NACK-set/repair-batch primitive that
// lets a round's gossip cost O(fanout) kernel events instead of O(buffer).
// The batch is one message to the network: one latency and one loss draw,
// one Sent/Delivered/drop count, one traced event — while the entry
// counters (Stats.BatchEntries and friends) carry the id payload sizes so
// entry-level conservation stays exact. The ids slice is copied into a
// pooled slab at send time and the slab is recycled when the batch
// resolves, so callers may reuse their scratch immediately and the steady
// state allocates nothing. An empty ids is a no-op.
func (nw *Network) SendBatch(from, to NodeID, kind int32, ids []int32) {
	if kind < 0 {
		panic(fmt.Sprintf("simnet: negative batch kind %d", kind))
	}
	if len(ids) == 0 {
		return
	}
	nw.checkID(from)
	nw.checkID(to)
	now := nw.kernel.Now()
	k := int64(len(ids))
	if !nw.up.Get(int(from)) {
		nw.stats.DroppedDown++
		nw.stats.BatchesDown++
		nw.stats.BatchEntriesDown += k
		nw.trace(Event{Kind: EventDroppedDown, From: from, To: to, At: now, SentAt: now, Entries: int32(k)})
		return
	}
	nw.stats.Sent++
	nw.stats.Batches++
	nw.stats.BatchEntries += k
	nw.trace(Event{Kind: EventSent, From: from, To: to, At: now, SentAt: now, Entries: int32(k)})
	if nw.partition != nil && nw.partition(from, to) {
		nw.stats.DroppedPart++
		nw.trace(Event{Kind: EventDroppedPartition, From: from, To: to, At: now, SentAt: now, Entries: int32(k)})
		return
	}
	if nw.loss.drop(nw.rng, &nw.burst, from) {
		nw.stats.DroppedLoss++
		nw.trace(Event{Kind: EventDroppedLoss, From: from, To: to, At: now, SentAt: now, Entries: int32(k)})
		return
	}
	d := nw.latency.Latency(nw.latRng, from, to)
	if d < 0 {
		d = 0
	}
	// Cross-shard batches hand off exactly like cross-shard singles: every
	// send-time decision is already made with this shard's RNG, and the
	// hook copies the ids before returning (no slab is leased here).
	if nw.routeBatch != nil && nw.routeBatch(from, to, kind, ids, now, now.Add(d)) {
		return
	}
	slot := nw.allocBatch(from, now, kind, ids)
	nw.kernel.ScheduleAfter(d, nw.deliverID, int32(to), slot)
}

// SetRoute installs (or clears, with nil) the cross-shard routing hook:
// send consults it after every send-time decision (liveness, Sent count,
// partition, loss, latency draw) for payload-free messages, passing the
// send time and the drawn delivery time; returning true means the hook
// accepted the message for delivery on another shard and this network
// schedules nothing. Install only on sharded fabrics — the hot path cost
// when unset is a single nil check.
func (nw *Network) SetRoute(route func(from, to NodeID, tag int32, sentAt, at sim.Time) bool) {
	nw.route = route
}

// SetRouteBatch installs (or clears, with nil) the cross-shard routing
// hook for batches, the SendBatch counterpart of SetRoute. The hook must
// copy ids before returning: the slice is the caller's scratch, not a
// leased slab.
func (nw *Network) SetRouteBatch(route func(from, to NodeID, kind int32, ids []int32, sentAt, at sim.Time) bool) {
	nw.routeBatch = route
}

// ScheduleArrival schedules delivery of a payload-free message on this
// network's kernel at absolute time at — the entry the sharded fabric
// hands cross-shard messages to their destination shard through at window
// barriers. Send-time accounting (Sent count, loss/partition draws, send
// trace) already happened on the sender's shard; delivery-time outcomes
// (destination crash, delivery-time partition, handler dispatch) are
// decided here as for any local message. Arrivals before the kernel's
// current time are clamped to it.
func (nw *Network) ScheduleArrival(from, to NodeID, tag int32, sentAt, at sim.Time) {
	nw.checkID(from)
	nw.checkID(to)
	if now := nw.kernel.Now(); at < now {
		at = now
	}
	// A cross-shard message skipped send()'s packing branch on its source
	// shard (the route hook intercepted it first), so the boxing decision —
	// and the BoxedSends count — happens here on the destination shard.
	nw.scheduleTag(from, to, tag, sentAt, at)
}

// scheduleTag schedules a payload-free message's delivery at `at`, in the
// cheapest form that keeps what an observer may read. With no full tracer
// watching — the entire gossip hot path, including runs observed through a
// lite tracer — a tag below packLimit packs into the event record: the
// payload word holds the sender id and the tag's low 31 − idBits bits,
// encoded below zero; the node word holds the destination and the tag's
// high bits above it. Any other payload-free message — a tag past the
// band, or any message under a full tracer, which needs the exact send
// time — parks in an in-flight slot and counts in BoxedSends.
func (nw *Network) scheduleTag(from, to NodeID, tag int32, sentAt, at sim.Time) {
	if !nw.traceFull && int64(tag) < nw.packLimit() {
		low := 31 - nw.idBits
		node := int32(to) | tag>>low<<nw.idBits
		nw.kernel.Schedule(at, nw.deliverID, node, -(int32(from)|tag&(1<<low-1)<<nw.idBits)-1)
		return
	}
	nw.stats.BoxedSends++
	nw.kernel.Schedule(at, nw.deliverID, int32(to), nw.allocMsg(from, sentAt, tag, nil))
}

// ScheduleArrivalBatch is ScheduleArrival for batches: the destination
// shard leases a local slab for the ids (the source shard's scratch is not
// shared across kernels) and schedules delivery at `at`, clamped to now.
// Send-side accounting — including the batch/entry counters — already
// happened on the source shard.
func (nw *Network) ScheduleArrivalBatch(from, to NodeID, kind int32, ids []int32, sentAt, at sim.Time) {
	nw.checkID(from)
	nw.checkID(to)
	if len(ids) == 0 {
		return
	}
	if now := nw.kernel.Now(); at < now {
		at = now
	}
	slot := nw.allocBatch(from, sentAt, kind, ids)
	nw.kernel.Schedule(at, nw.deliverID, int32(to), slot)
}

// allocMsg parks a message's payload in a pooled slot and returns its index.
func (nw *Network) allocMsg(from NodeID, sentAt sim.Time, tag int32, payload any) int32 {
	if n := len(nw.freeMsg); n > 0 {
		idx := nw.freeMsg[n-1]
		nw.freeMsg = nw.freeMsg[:n-1]
		nw.inflight[idx] = inflight{from: from, sentAt: sentAt, tag: tag, slab: -1, payload: payload}
		return idx
	}
	nw.inflight = append(nw.inflight, inflight{from: from, sentAt: sentAt, tag: tag, slab: -1, payload: payload})
	return int32(len(nw.inflight) - 1)
}

// allocBatch parks a batch in a pooled slot, copying its ids into a leased
// slab, and returns the slot index.
func (nw *Network) allocBatch(from NodeID, sentAt sim.Time, kind int32, ids []int32) int32 {
	var slab int32
	if n := len(nw.freeSlab); n > 0 {
		slab = nw.freeSlab[n-1]
		nw.freeSlab = nw.freeSlab[:n-1]
	} else {
		nw.slabs = append(nw.slabs, nil)
		slab = int32(len(nw.slabs) - 1)
	}
	nw.slabs[slab] = append(nw.slabs[slab][:0], ids...)
	if n := len(nw.freeMsg); n > 0 {
		idx := nw.freeMsg[n-1]
		nw.freeMsg = nw.freeMsg[:n-1]
		nw.inflight[idx] = inflight{from: from, sentAt: sentAt, tag: kind, slab: slab}
		return idx
	}
	nw.inflight = append(nw.inflight, inflight{from: from, sentAt: sentAt, tag: kind, slab: slab})
	return int32(len(nw.inflight) - 1)
}

// releaseSlab returns a resolved batch's slab to the pool.
func (nw *Network) releaseSlab(slab int32) {
	nw.freeSlab = append(nw.freeSlab, slab)
}

// SlabsInUse returns the number of leased id-slabs not yet recycled — the
// pool-leak invariant: zero at quiescence, because every scheduled batch
// releases its slab when it resolves (delivery or any delivery-time drop).
func (nw *Network) SlabsInUse() int {
	return len(nw.slabs) - len(nw.freeSlab)
}

// deliverEvent is the typed kernel handler for message arrival. A payload
// word >= 0 is an inflight slot index and node is the destination; a
// negative one marks a packed payload-nil message, whose sender and tag
// are rebuilt from both words and whose destination is node's low idBits
// bits (see scheduleTag). A packed message reports SentAt equal to its
// delivery time, even to a full tracer installed while it was airborne —
// the only observable difference between the encodings.
func (nw *Network) deliverEvent(now sim.Time, node, slot int32) {
	var m inflight
	if slot < 0 {
		word, mask, low := -slot-1, int32(1)<<nw.idBits-1, 31-nw.idBits
		m = inflight{from: NodeID(word & mask), tag: node>>nw.idBits<<low | word>>nw.idBits, sentAt: now, slab: -1}
		node &= mask
	} else {
		m = nw.inflight[slot]
		nw.inflight[slot].payload = nil // release the payload reference
		nw.freeMsg = append(nw.freeMsg, slot)
	}
	if m.slab >= 0 {
		nw.deliverBatch(now, m, NodeID(node))
		return
	}
	nw.deliverOne(now, NodeID(node), m)
}

// deliverOne resolves one arriving non-batch message: the delivery-time
// outcomes (crash, partition, missing handler), then handler dispatch.
func (nw *Network) deliverOne(now sim.Time, to NodeID, m inflight) {
	if !nw.up.Get(int(to)) {
		nw.stats.DroppedCrash++
		nw.trace(Event{Kind: EventDroppedCrash, From: m.from, To: to, At: now, SentAt: m.sentAt})
		return
	}
	// A partition severs in-flight traffic too: a message crossing the
	// boundary when the partition forms never arrives.
	if nw.partition != nil && nw.partition(m.from, to) {
		nw.stats.DroppedPart++
		nw.trace(Event{Kind: EventDroppedPartition, From: m.from, To: to, At: now, SentAt: m.sentAt})
		return
	}
	h := nw.all
	if h == nil {
		nw.stats.DroppedCrash++
		nw.trace(Event{Kind: EventDroppedCrash, From: m.from, To: to, At: now, SentAt: m.sentAt})
		return
	}
	nw.stats.Delivered++
	nw.trace(Event{Kind: EventDelivered, From: m.from, To: to, At: now, SentAt: m.sentAt})
	h(now, Message{From: m.from, To: to, Tag: m.tag, Payload: m.payload})
}

// deliverBatch resolves an arriving batch: the delivery-time outcomes
// mirror deliverOne's (crash, partition, missing handler), and the slab
// is recycled on every path — after the handler returns on delivery, so
// the handler may issue fresh batches while iterating the ids.
func (nw *Network) deliverBatch(now sim.Time, m inflight, to NodeID) {
	ids := nw.slabs[m.slab]
	k := int32(len(ids))
	if !nw.up.Get(int(to)) {
		nw.stats.DroppedCrash++
		nw.trace(Event{Kind: EventDroppedCrash, From: m.from, To: to, At: now, SentAt: m.sentAt, Entries: k})
		nw.releaseSlab(m.slab)
		return
	}
	if nw.partition != nil && nw.partition(m.from, to) {
		nw.stats.DroppedPart++
		nw.trace(Event{Kind: EventDroppedPartition, From: m.from, To: to, At: now, SentAt: m.sentAt, Entries: k})
		nw.releaseSlab(m.slab)
		return
	}
	if nw.allBatch == nil {
		nw.stats.DroppedCrash++
		nw.trace(Event{Kind: EventDroppedCrash, From: m.from, To: to, At: now, SentAt: m.sentAt, Entries: k})
		nw.releaseSlab(m.slab)
		return
	}
	nw.stats.Delivered++
	nw.stats.BatchesDelivered++
	nw.stats.BatchEntriesDelivered += int64(k)
	nw.trace(Event{Kind: EventDelivered, From: m.from, To: to, At: now, SentAt: m.sentAt, Entries: k})
	nw.allBatch(now, m.from, to, m.tag, ids)
	nw.releaseSlab(m.slab)
}

// Crash marks id as failed: in-flight messages to it will be dropped at
// delivery time and its sends are discarded (fail-stop crash).
func (nw *Network) Crash(id NodeID) {
	nw.checkID(id)
	nw.up.Unset(int(id))
}

// Restart marks id as up again. (The paper's model is crash-stop; Restart
// exists for the scenario campaigns' restart action.)
func (nw *Network) Restart(id NodeID) {
	nw.checkID(id)
	nw.up.Set(int(id))
}

// Up reports whether id is currently up.
func (nw *Network) Up(id NodeID) bool {
	nw.checkID(id)
	return nw.up.Get(int(id))
}

// SetPartition installs a predicate blocking communication from a to b when
// it returns true. nil clears the partition.
func (nw *Network) SetPartition(blocked func(a, b NodeID) bool) {
	nw.partition = blocked
}

// SetLoss swaps the loss model mid-run; nil restores no loss. In-flight
// messages already past their loss draw are unaffected, so a loss episode
// applies exactly to the sends issued while it is installed, and every
// burst-loss chain starts afresh with it.
func (nw *Network) SetLoss(l LossModel) {
	if l == nil {
		l = NoLoss{}
	}
	nw.loss = l
	if _, bursty := l.(GilbertElliott); bursty {
		nw.burst.Reset(2 * nw.n)
	}
}

// SetLatency swaps the latency model mid-run; nil restores zero latency.
// Messages already in flight keep their original delivery times.
func (nw *Network) SetLatency(l LatencyModel) {
	if l == nil {
		l = ConstantLatency{}
	}
	nw.latency = l
}

// SplitPartition partitions the nodes into two sides by a membership
// predicate; messages crossing sides are blocked in both directions.
func SplitPartition(inLeft func(NodeID) bool) func(a, b NodeID) bool {
	return func(a, b NodeID) bool { return inLeft(a) != inLeft(b) }
}

// Stats returns a snapshot of the network counters. While the kernel
// still has deliveries pending, the snapshot is a moment-in-time partial
// attribution: Sent counts messages whose delivery-or-drop outcome is not
// yet decided, so InFlight is positive and the drop counters can still
// grow. Final attribution — the state reconciliation tests and the
// scenario summaries rely on — requires quiescence: either the kernel has
// drained (RunAll returned) or Drained reports true.
func (nw *Network) Stats() Stats { return nw.stats }

// Drained reports whether the network is quiescent: every accepted
// message has been delivered or dropped, so Stats is a final attribution
// and InFlight is zero. Mid-run watchers (the scenario stall trigger)
// use it to distinguish "the spread died" from "messages still airborne";
// note it says nothing about pending non-message kernel events.
func (nw *Network) Drained() bool { return nw.stats.InFlight() == 0 }

func (nw *Network) checkID(id NodeID) {
	if id < 0 || int(id) >= nw.n {
		panic(fmt.Sprintf("simnet: node id %d out of range [0,%d)", id, nw.n))
	}
}
