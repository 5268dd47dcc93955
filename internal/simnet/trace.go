package simnet

import "gossipkit/internal/sim"

// EventKind classifies a traced network event.
type EventKind int

const (
	// EventSent: a message was accepted for transmission.
	EventSent EventKind = iota
	// EventDelivered: a message reached its handler.
	EventDelivered
	// EventDroppedLoss: lost in transit.
	EventDroppedLoss
	// EventDroppedCrash: endpoint crashed (or had no handler).
	EventDroppedCrash
	// EventDroppedPartition: blocked by a partition.
	EventDroppedPartition
	// EventDroppedDown: discarded at send time because the sender was
	// down. Mirrors Stats.DroppedDown: the message was never accepted, so
	// it appears in no other count.
	EventDroppedDown
)

func (k EventKind) String() string {
	switch k {
	case EventSent:
		return "sent"
	case EventDelivered:
		return "delivered"
	case EventDroppedLoss:
		return "dropped-loss"
	case EventDroppedCrash:
		return "dropped-crash"
	case EventDroppedPartition:
		return "dropped-partition"
	case EventDroppedDown:
		return "dropped-down"
	default:
		return "unknown"
	}
}

// Event is one traced network occurrence.
type Event struct {
	Kind EventKind
	From NodeID
	To   NodeID
	// At is the simulated time of the event (send time for EventSent and
	// drop decisions made at send time; delivery time for
	// EventDelivered and crash drops at delivery).
	At sim.Time
	// SentAt is the send time of the underlying message, so
	// At − SentAt is the transit latency for deliveries.
	SentAt sim.Time
	// Entries is the id count of a batch message (SendBatch) and zero for
	// every single-id message, so trace consumers can weight wire events by
	// payload without a second event stream.
	Entries int32
}

// Tracer consumes network events. Install with Network.SetTracer or
// SetTracerLite; it runs synchronously on the kernel goroutine. Reset
// clears it, so a tracer observes one run on one network.
type Tracer func(Event)

// SetTracer installs (or clears, with nil) the event tracer. A full tracer
// sees exact SentAt times on every delivery, which costs the slot-free
// send encoding: every in-flight message parks its metadata in a pooled
// 40-byte slot while one is installed. Observers that only need event kinds,
// endpoints, and occurrence times — counters and time-series sampling —
// should use SetTracerLite and keep the hot path intact.
func (nw *Network) SetTracer(t Tracer) {
	nw.tracer = t
	nw.traceFull = t != nil
}

// SetTracerLite installs (or clears, with nil) the event tracer WITHOUT
// disabling the slot-free send path: payload-free messages with a tag in
// the packed band keep riding in the event record, so the steady-state
// send→deliver path still allocates nothing. The price is that every
// packed delivery reports SentAt equal to its delivery time (the send time
// was never parked anywhere), so transit latency is not observable through
// a lite tracer for them; parked messages — payloads, batches, tags past
// the band — report their exact send time. Kinds, endpoints, and At are
// exact either way. The observability probes sample their virtual-time
// curves through this seam.
func (nw *Network) SetTracerLite(t Tracer) {
	nw.tracer = t
	nw.traceFull = false
}

func (nw *Network) trace(e Event) {
	if nw.tracer != nil {
		nw.tracer(e)
	}
}
