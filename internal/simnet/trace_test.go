package simnet

import (
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

func TestTracerSeesAllEventKinds(t *testing.T) {
	k := sim.New()
	counts := map[EventKind]int64{}
	nw := New(k, 4, xrand.New(1), Config{Latency: ConstantLatency{D: 5 * time.Millisecond}})
	nw.SetTracer(func(e Event) { counts[e.Kind]++ })
	nw.RegisterAll(func(sim.Time, Message) {})
	// Delivered.
	nw.Send(0, 1, "a")
	// Crash drop at delivery.
	nw.Send(0, 2, "b")
	nw.Crash(2)
	// Partition drop.
	nw.SetPartition(SplitPartition(func(id NodeID) bool { return id < 2 }))
	nw.Send(0, 3, "c")
	nw.SetPartition(nil)
	// Crashed sender.
	nw.Crash(3)
	nw.Send(3, 1, "d")
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if counts[EventDelivered] != 1 {
		t.Errorf("delivered events = %d", counts[EventDelivered])
	}
	if counts[EventSent] != 3 { // the crashed sender's is not "sent"
		t.Errorf("sent events = %d", counts[EventSent])
	}
	if counts[EventDroppedCrash] != 1 { // crashed destination, dropped at delivery
		t.Errorf("crash drops = %d", counts[EventDroppedCrash])
	}
	if counts[EventDroppedDown] != 1 { // crashed sender, discarded at send
		t.Errorf("down drops = %d", counts[EventDroppedDown])
	}
	if counts[EventDroppedPartition] != 1 {
		t.Errorf("partition drops = %d", counts[EventDroppedPartition])
	}
	// Per-kind trace counts must reconcile with the Stats counters.
	st := nw.Stats()
	if counts[EventDroppedCrash] != st.DroppedCrash ||
		counts[EventDroppedDown] != st.DroppedDown ||
		counts[EventDroppedPartition] != st.DroppedPart ||
		counts[EventSent] != st.Sent {
		t.Errorf("trace counts %v do not reconcile with stats %+v", counts, st)
	}
}

func TestLiteTracerKeepsSlotFreeEncoding(t *testing.T) {
	// A lite tracer must see every event kind with exact At times, while
	// slot-free deliveries report SentAt == At (the encoding's documented
	// degradation). A full tracer on the same run sees the true SentAt.
	run := func(install func(nw *Network, tr Tracer)) (counts map[EventKind]int64, sentAt, at sim.Time) {
		k := sim.New()
		nw := New(k, 2, xrand.New(1), Config{Latency: ConstantLatency{D: 7 * time.Millisecond}})
		counts = map[EventKind]int64{}
		install(nw, func(e Event) {
			counts[e.Kind]++
			if e.Kind == EventDelivered {
				sentAt, at = e.SentAt, e.At
			}
		})
		nw.RegisterAll(func(sim.Time, Message) {})
		nw.SendTag(0, 1, 3)
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		return counts, sentAt, at
	}
	lite, liteSent, liteAt := run(func(nw *Network, tr Tracer) { nw.SetTracerLite(tr) })
	full, fullSent, fullAt := run(func(nw *Network, tr Tracer) { nw.SetTracer(tr) })
	for _, c := range []map[EventKind]int64{lite, full} {
		if c[EventSent] != 1 || c[EventDelivered] != 1 {
			t.Fatalf("event counts = %v", c)
		}
	}
	if liteAt != sim.Time(7*time.Millisecond) || fullAt != liteAt {
		t.Errorf("delivery At: lite %v full %v", liteAt, fullAt)
	}
	if liteSent != liteAt {
		t.Errorf("lite SentAt %v, want delivery time %v (slot-free encoding)", liteSent, liteAt)
	}
	if fullSent != 0 {
		t.Errorf("full SentAt %v, want 0", fullSent)
	}
}

func TestDrained(t *testing.T) {
	k := sim.New()
	nw := New(k, 2, xrand.New(1), Config{Latency: ConstantLatency{D: time.Millisecond}})
	nw.RegisterAll(func(sim.Time, Message) {})
	if !nw.Drained() {
		t.Error("fresh network not drained")
	}
	nw.Send(0, 1, nil)
	if nw.Drained() {
		t.Error("drained with a message in flight")
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !nw.Drained() {
		t.Error("not drained after RunAll")
	}
}

func TestSetTracerDynamically(t *testing.T) {
	k := sim.New()
	nw := New(k, 2, xrand.New(1), Config{})
	nw.RegisterAll(func(sim.Time, Message) {})
	count := 0
	nw.SetTracer(func(Event) { count++ })
	nw.Send(0, 1, nil)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 2 { // sent + delivered
		t.Errorf("traced %d events, want 2", count)
	}
	nw.SetTracer(nil)
	nw.Send(0, 1, nil)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Error("cleared tracer still firing")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		EventSent:             "sent",
		EventDelivered:        "delivered",
		EventDroppedLoss:      "dropped-loss",
		EventDroppedCrash:     "dropped-crash",
		EventDroppedPartition: "dropped-partition",
		EventDroppedDown:      "dropped-down",
		EventKind(99):         "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d: %q != %q", k, k.String(), want)
		}
	}
}
