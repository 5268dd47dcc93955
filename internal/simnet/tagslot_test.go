package simnet

import (
	"testing"
	"time"
	"unsafe"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// TestTagSlotLayout pins the boxed payload-free message's in-flight slot at
// 8 bytes: (from, tag) and nothing else, no pointer for the collector to
// scan.
func TestTagSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(tagSlot{}); size != 8 {
		t.Errorf("tagSlot is %d bytes, want 8", size)
	}
}

// TestTagSlotsAccountForMemory replays a per-id stream's network load with
// every tag past the packed band — n = 5000, 1–5 ms uniform latency, each
// delivery forwarding one or two messages until a send budget runs out, so
// the airborne count climbs through free-chain reuse and table growth and
// then drains — and requires the tag table to explain its memory: it
// grows to exactly the peak number of boxed messages airborne, retains at
// most 1.5 × 8 B per message of that peak, and the parked store is never
// touched by a payload-free untraced send.
func TestTagSlotsAccountForMemory(t *testing.T) {
	const n, seed, budget = 5000, 1000, 400_000
	k := sim.New()
	nw := New(k, n, xrand.New(1), Config{Latency: UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}})
	nw.HintPending(seed)
	limit := int32(nw.packLimit())
	tagOf := func(from, to NodeID) int32 { return limit + int32(from)*n + int32(to) }
	fork := xrand.New(2)
	sent, peak := 0, int64(0)
	send := func(from NodeID) {
		to := NodeID(fork.Uint64n(n))
		nw.SendTag(from, to, tagOf(from, to))
		sent++
		peak = max(peak, nw.Stats().InFlight())
	}
	nw.RegisterAll(func(_ sim.Time, m Message) {
		if m.Tag != tagOf(m.From, m.To) {
			t.Fatalf("message %d→%d delivered tag %d, want %d", m.From, m.To, m.Tag, tagOf(m.From, m.To))
		}
		if len(nw.inflight) != 0 {
			t.Fatalf("payload-free untraced sends parked %d slots in the parked store", len(nw.inflight))
		}
		for f := 1 + fork.Uint64n(4)/3; f > 0 && sent < budget; f-- {
			send(m.To)
		}
	})
	for i := 0; i < seed; i++ {
		send(NodeID(i % n))
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.BoxedSends != int64(sent) || st.Delivered != int64(sent) {
		t.Fatalf("stats %+v after %d sends, want every send boxed and delivered", st, sent)
	}
	if sent != budget || peak < 20*seed {
		t.Fatalf("load too small to measure: %d sends, peak %d airborne", sent, peak)
	}
	if len(nw.inflight) != 0 {
		t.Errorf("parked store holds %d slots, want 0", len(nw.inflight))
	}
	if int64(len(nw.tagSlots)) != peak {
		t.Errorf("tag table grew to %d slots for a peak of %d airborne, want equal", len(nw.tagSlots), peak)
	}
	const bytesPerSlot = 8
	if retained, limit := int64(cap(nw.tagSlots))*bytesPerSlot, peak*bytesPerSlot*3/2; retained > limit {
		t.Errorf("tag table retains %d bytes for a peak of %d airborne: %.2f× 8 B each, want ≤ 1.5×",
			retained, peak, float64(retained)/float64(peak*bytesPerSlot))
	}
}

// TestBoxedTracerSentAt pins what a tracer sees of a boxed payload-free
// delivery (tag ≥ packLimit): a full tracer parks the send time and reports
// it exactly; a lite tracer keeps the 8-byte tag slot and reports SentAt =
// At, as slot-free deliveries do; and a full tracer installed mid-flight
// reports At for the tag-slotted messages sent before it, exact SentAt for
// those sent after.
func TestBoxedTracerSentAt(t *testing.T) {
	const d = 7 * time.Millisecond
	ms := func(x int) sim.Time { return sim.Time(time.Duration(x) * time.Millisecond) }
	// run sends a boxed message at each of sendAt (ms), calls install at
	// installAt (ms) and returns the traced deliveries in send order
	// (constant latency keeps the two orders the same).
	run := func(sendAt []int, installAt int, install func(*Network, Tracer)) []Event {
		k := sim.New()
		nw := New(k, 2, xrand.New(1), Config{Latency: ConstantLatency{D: d}})
		nw.RegisterAll(func(sim.Time, Message) {})
		var got []Event
		tr := func(e Event) {
			if e.Kind == EventDelivered {
				got = append(got, e)
			}
		}
		k.At(ms(installAt), func() { install(nw, tr) })
		for _, at := range sendAt {
			k.At(ms(at), func() { nw.SendTag(0, 1, int32(nw.packLimit())) })
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(sendAt) {
			t.Fatalf("traced %d deliveries, want %d", len(got), len(sendAt))
		}
		return got
	}
	full := func(nw *Network, tr Tracer) { nw.SetTracer(tr) }
	lite := func(nw *Network, tr Tracer) { nw.SetTracerLite(tr) }
	for _, tc := range []struct {
		name      string
		installAt int
		install   func(*Network, Tracer)
		sendAt    []int
		exact     []bool // per send: SentAt reported exactly (else = At)
	}{
		{"full", 0, full, []int{1}, []bool{true}},
		{"lite", 0, lite, []int{1}, []bool{false}},
		{"full-mid-flight", 2, full, []int{1, 3}, []bool{false, true}},
	} {
		for i, e := range run(tc.sendAt, tc.installAt, tc.install) {
			sent := ms(tc.sendAt[i])
			if e.At != sent+sim.Time(d) {
				t.Errorf("%s: message sent at %v delivered at %v, want %v", tc.name, sent, e.At, sent+sim.Time(d))
			}
			want := e.At
			if tc.exact[i] {
				want = sent
			}
			if e.SentAt != want {
				t.Errorf("%s: message sent at %v reports SentAt %v, want %v", tc.name, sent, e.SentAt, want)
			}
		}
	}
}
