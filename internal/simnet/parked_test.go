package simnet

import (
	"testing"
	"time"
	"unsafe"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// TestParkedSlotsAccountForMemory replays a per-id stream's network load
// with every tag past the packed band — n = 10⁵, 1–5 ms uniform latency,
// each delivery forwarding one or two messages until a send budget runs
// out, so the airborne count climbs through free-list reuse and store
// growth and then drains — and requires the parked store to explain its
// memory: a slot is 40 bytes, the store grows to exactly the peak number of
// parked messages airborne, retains at most 1.5 slots per message of that
// peak, and every slot is back on the free list at quiescence.
func TestParkedSlotsAccountForMemory(t *testing.T) {
	const n, seed, budget = bandN, 1000, 400_000
	if size := unsafe.Sizeof(inflight{}); size != 40 {
		t.Errorf("inflight is %d bytes, want 40", size)
	}
	k := sim.New()
	nw := New(k, n, xrand.New(1), Config{Latency: UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}})
	nw.HintPending(seed)
	limit := int32(nw.packLimit())
	tagOf := func(from, to NodeID) int32 { return limit + int32((int64(from)*n+int64(to))%(1<<30)) }
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
		for f := 1 + fork.Uint64n(4)/3; f > 0 && sent < budget; f-- {
			send(m.To)
		}
	})
	for i := 0; i < seed; i++ {
		send(NodeID(i * (n / seed)))
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
	if len(nw.freeMsg) != len(nw.inflight) {
		t.Errorf("%d of %d parked slots free at quiescence, want all", len(nw.freeMsg), len(nw.inflight))
	}
	if int64(len(nw.inflight)) != peak {
		t.Errorf("parked store grew to %d slots for a peak of %d airborne, want equal", len(nw.inflight), peak)
	}
	slot := int64(unsafe.Sizeof(inflight{}))
	if retained, limit := int64(cap(nw.inflight))*slot, peak*slot*3/2; retained > limit {
		t.Errorf("parked store retains %d bytes for a peak of %d airborne: %.2f× %d B each, want ≤ 1.5×",
			retained, peak, float64(retained)/float64(peak*slot), slot)
	}
}

// TestBoxedTracerSentAt pins what a tracer sees of a payload-free
// delivery's send time: a parked message (tag ≥ packLimit, or any tag under
// a full tracer) keeps its send time and reports it exactly, to a full and
// to a lite tracer alike; a packed message keeps none and reports SentAt =
// At, so a full tracer installed mid-flight reports At for the packed
// messages sent before it and exact SentAt for those sent after.
func TestBoxedTracerSentAt(t *testing.T) {
	const d = 7 * time.Millisecond
	ms := func(x int) sim.Time { return sim.Time(time.Duration(x) * time.Millisecond) }
	// run sends a message tagged tag(nw) at each of sendAt (ms), calls
	// install at installAt (ms) and returns the traced deliveries in send
	// order (constant latency keeps the two orders the same).
	run := func(sendAt []int, installAt int, install func(*Network, Tracer), tag func(*Network) int32) []Event {
		k := sim.New()
		nw := New(k, bandN, xrand.New(1), Config{Latency: ConstantLatency{D: d}})
		nw.RegisterAll(func(sim.Time, Message) {})
		var got []Event
		tr := func(e Event) {
			if e.Kind == EventDelivered {
				got = append(got, e)
			}
		}
		k.At(ms(installAt), func() { install(nw, tr) })
		for _, at := range sendAt {
			k.At(ms(at), func() { nw.SendTag(0, 1, tag(nw)) })
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
	parked := func(nw *Network) int32 { return int32(nw.packLimit()) }
	packed := func(*Network) int32 { return 1 }
	for _, tc := range []struct {
		name      string
		installAt int
		install   func(*Network, Tracer)
		tag       func(*Network) int32
		sendAt    []int
		exact     []bool // per send: SentAt reported exactly (else = At)
	}{
		{"full", 0, full, parked, []int{1}, []bool{true}},
		{"lite", 0, lite, parked, []int{1}, []bool{true}},
		{"lite-packed", 0, lite, packed, []int{1}, []bool{false}},
		{"full-mid-flight", 2, full, parked, []int{1, 3}, []bool{true, true}},
		{"full-mid-flight-packed", 2, full, packed, []int{1, 3}, []bool{false, true}},
	} {
		for i, e := range run(tc.sendAt, tc.installAt, tc.install, tc.tag) {
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
