package simnet

import (
	"math"
	"testing"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// bandN is a group size whose packed band ends inside the tag range:
// bits.Len(n−1) = 17, so tags below 2²⁸ pack and larger ones park.
const bandN = 100_000

// TestSendTagPackedBelowLimit pins the slot-free side of the tag boundary:
// with tag < packLimit, a payload-free tagged send rides in the event
// record — no in-flight slot, no BoxedSends count — and still delivers the
// exact tag and endpoints. That includes the largest tag a 10⁴-id stream
// sends, id 10⁴−1 of kind 3 (stream tags are id<<2 | kind).
func TestSendTagPackedBelowLimit(t *testing.T) {
	k := sim.New()
	nw := New(k, bandN, xrand.New(1), Config{})
	var got []Message
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m) })

	limit := int32(nw.packLimit())
	want := []Message{
		{From: 0, To: 1}, {From: 0, To: 1, Tag: 1},
		{From: bandN - 1, To: bandN - 2, Tag: (10_000-1)<<2 | 3},
		{From: bandN - 1, To: bandN - 1, Tag: limit - 1},
	}
	for _, m := range want {
		nw.SendTag(m.From, m.To, m.Tag)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(nw.inflight) != 0 {
		t.Errorf("packed sends parked %d in-flight slots, want 0", len(nw.inflight))
	}
	st := nw.Stats()
	if st.BoxedSends != 0 {
		t.Errorf("BoxedSends = %d below the limit, want 0", st.BoxedSends)
	}
	if st.Delivered != int64(len(want)) || len(got) != len(want) {
		t.Fatalf("delivered %d/%d messages, want %d", st.Delivered, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSendTagBoxedAboveLimit pins the fallback side: a tag at or above
// packLimit cannot pack into the event record, so the message parks in a
// pooled in-flight slot, BoxedSends counts it, and the tag still arrives
// intact — the semantics of SendTag are identical on both sides of the
// boundary.
func TestSendTagBoxedAboveLimit(t *testing.T) {
	k := sim.New()
	nw := New(k, bandN, xrand.New(1), Config{})
	var got []int32
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m.Tag) })

	limit := int32(nw.packLimit())
	tags := []int32{limit, limit + 1, math.MaxInt32}
	for _, tag := range tags {
		nw.SendTag(0, 1, tag)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.BoxedSends != int64(len(tags)) {
		t.Errorf("BoxedSends = %d, want %d", st.BoxedSends, len(tags))
	}
	if st.Delivered != int64(len(tags)) {
		t.Errorf("Delivered = %d, want %d", st.Delivered, len(tags))
	}
	for i, tag := range tags {
		if got[i] != tag {
			t.Errorf("delivery %d: tag = %d, want %d", i, got[i], tag)
		}
	}
	// Boxed sends recycle their parked slots: after quiescence every slot
	// is back on the free list.
	if total := len(nw.inflight); len(nw.freeMsg) != total || total == 0 {
		t.Errorf("parked slots: %d free of %d; want all free at quiescence", len(nw.freeMsg), total)
	}
}

// TestSendTagBoxedLargeGroup pins the group-size side of the boundary:
// at n = 2²⁴ each node id takes 24 bits of its event word, so only tags
// below 2¹⁴ pack — the largest of them between the largest ids included —
// and tag 2¹⁴ boxes, while tag 0 (plain Send) stays slot-free.
func TestSendTagBoxedLargeGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("2²⁴-node network in -short mode")
	}
	k := sim.New()
	nw := New(k, 1<<24, xrand.New(1), Config{})
	var got []Message
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m) })

	if limit := nw.packLimit(); limit != 1<<14 {
		t.Fatalf("packLimit = %d at n = 2²⁴, want 2¹⁴", limit)
	}
	const top = 1<<24 - 1
	nw.SendTag(top, top, 1<<14-1) // the largest ids beside the largest packing tag
	nw.SendTag(top, top, 1<<14)   // one past the band: boxes
	nw.SendTag(5, 3, 0)           // tag 0 always rides slot-free
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.BoxedSends != 1 || len(nw.inflight) != 1 {
		t.Errorf("BoxedSends = %d, %d parked slots; want 1 (only tag 2¹⁴ boxes)", st.BoxedSends, len(nw.inflight))
	}
	want := []Message{{From: top, To: top, Tag: 1<<14 - 1}, {From: top, To: top, Tag: 1 << 14}, {From: 5, To: 3}}
	if st.Delivered != 3 || len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("deliveries = %v (Delivered %d), want %v", got, st.Delivered, want)
	}
}

// TestBoxedSendsFullTracer: a full tracer disables the slot-free path for
// every payload-free message (exact SentAt needs a slot), and BoxedSends
// reports that too — the counter answers "did my sends leave the packed
// encoding", whatever the cause.
func TestBoxedSendsFullTracer(t *testing.T) {
	k := sim.New()
	nw := New(k, 4, xrand.New(1), Config{})
	nw.RegisterAll(func(sim.Time, Message) {})
	nw.SetTracer(func(Event) {})

	nw.SendTag(0, 1, 1) // packs without the tracer; boxes under it
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if st := nw.Stats(); st.BoxedSends != 1 {
		t.Errorf("BoxedSends = %d under a full tracer, want 1", st.BoxedSends)
	}
}

// TestBoxedSendsCrossShard: a cross-shard arrival's boxing decision happens
// at the destination shard's ScheduleArrival (the route hook intercepts the
// send before the packing branch), so the fabric-summed counter still sees
// exactly the out-of-band tags.
func TestBoxedSendsCrossShard(t *testing.T) {
	sn := NewShardedNet()
	sn.Prepare(2, bandN, Config{})
	kernels := []*sim.Kernel{sim.New(), sim.New()}
	for s := 0; s < 2; s++ {
		sn.ResetShard(s, kernels[s], xrand.New(uint64(s)+1))
		sn.Shard(s).RegisterAll(func(sim.Time, Message) {})
	}
	// Member 0 lives on shard 0, member bandN−1 on shard 1: both sends cross.
	limit := int32(sn.Shard(1).packLimit())
	sn.Shard(0).SendTag(0, bandN-1, limit-1) // packs on arrival
	sn.Shard(0).SendTag(0, bandN-1, limit)   // boxes on arrival
	sn.Flush(0)                              // barrier: park arrivals on shard 1
	for _, k := range kernels {
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	st := sn.Stats()
	if st.BoxedSends != 1 {
		t.Errorf("fabric BoxedSends = %d, want 1", st.BoxedSends)
	}
	if st.Delivered != 2 {
		t.Errorf("fabric Delivered = %d, want 2", st.Delivered)
	}
}

// TestTagPackBand pins where the packed band ends for each group size: a
// packed record holds a node id in the low bits.Len(n−1) bits of each of
// its two words and the tag split across the rest, so the largest packing
// tag round-trips From, To and Tag exactly without boxing — between the
// largest ids and from the largest id to node 0 — the next tag boxes and
// delivers the same Message, and every group up to 2²⁴ packs at least the
// tags below 2¹⁴. One network reused across sizes must re-split on Reset:
// a stale split would mis-decode endpoints silently.
func TestTagPackBand(t *testing.T) {
	for _, tc := range []struct {
		n     int
		limit int64
	}{
		{1, 1 << 31}, {2, 1 << 31}, {64, 1 << 31}, {5000, 1 << 31}, {1 << 15, 1 << 31},
		{1<<15 + 1, 1 << 30}, {100_000, 1 << 28}, {1 << 20, 1 << 22}, {1<<24 - 1, 1 << 14}, {1 << 24, 1 << 14},
	} {
		k := sim.New()
		checkTagPackBand(t, k, New(k, tc.n, xrand.New(1), Config{}), tc.limit)
	}

	k := sim.New()
	nw := New(k, 5000, xrand.New(1), Config{})
	for _, tc := range []struct {
		n     int
		limit int64
	}{{5000, 1 << 31}, {1 << 20, 1 << 22}, {5000, 1 << 31}} {
		k.Reset()
		nw.Reset(k, tc.n, xrand.New(1), Config{})
		checkTagPackBand(t, k, nw, tc.limit)
	}
}

// checkTagPackBand sends the largest packing tag and, when one exists, the
// first boxing tag from the largest node id to itself and to node 0 across
// nw and checks the deliveries and the boxing count against the band
// ending at limit.
func checkTagPackBand(t *testing.T, k *sim.Kernel, nw *Network, limit int64) {
	t.Helper()
	n := nw.N()
	if got := nw.packLimit(); got != limit {
		t.Fatalf("n = %d: packLimit = %d, want %d", n, got, limit)
	}
	if n <= 1<<24 && limit < 1<<14 {
		t.Errorf("n = %d: packLimit %d packs fewer tags than the 2¹⁴ every group up to 2²⁴ packs", n, limit)
	}
	var got []Message
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m) })
	from := NodeID(n - 1)
	deliver := func(to NodeID, tag int32) Message {
		got = got[:0]
		nw.SendTag(from, to, tag)
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("n = %d, tag %d: %d deliveries, want 1", n, tag, len(got))
		}
		return got[0]
	}
	top := int32(min(limit-1, math.MaxInt32))
	for _, to := range []NodeID{from, 0} {
		if m, want := deliver(to, top), (Message{From: from, To: to, Tag: top}); m != want {
			t.Errorf("n = %d: largest packing tag delivered %+v, want %+v", n, m, want)
		}
	}
	if b := nw.Stats().BoxedSends; b != 0 || len(nw.inflight) != 0 {
		t.Errorf("n = %d: tag %d boxed (BoxedSends %d, %d parked slots), want packed", n, top, b, len(nw.inflight))
	}
	if limit > math.MaxInt32 {
		return // every tag packs
	}
	for _, to := range []NodeID{from, 0} {
		if m, want := deliver(to, int32(limit)), (Message{From: from, To: to, Tag: int32(limit)}); m != want {
			t.Errorf("n = %d: first boxing tag delivered %+v, want %+v", n, m, want)
		}
	}
	if b := nw.Stats().BoxedSends; b != 2 {
		t.Errorf("n = %d: tag %d left BoxedSends at %d, want 2", n, limit, b)
	}
}
