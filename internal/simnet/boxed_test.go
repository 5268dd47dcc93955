package simnet

import (
	"testing"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// TestSendTagPackedBelowLimit pins the slot-free side of the tag boundary:
// with n < 2²⁴ and tag < tagLimit, a payload-free tagged send rides in the
// event word — no in-flight slot, no BoxedSends count — and still delivers
// the exact tag.
func TestSendTagPackedBelowLimit(t *testing.T) {
	k := sim.New()
	nw := New(k, 4, xrand.New(1), Config{})
	var got []int32
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m.Tag) })

	for _, tag := range []int32{0, 1, tagLimit - 1} {
		nw.SendTag(0, 1, tag)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(nw.inflight) != 0 || len(nw.tagSlots) != 0 {
		t.Errorf("packed sends parked %d in-flight and %d tag slots, want 0", len(nw.inflight), len(nw.tagSlots))
	}
	st := nw.Stats()
	if st.BoxedSends != 0 {
		t.Errorf("BoxedSends = %d below the limit, want 0", st.BoxedSends)
	}
	if st.Delivered != 3 || len(got) != 3 {
		t.Fatalf("delivered %d/%d messages, want 3", st.Delivered, len(got))
	}
	want := []int32{0, 1, tagLimit - 1}
	for i, tag := range want {
		if got[i] != tag {
			t.Errorf("delivery %d: tag = %d, want %d", i, got[i], tag)
		}
	}
}

// TestSendTagBoxedAboveLimit pins the fallback side: a tag at or above
// tagLimit cannot pack into the event word, so the message parks in a
// pooled tag slot, BoxedSends counts it, and the tag still arrives intact —
// the semantics of SendTag are identical on both sides of the boundary.
func TestSendTagBoxedAboveLimit(t *testing.T) {
	k := sim.New()
	nw := New(k, 4, xrand.New(1), Config{})
	var got []int32
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m.Tag) })

	tags := []int32{tagLimit, tagLimit + 1, 1 << 20}
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
	// Boxed sends recycle their tag slots and never touch the parked
	// store: after quiescence every tag slot is on the free chain.
	free := 0
	for i := nw.freeTag; i >= 0; i = nw.tagSlots[i].tag {
		free++
	}
	if total := len(nw.tagSlots); free != total || total == 0 || len(nw.inflight) != 0 {
		t.Errorf("tag slots: %d free of %d, parked slots %d; want all tag slots free at quiescence and none parked",
			free, total, len(nw.inflight))
	}
}

// TestSendTagBoxedLargeGroup pins the group-size side of the boundary:
// with n ≥ 2²⁴ the sender id alone fills the event word, so every nonzero
// tag boxes regardless of its value, while tag 0 (plain Send) stays
// slot-free.
func TestSendTagBoxedLargeGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("2²⁴-node network in -short mode")
	}
	k := sim.New()
	nw := New(k, 1<<24, xrand.New(1), Config{})
	var got []int32
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m.Tag) })

	if nw.packTags {
		t.Fatalf("packTags = true at n = 2²⁴, want false")
	}
	nw.SendTag(1<<24-1, 3, 1) // small tag, but the group is too large to pack
	nw.SendTag(5, 3, 0)       // tag 0 always rides slot-free
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.BoxedSends != 1 {
		t.Errorf("BoxedSends = %d, want 1 (only the nonzero tag boxes)", st.BoxedSends)
	}
	if st.Delivered != 2 || len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("deliveries = %v (Delivered %d), want tags [1 0]", got, st.Delivered)
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
	sn.Prepare(2, 4, Config{})
	kernels := []*sim.Kernel{sim.New(), sim.New()}
	for s := 0; s < 2; s++ {
		sn.ResetShard(s, kernels[s], xrand.New(uint64(s)+1))
		sn.Shard(s).RegisterAll(func(sim.Time, Message) {})
	}
	// Member 0 lives on shard 0, member 2 on shard 1: both sends cross.
	sn.Shard(0).SendTag(0, 2, 1)        // packs on arrival
	sn.Shard(0).SendTag(0, 2, tagLimit) // boxes on arrival
	sn.Flush(0)                         // barrier: park arrivals on shard 1
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
