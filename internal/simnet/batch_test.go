package simnet

import (
	"math"
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// TestSendBatchDelivery pins the basic batch contract: one SendBatch is one
// wire message (one Sent, one Delivered) while the entry counters carry the
// id payload size, the ids arrive intact and in order, the caller's scratch
// is free for reuse the moment SendBatch returns, and an empty ids slice is
// a complete no-op.
func TestSendBatchDelivery(t *testing.T) {
	k := sim.New()
	nw := New(k, 4, xrand.New(1), Config{})
	type delivery struct {
		from, to NodeID
		kind     int32
		ids      []int32
	}
	var got []delivery
	nw.RegisterBatchAll(func(_ sim.Time, from, to NodeID, kind int32, ids []int32) {
		// ids aliases a pooled slab: copy before retaining.
		got = append(got, delivery{from, to, kind, append([]int32(nil), ids...)})
	})

	scratch := []int32{7, 11, 13, 17}
	nw.SendBatch(0, 1, 2, scratch)
	scratch[0] = -99 // scratch is copied at send time; mutation must not leak
	nw.SendBatch(2, 3, 0, scratch[:1])
	nw.SendBatch(0, 1, 1, nil) // empty: no-op, no counters
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}

	st := nw.Stats()
	if st.Sent != 2 || st.Delivered != 2 {
		t.Errorf("wire counts Sent/Delivered = %d/%d, want 2/2 (one per batch)", st.Sent, st.Delivered)
	}
	if st.Batches != 2 || st.BatchEntries != 5 {
		t.Errorf("Batches/BatchEntries = %d/%d, want 2/5", st.Batches, st.BatchEntries)
	}
	if st.BatchesDelivered != 2 || st.BatchEntriesDelivered != 5 {
		t.Errorf("BatchesDelivered/BatchEntriesDelivered = %d/%d, want 2/5",
			st.BatchesDelivered, st.BatchEntriesDelivered)
	}
	if st.SentEntries() != 5 || st.DeliveredEntries() != 5 {
		t.Errorf("SentEntries/DeliveredEntries = %d/%d, want 5/5", st.SentEntries(), st.DeliveredEntries())
	}
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(got))
	}
	if d := got[0]; d.from != 0 || d.to != 1 || d.kind != 2 ||
		len(d.ids) != 4 || d.ids[0] != 7 || d.ids[1] != 11 || d.ids[2] != 13 || d.ids[3] != 17 {
		t.Errorf("first delivery = %+v, want from=0 to=1 kind=2 ids=[7 11 13 17]", d)
	}
	if d := got[1]; d.kind != 0 || len(d.ids) != 1 || d.ids[0] != -99 {
		t.Errorf("second delivery = %+v, want kind=0 ids=[-99]", d)
	}
	if nw.SlabsInUse() != 0 {
		t.Errorf("SlabsInUse = %d at quiescence, want 0", nw.SlabsInUse())
	}
}

// TestSendBatchHugeIDs pins the tag-boundary independence of the batch
// path: ids at or far above the packed-tag limit (up to the largest int32)
// ride in the slab, never in the event word, so a batch of them
// costs zero BoxedSends — unlike per-id SendTag, where each would box.
func TestSendBatchHugeIDs(t *testing.T) {
	k := sim.New()
	nw := New(k, bandN, xrand.New(1), Config{})
	var got []int32
	nw.RegisterBatchAll(func(_ sim.Time, _, _ NodeID, _ int32, ids []int32) {
		got = append(got, ids...)
	})

	ids := []int32{int32(nw.packLimit()), 1 << 29, 1 << 30, math.MaxInt32}
	nw.SendBatch(0, 1, 3, ids)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if st := nw.Stats(); st.BoxedSends != 0 {
		t.Errorf("BoxedSends = %d for a batch of huge ids, want 0", st.BoxedSends)
	}
	if len(got) != len(ids) {
		t.Fatalf("delivered %d ids, want %d", len(got), len(ids))
	}
	for i, id := range ids {
		if got[i] != id {
			t.Errorf("id %d: got %d, want %d", i, got[i], id)
		}
	}
}

// TestSendBatchSlabRecycling drives batches through every drop path — down
// sender, partition, loss, crashed destination, missing handler — and
// checks the pool-leak invariant (SlabsInUse == 0 at quiescence), entry
// conservation (accepted entries = delivered entries + entries lost in
// transit), and that sequential batches reuse one slab instead of growing
// the pool.
func TestSendBatchSlabRecycling(t *testing.T) {
	k := sim.New()
	nw := New(k, 4, xrand.New(1), Config{})
	nw.RegisterBatchAll(func(sim.Time, NodeID, NodeID, int32, []int32) {})
	ids := []int32{1, 2, 3}

	// Send-time drops never lease a slab.
	nw.Crash(0)
	nw.SendBatch(0, 1, 0, ids) // down sender
	nw.Restart(0)
	if len(nw.slabs) != 0 {
		t.Errorf("down-sender batch leased a slab (pool size %d), want none", len(nw.slabs))
	}
	nw.SetLoss(BernoulliLoss{P: 1})
	nw.SendBatch(0, 1, 0, ids) // lost in transit (send-time draw)
	nw.SetLoss(nil)
	nw.SetPartition(func(a, b NodeID) bool { return true })
	nw.SendBatch(0, 1, 0, ids) // partitioned at send time
	nw.SetPartition(nil)
	if len(nw.slabs) != 0 {
		t.Errorf("send-time drops leased slabs (pool size %d), want none", len(nw.slabs))
	}

	// Delivery-time drop: destination crashes while the batch is airborne.
	nw.SendBatch(0, 2, 0, ids)
	nw.Crash(2)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if nw.SlabsInUse() != 0 {
		t.Errorf("SlabsInUse = %d after a delivery-time drop, want 0", nw.SlabsInUse())
	}

	// Sequential delivered batches recycle one slab.
	for i := 0; i < 50; i++ {
		nw.SendBatch(0, 1, 0, ids)
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if nw.SlabsInUse() != 0 {
		t.Errorf("SlabsInUse = %d at quiescence, want 0", nw.SlabsInUse())
	}
	if len(nw.slabs) > 1 {
		t.Errorf("slab pool grew to %d across sequential batches, want 1 recycled slab", len(nw.slabs))
	}

	st := nw.Stats()
	accepted := st.Batches // down-sender batch excluded
	if st.BatchesDown != 1 || st.BatchEntriesDown != 3 {
		t.Errorf("BatchesDown/BatchEntriesDown = %d/%d, want 1/3", st.BatchesDown, st.BatchEntriesDown)
	}
	if accepted != 53 || st.BatchEntries != 53*3 {
		t.Errorf("Batches/BatchEntries = %d/%d, want 53/159", accepted, st.BatchEntries)
	}
	// Entry conservation at quiescence: accepted − delivered = lost in
	// transit (one loss draw, one partition, one crashed destination).
	lost := st.SentEntries() - st.DeliveredEntries()
	if lost != 9 {
		t.Errorf("entries lost in transit = %d, want 9 (3 batches of 3)", lost)
	}
	if st.DeliveredEntries() != 50*3 {
		t.Errorf("DeliveredEntries = %d, want 150", st.DeliveredEntries())
	}
}

// TestSendBatchNoHandler: a batch arriving at a network without a
// registered batch handler is unprocessable — dropped like a delivery to a
// crashed node — and its slab is still recycled.
func TestSendBatchNoHandler(t *testing.T) {
	k := sim.New()
	nw := New(k, 2, xrand.New(1), Config{})
	nw.RegisterAll(func(sim.Time, Message) {}) // message handler only
	nw.SendBatch(0, 1, 0, []int32{1, 2})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.DroppedCrash != 1 || st.BatchesDelivered != 0 {
		t.Errorf("DroppedCrash/BatchesDelivered = %d/%d, want 1/0", st.DroppedCrash, st.BatchesDelivered)
	}
	if nw.SlabsInUse() != 0 {
		t.Errorf("SlabsInUse = %d after an unhandled batch, want 0", nw.SlabsInUse())
	}
}

// TestSendBatchReentrant: a batch handler may send fresh batches while
// iterating its (pooled) ids slice — the slab is released only after the
// handler returns, so the relay's payload cannot be overwritten mid-flight.
func TestSendBatchReentrant(t *testing.T) {
	k := sim.New()
	nw := New(k, 3, xrand.New(1), Config{})
	var final []int32
	nw.RegisterBatchAll(func(_ sim.Time, _, to NodeID, kind int32, ids []int32) {
		if to == 1 { // relay: forward the batch we are iterating
			nw.SendBatch(1, 2, kind, ids)
			return
		}
		final = append(final, ids...)
	})
	want := []int32{5, 6, 7, 8}
	nw.SendBatch(0, 1, 0, want)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(final) != len(want) {
		t.Fatalf("relayed batch delivered %d ids, want %d", len(final), len(want))
	}
	for i, id := range want {
		if final[i] != id {
			t.Errorf("relayed id %d: got %d, want %d", i, final[i], id)
		}
	}
	if nw.SlabsInUse() != 0 {
		t.Errorf("SlabsInUse = %d at quiescence, want 0", nw.SlabsInUse())
	}
}

// TestSendBatchCrossShard: a batch whose destination lives on another
// shard crosses through the per-pair id buffers at the barrier, arrives
// with its ids intact, and the fabric-summed stats and slab invariant hold
// across shards.
func TestSendBatchCrossShard(t *testing.T) {
	sn := NewShardedNet()
	sn.Prepare(2, 4, Config{Latency: ConstantLatency{D: time.Millisecond}})
	kernels := []*sim.Kernel{sim.New(), sim.New()}
	var got []int32
	var gotKind int32 = -1
	for s := 0; s < 2; s++ {
		sn.ResetShard(s, kernels[s], xrand.New(uint64(s)+1))
		sn.Shard(s).RegisterBatchAll(func(_ sim.Time, from, to NodeID, kind int32, ids []int32) {
			gotKind = kind
			got = append(got, ids...)
		})
	}
	// Member 0 lives on shard 0, member 2 on shard 1: the batch crosses.
	want := []int32{3, 1 << 26, 41}
	sn.Shard(0).SendBatch(0, 2, 1, want)
	sn.Flush(0) // barrier: park the arrival on shard 1
	for _, k := range kernels {
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if gotKind != 1 {
		t.Errorf("cross-shard batch kind = %d, want 1", gotKind)
	}
	if len(got) != len(want) {
		t.Fatalf("cross-shard batch delivered %d ids, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i] != id {
			t.Errorf("cross-shard id %d: got %d, want %d", i, got[i], id)
		}
	}
	st := sn.Stats()
	if st.Batches != 1 || st.BatchEntries != 3 || st.BatchesDelivered != 1 || st.BatchEntriesDelivered != 3 {
		t.Errorf("fabric batch stats = %+v, want 1 batch of 3 entries sent and delivered", st)
	}
	if st.SentEntries() != 3 || st.DeliveredEntries() != 3 {
		t.Errorf("fabric SentEntries/DeliveredEntries = %d/%d, want 3/3", st.SentEntries(), st.DeliveredEntries())
	}
	if sn.SlabsInUse() != 0 {
		t.Errorf("fabric SlabsInUse = %d at quiescence, want 0", sn.SlabsInUse())
	}
}
