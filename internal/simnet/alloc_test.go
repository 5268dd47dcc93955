package simnet

import (
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// TestSendDeliverZeroAlloc is the allocation regression guard on the
// steady-state send→deliver path: once the event queue and slot pools are
// warm, pushing a message through latency + loss draws, the typed kernel
// event, and handler dispatch must not touch the heap at all. This is the
// property that makes n=10⁵..10⁶ executions GC-free. It holds for plain
// sends and for boxed SendTag sends (tags ≥ packLimit, parked in in-flight
// slots) with no tracer, under a lite tracer, and across shards through
// ScheduleArrival; BoxedSends counts every boxed send that was scheduled,
// and every parked slot is back on its free list when the fabric drains.
func TestSendDeliverZeroAlloc(t *testing.T) {
	cfg := Config{
		Latency: UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond},
		Loss:    BernoulliLoss{P: 0.05},
	}
	// n = bandN so tags past the packed band exist; the 512 messages of a
	// batch spread their endpoints over both shards' blocks.
	const n, spread = bandN, bandN / 512
	// rig is a warmed-up fabric: nets[s] runs on kernels[s] and owns the
	// s-th block of members; flush hands cross-shard sends over.
	type rig struct {
		kernels []*sim.Kernel
		nets    []*Network
		stats   func() Stats
		flush   func()
	}
	single := func(lite bool) rig {
		k := sim.New()
		nw := New(k, n, xrand.New(7), cfg)
		if lite {
			nw.SetTracerLite(func(Event) {})
		}
		return rig{[]*sim.Kernel{k}, []*Network{nw}, nw.Stats, func() {}}
	}
	sharded := func() rig {
		sn := NewShardedNet()
		sn.Prepare(2, n, cfg)
		r := rig{kernels: []*sim.Kernel{sim.New(), sim.New()}, stats: sn.Stats, flush: func() { sn.Flush(0) }}
		for s, k := range r.kernels {
			sn.ResetShard(s, k, xrand.New(uint64(s)+7))
			r.nets = append(r.nets, sn.Shard(s))
		}
		return r
	}
	for _, tc := range []struct {
		name  string
		boxed bool
		rig   func() rig
	}{
		{"send", false, func() rig { return single(false) }},
		{"boxed", true, func() rig { return single(false) }},
		{"boxed-lite", true, func() rig { return single(true) }},
		{"boxed-cross-shard", true, sharded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig()
			boxedTag := func(from NodeID) int32 { return int32(r.nets[0].packLimit()) + int32(from) }
			delivered := 0
			for _, nw := range r.nets {
				nw.RegisterAll(func(_ sim.Time, m Message) {
					delivered++
					if tc.boxed && m.Tag != boxedTag(m.From) {
						t.Errorf("message from %d delivered tag %d, want %d", m.From, m.Tag, boxedTag(m.From))
					}
				})
			}
			batch := func() {
				for i := 0; i < 512; i++ {
					from, to := NodeID(i*spread), NodeID((i*7+1)%512*spread)
					nw := r.nets[int(from)*len(r.nets)/n]
					if tc.boxed {
						nw.SendTag(from, to, boxedTag(from))
					} else {
						nw.Send(from, to, nil)
					}
				}
				r.flush()
				for _, k := range r.kernels {
					if err := k.RunAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm the queue and slot pools; the calendar queue's sliding
			// window must cross its whole bucket ring once before every
			// ring slot has record capacity.
			for r.kernels[0].Now() < sim.Time(2*time.Second) {
				batch()
			}
			if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
				t.Fatalf("steady-state send→deliver allocates %.1f per 512-message batch, want 0", allocs)
			}
			if delivered == 0 {
				t.Fatal("nothing delivered")
			}
			st := r.stats()
			want := int64(0)
			if tc.boxed {
				want = st.Sent - st.DroppedLoss // every scheduled send boxes
			}
			if st.BoxedSends != want {
				t.Errorf("BoxedSends = %d, want %d (stats %+v)", st.BoxedSends, want, st)
			}
			parked := 0
			for s, nw := range r.nets {
				parked += len(nw.inflight)
				if len(nw.freeMsg) != len(nw.inflight) {
					t.Errorf("shard %d: %d of %d parked slots free at quiescence, want all", s, len(nw.freeMsg), len(nw.inflight))
				}
			}
			if (parked > 0) != tc.boxed {
				t.Errorf("%d parked slots, want some exactly when sends box", parked)
			}
		})
	}
}

// TestNetworkReset checks that a Reset network is indistinguishable from a
// fresh one: nodes back up, counters zeroed, partition and handlers
// cleared, and pooled payload slots recycled without leaking payloads.
func TestNetworkReset(t *testing.T) {
	kernel := sim.New()
	rng := xrand.New(7)
	nw := New(kernel, 8, rng, Config{})
	nw.RegisterAll(func(_ sim.Time, _ Message) {})
	nw.Crash(3)
	nw.SetPartition(SplitPartition(func(id NodeID) bool { return id < 4 }))
	nw.Send(0, 1, "payload")
	if err := kernel.RunAll(); err != nil {
		t.Fatal(err)
	}

	kernel.Reset()
	nw.Reset(kernel, 8, rng, Config{})
	if !nw.Up(3) {
		t.Error("Reset left node 3 crashed")
	}
	if s := nw.Stats(); s != (Stats{}) {
		t.Errorf("Reset left stats %+v", s)
	}
	// The old shared handler must be gone: deliveries now drop.
	nw.Send(4, 1, nil) // would have been blocked by the stale partition
	if err := kernel.RunAll(); err != nil {
		t.Fatal(err)
	}
	s := nw.Stats()
	if s.Sent != 1 || s.DroppedPart != 0 || s.DroppedCrash != 1 || s.Delivered != 0 {
		t.Errorf("post-Reset delivery stats %+v", s)
	}
	t.Run("parked-slots", testResetParkedSlots)
}

// testResetParkedSlots cancels a run with boxed messages in parked slots
// both airborne and recycled onto the free list, then Resets: fresh boxed
// sends must fill the store from slot 0 — no stale free-list entry — and
// deliver with their own from and tag.
func testResetParkedSlots(t *testing.T) {
	kernel := sim.New()
	rng := xrand.New(7)
	cfg := Config{Latency: UniformLatency{Lo: time.Millisecond, Hi: 9 * time.Millisecond}}
	nw := New(kernel, bandN, rng, cfg)
	nw.RegisterAll(func(sim.Time, Message) {})
	limit := int32(nw.packLimit())
	for i := 0; i < 64; i++ {
		nw.SendTag(NodeID(i%8), NodeID((i+1)%8), limit+int32(i))
	}
	if err := kernel.Run(sim.Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if st := nw.Stats(); st.Delivered == 0 || st.InFlight() == 0 || len(nw.freeMsg) == 0 {
		t.Fatalf("cancel point: stats %+v, %d free slots; want slots both airborne and free", st, len(nw.freeMsg))
	}

	kernel.Reset()
	nw.Reset(kernel, bandN, rng, cfg)
	type msg struct {
		from NodeID
		tag  int32
	}
	got := map[msg]int{}
	nw.RegisterAll(func(_ sim.Time, m Message) { got[msg{m.From, m.Tag}]++ })
	const fresh = 5
	for i := 0; i < fresh; i++ {
		nw.SendTag(NodeID(7-i), NodeID(i), limit+1000+int32(i))
	}
	if len(nw.inflight) != fresh || len(nw.freeMsg) != 0 {
		t.Errorf("%d fresh boxed sends occupy a parked store of %d slots (%d free), want %d (0 free)",
			fresh, len(nw.inflight), len(nw.freeMsg), fresh)
	}
	if err := kernel.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fresh; i++ {
		if m := (msg{NodeID(7 - i), limit + 1000 + int32(i)}); got[m] != 1 {
			t.Errorf("message from %d tag %d delivered %d times, want 1 (all: %v)", m.from, m.tag, got[m], got)
		}
	}
	if st := nw.Stats(); st.Delivered != fresh || st.BoxedSends != fresh {
		t.Errorf("post-Reset stats %+v, want %d delivered and boxed", st, fresh)
	}
}
