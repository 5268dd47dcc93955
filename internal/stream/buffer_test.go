package stream

import (
	"math"
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// TestBufferNeverExceedsCapacity drives a buffer row through a long
// random insert/expire schedule under every policy and checks the
// capacity invariant after every operation.
func TestBufferNeverExceedsCapacity(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictFIFO, EvictRandom, EvictAge, EvictLpbcast} {
		t.Run(policy.String(), func(t *testing.T) {
			const capacity, msgs = 5, 200
			rng := xrand.New(42)
			pubRound := make([]int32, msgs)
			for m := range pubRound {
				pubRound[m] = int32(rng.Intn(50))
			}
			var b buffers
			b.reset(3, capacity)
			seq := uint32(0)
			for op := 0; op < 2000; op++ {
				l := rng.Intn(3)
				if rng.Bool(0.8) {
					seq++
					b.insert(l, int32(rng.Intn(msgs)), seq, policy, pubRound, rng)
				} else {
					b.expireRow(l, int32(rng.Intn(60)), 8, pubRound)
				}
				for row := 0; row < 3; row++ {
					if n := b.len(row); n > capacity {
						t.Fatalf("op %d: row %d holds %d entries, capacity %d", op, row, n, capacity)
					}
				}
			}
		})
	}
}

// TestEvictionVictimOrder pins each policy's victim choice on a crafted
// full buffer: distinct insertion sequences, publish rounds, and
// duplicate counts that disagree about who should go.
func TestEvictionVictimOrder(t *testing.T) {
	// Message m's publish round; message 2 is oldest news, message 0 newest.
	pubRound := []int32{9, 5, 1, 3, 7}
	fill := func() *buffers {
		var b buffers
		b.reset(1, 4)
		// Insertion order (seq): 3, 0, 2, 1 — so FIFO's victim is msg 3.
		for _, m := range []int32{3, 0, 2, 1} {
			b.insert(0, m, uint32(len(b.row(0))+1), EvictFIFO, pubRound, nil)
		}
		return &b
	}

	t.Run("fifo", func(t *testing.T) {
		b := fill()
		victim, evicted := b.insert(0, 4, 99, EvictFIFO, pubRound, nil)
		if !evicted || victim != 3 {
			t.Fatalf("FIFO evicted %d (evicted=%v), want first-inserted 3", victim, evicted)
		}
	})
	t.Run("age", func(t *testing.T) {
		b := fill()
		victim, evicted := b.insert(0, 4, 99, EvictAge, pubRound, nil)
		if !evicted || victim != 2 {
			t.Fatalf("age evicted %d (evicted=%v), want oldest-published 2", victim, evicted)
		}
	})
	t.Run("lpbcast", func(t *testing.T) {
		b := fill()
		// Message 0 has been seen as a duplicate twice; everyone else never.
		i := b.find(0, 0)
		b.bump(0, i)
		b.bump(0, i)
		victim, evicted := b.insert(0, 4, 99, EvictLpbcast, pubRound, nil)
		if !evicted || victim != 0 {
			t.Fatalf("lpbcast evicted %d (evicted=%v), want most-duplicated 0", victim, evicted)
		}
	})
	t.Run("lpbcast-tie-breaks-on-age", func(t *testing.T) {
		b := fill()
		// All duplicate counts equal: falls back to oldest publish round.
		victim, evicted := b.insert(0, 4, 99, EvictLpbcast, pubRound, nil)
		if !evicted || victim != 2 {
			t.Fatalf("lpbcast tie evicted %d (evicted=%v), want oldest-published 2", victim, evicted)
		}
	})
	t.Run("random-is-seeded", func(t *testing.T) {
		a, b := fill(), fill()
		va, _ := a.insert(0, 4, 99, EvictRandom, pubRound, xrand.New(8))
		vb, _ := b.insert(0, 4, 99, EvictRandom, pubRound, xrand.New(8))
		if va != vb {
			t.Fatalf("random eviction not reproducible: %d vs %d", va, vb)
		}
	})
}

// TestExpireRowStable checks that expiry compacts in place preserving
// insertion order among survivors.
func TestExpireRowStable(t *testing.T) {
	pubRound := []int32{1, 10, 1, 10, 1}
	var b buffers
	b.reset(1, 8)
	for _, m := range []int32{0, 1, 2, 3, 4} {
		b.insert(0, m, uint32(m+1), EvictFIFO, pubRound, nil)
	}
	// active=2: entries published round 1 expire at round 3.
	if dropped := b.expireRow(0, 3, 2, pubRound); dropped != 3 {
		t.Fatalf("dropped %d entries, want 3", dropped)
	}
	row := b.row(0)
	if len(row) != 2 || row[0].msg != 1 || row[1].msg != 3 {
		t.Fatalf("survivors %v, want [1 3] in insertion order", row)
	}
}

// TestEvictionPoliciesUnderPressure runs each policy at an offered load
// that overflows the buffers, checking the ledger and that eviction loss
// is actually exercised and deterministic.
func TestEvictionPoliciesUnderPressure(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictFIFO, EvictRandom, EvictAge, EvictLpbcast} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Discipline = DisciplinePush
			cfg.Rate = 3000
			cfg.BufferCap = 3
			cfg.Eviction = policy
			a, err := RunProbed(cfg, testNetConfig(), xrand.New(21), nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkLedger(t, a)
			if a.Ledger.Evicted == 0 {
				t.Fatal("overload run evicted nothing")
			}
			b, err := RunProbed(cfg, testNetConfig(), xrand.New(21), nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("eviction run not deterministic across repeats")
			}
			sharded, err := RunSharded(cfg, testNetConfig(), xrand.New(21), nil, nil, nil,
				core.ShardOptions{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, sharded) {
				t.Fatal("eviction run diverged between single and shards=1")
			}
		})
	}
}

// TestReliabilityPin25Seeds is the satellite statistical pin: mean
// per-message reliability over 25 seeds at a fixed (rate, policy)
// operating point. The run is byte-deterministic per seed, so the
// 25-seed mean is an exact constant of the implementation; the tolerance
// only absorbs floating-point summation order.
func TestReliabilityPin25Seeds(t *testing.T) {
	cfg := Config{
		N:          48,
		Rate:       1500,
		Duration:   200 * time.Millisecond,
		Fanout:     dist.NewFixed(2),
		BufferCap:  4,
		Eviction:   EvictAge,
		Discipline: DisciplinePush,
	}
	arena := NewArena()
	var agg stats.Running
	for seed := uint64(1); seed <= 25; seed++ {
		res, err := RunProbed(cfg, testNetConfig(), xrand.New(seed), nil, arena, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, res)
		agg.Add(res.MeanReliability)
	}
	const pinned = 0.672227069416
	if math.Abs(agg.Mean()-pinned) > 1e-9 {
		t.Errorf("25-seed mean reliability %.12f, pinned %.12f", agg.Mean(), pinned)
	}
}
