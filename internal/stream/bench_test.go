package stream

import (
	"runtime"
	"testing"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// benchStream drives one streaming configuration as a sub-benchmark:
// untimed warm-up (arena rows, bitsets, kernel queues grow once), then
// timed runs reporting entry-unit throughput (msgs/sec counts id entries,
// so per-id and batched wire formats compare on equal terms), the warm
// malloc count and boxed/op, the sends per run that left the packed event
// record for a parked slot (simnet.Stats.BoxedSends). allocGuard > 0 fails the benchmark when a warm iteration
// allocates more than that — the arena-discipline and summary-mode
// O(M)-allocation guard.
func benchStream(b *testing.B, cfg Config, netCfg simnet.Config, minRel float64, allocGuard uint64) {
	arena := NewArena()
	r := xrand.New(1)
	run := func() Result {
		res, err := RunProbed(cfg, netCfg, r, nil, arena, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Published == 0 || res.MeanReliability < minRel {
			b.Fatalf("broken stream: published %d, reliability %.4f", res.Published, res.MeanReliability)
		}
		return res
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sent, boxed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run()
		sent += res.MessagesSent // Ledger.Sends: id entries, wire-format independent
		boxed += res.Net.BoxedSends
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perIter := (after.Mallocs - before.Mallocs) / uint64(b.N)
	b.ReportMetric(float64(perIter), "warm-allocs/op")
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/sec")
	b.ReportMetric(float64(boxed)/float64(b.N), "boxed/op")
	if allocGuard > 0 && perIter > allocGuard {
		b.Fatalf("warm streaming iteration makes %d mallocs, want <= %d — state is escaping the arena",
			perIter, allocGuard)
	}
}

// BenchmarkStreamSteadyState is the streaming headline, in three regimes:
//
//   - n=100k/rumors=32: the group-size story — 10⁵ members, dozens of
//     concurrent rumors, eager per-receipt forwarding. Alloc-guarded: a
//     warm iteration may allocate O(messages) accounting but nothing O(n).
//   - rumors=10k wire=perid|batch: the wire-format story — the same 10⁴-
//     rumor push workload with one event per buffered id per peer versus
//     one batched digest per (member, round, peer). msgs/sec counts id
//     entries for both, so the ratio is the batching speedup.
//     wire=perid/pushpull is the bench's stream_perid discipline: push-
//     pull rounds under 5% loss, the one per-id regime that drives
//     digests, NACKs and repairs.
//   - rumors=1M wire=batch summary: the memory-posture story — 10⁶
//     concurrent rumors under batched wire + summary-only accounting,
//     alloc-guarded to a small constant: no O(M) allocation survives
//     warm-up, so multi-million-rumor sweeps hold a few hundred MB.
func BenchmarkStreamSteadyState(b *testing.B) {
	b.Run("n=100k/rumors=32", func(b *testing.B) {
		benchStream(b, Config{
			N:          100_000,
			Rate:       160, // ~32 concurrent rumors over the window
			Duration:   200 * time.Millisecond,
			Fanout:     dist.NewPoisson(5),
			AliveRatio: 0.9,
			BufferCap:  16,
			Eviction:   EvictLpbcast,
			Discipline: DisciplineEager,
		}, simnet.Config{
			Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond},
		}, 0.5, 128)
	})

	rumors10k := Config{
		N:             5_000,
		Rate:          125_000, // schedule cap reached ~80ms in
		Duration:      200 * time.Millisecond,
		Fanout:        dist.NewFixed(3),
		BufferCap:     16,
		Discipline:    DisciplinePush,
		ActiveRounds:  8,
		RoundInterval: 10 * time.Millisecond,
		MaxMessages:   10_000,
	}
	net10k := simnet.Config{
		Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond},
	}
	b.Run("rumors=10k/wire=perid", func(b *testing.B) {
		benchStream(b, rumors10k, net10k, 0, 0)
	})
	b.Run("rumors=10k/wire=perid/pushpull", func(b *testing.B) {
		cfg, netCfg := rumors10k, net10k
		cfg.Discipline = DisciplinePushPull
		netCfg.Loss = simnet.BernoulliLoss{P: 0.05}
		benchStream(b, cfg, netCfg, 0, 0)
	})
	b.Run("rumors=10k/wire=batch", func(b *testing.B) {
		cfg := rumors10k
		cfg.Batch = true
		benchStream(b, cfg, net10k, 0, 0)
	})

	b.Run("rumors=1M/wire=batch/summary", func(b *testing.B) {
		if testing.Short() {
			b.Skip("10⁶-rumor run in -short mode")
		}
		benchStream(b, Config{
			N:             2_000,
			Rate:          12_500_000, // schedule cap reached ~80ms in
			Duration:      160 * time.Millisecond,
			Fanout:        dist.NewFixed(3),
			BufferCap:     16,
			Discipline:    DisciplinePush,
			ActiveRounds:  8,
			RoundInterval: 10 * time.Millisecond,
			MaxMessages:   1_000_000,
			Batch:         true,
			SummaryOnly:   true,
		}, simnet.Config{
			Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond},
		}, 0, 128)
	})
}
