package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/simnet"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// scaleN picks the group size for the scale tests: 10⁵ normally, 10⁴ under
// -short so the suite stays snappy in CI's race runs.
func scaleN(t *testing.T) int {
	if testing.Short() {
		return 10_000
	}
	return 100_000
}

// TestExecuteOnNetworkAtScale runs the DES executor at n=10⁵ (the paper
// stops at 5000) and checks the arena path is deterministic: a recycled
// arena reproduces a fresh run exactly.
func TestExecuteOnNetworkAtScale(t *testing.T) {
	n := scaleN(t)
	p := Params{N: n, Fanout: dist.NewPoisson(6), AliveRatio: 0.9}
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}

	fresh, err := ExecuteOnNetworkArena(p, cfg, xrand.New(11), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Reliability < 0.99 {
		t.Errorf("n=%d reliability %.4f, want near-total delivery at fanout 6", n, fresh.Reliability)
	}
	if fresh.Net.Sent < int64(n) {
		t.Errorf("suspiciously few sends: %d", fresh.Net.Sent)
	}

	arena := NewNetArena()
	// Dirty the arena with a different-shaped run first.
	if _, err := ExecuteOnNetworkArena(Params{N: 500, Fanout: dist.NewFixed(3), AliveRatio: 1}, simnet.Config{}, xrand.New(5), nil, arena); err != nil {
		t.Fatal(err)
	}
	reused, err := ExecuteOnNetworkArena(p, cfg, xrand.New(11), nil, arena)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != reused {
		t.Errorf("recycled arena diverged:\n fresh:  %+v\n reused: %+v", fresh, reused)
	}
}

// TestExecuteOnNetworkSteadyStateAllocs is the end-to-end allocation guard
// proving the arena path makes zero O(n)-sized allocations: with a warm
// arena, a whole n=10⁵ execution (≈ 6·10⁵ messages) must stay within a
// small constant number of allocations AND a small constant number of
// bytes. The byte bound is the sharp edge — before the bitset/pooled-mask
// work, the per-run mask redraw alone allocated ~1.6 MB at n=10⁵; any
// O(n) allocation sneaking back in blows the budget by orders of
// magnitude.
func TestExecuteOnNetworkSteadyStateAllocs(t *testing.T) {
	n := scaleN(t)
	p := Params{N: n, Fanout: dist.NewPoisson(6), AliveRatio: 0.9}
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
	arena := NewNetArena()
	r := xrand.New(23)
	run := func() {
		if _, err := ExecuteOnNetworkArena(p, cfg, r, nil, arena); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena (queue, slot pool, buffers grow once)
	run() // second pass lets calendar buckets finish sizing
	allocs := testing.AllocsPerRun(3, run)
	// ~12 fixed allocations per run (RNG split, interface boxes,
	// closures); the bound just has to be vastly below one per message.
	if allocs > 64 {
		t.Errorf("n=%d execution makes %.0f allocations per run, want a per-run constant (<= 64)", n, allocs)
	}
	var before, after runtime.MemStats
	const rounds = 3
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / rounds
	// The fixed per-run allocations total well under 4 KB; one O(n) slice
	// at n=10⁵ would be ≥ 100 KB. (ReadMemStats itself allocates nothing.)
	if perRun > 16<<10 {
		t.Errorf("n=%d execution allocates %d bytes per run, want an n-independent constant (<= 16KiB)", n, perRun)
	}
}

// TestNetArenaPoolsFailureMask pins the satellite fix on its own: the
// arena's pooled failure mask must (a) leave results byte-identical to a
// fresh mask draw, and (b) actually be pooled — the mask redraw was the
// last O(n) per-run allocation, so runs at two very different n through
// the same arena must not differ in allocated bytes by anything close to
// the Δn of a boolean mask.
func TestNetArenaPoolsFailureMask(t *testing.T) {
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
	for _, kind := range []MaskKind{ExactCount, Bernoulli} {
		p := Params{N: 20_000, Fanout: dist.NewPoisson(5), AliveRatio: 0.7, MaskKind: kind}
		fresh, err := ExecuteOnNetworkArena(p, cfg, xrand.New(99), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		arena := NewNetArena()
		// Dirty the arena's mask with a different shape first.
		dirty := Params{N: 777, Fanout: dist.NewFixed(3), AliveRatio: 0.5, MaskKind: kind}
		if _, err := ExecuteOnNetworkArena(dirty, simnet.Config{}, xrand.New(5), nil, arena); err != nil {
			t.Fatal(err)
		}
		pooled, err := ExecuteOnNetworkArena(p, cfg, xrand.New(99), nil, arena)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != pooled {
			t.Errorf("%v: pooled mask diverged:\n fresh:  %+v\n pooled: %+v", kind, fresh, pooled)
		}
		// Warm, then require the mask redraw to be allocation-free.
		r := xrand.New(1)
		for i := 0; i < 2; i++ {
			if _, err := ExecuteOnNetworkArena(p, cfg, r, nil, arena); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ExecuteOnNetworkArena(p, cfg, r, nil, arena); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Errorf("%v: warm arena run makes %.0f allocations; mask pooling is broken", kind, allocs)
		}
	}
}

// BenchmarkExecuteOnNetworkMillion is the n=10⁶ feasibility check, 200×
// the paper's ceiling: ~5.4M messages through the flat queue in one
// iteration. Kept out of the default test run (benchmarks only execute
// under -bench) so the race-enabled CI test job stays fast.
//
// It doubles as the probes-off alloc guard: after one untimed warm-up
// run, each iteration must stay within 25 mallocs — the zero-overhead
// contract of the telemetry layer is that a nil probe leaves this exact
// path untouched, and CI fails the benchmark if an observability hook
// starts allocating on it. The probed variant below measures what
// telemetry actually costs when switched on.
func BenchmarkExecuteOnNetworkMillion(b *testing.B) {
	benchmarkMillion(b, nil)
}

// BenchmarkExecuteOnNetworkMillionProbed is the same execution observed
// by a pooled probe (curves + histograms, no ring tracer): the overhead
// quoted in README/ROADMAP is this benchmark vs the probes-off one.
func BenchmarkExecuteOnNetworkMillionProbed(b *testing.B) {
	benchmarkMillion(b, obs.New(obs.Options{}))
}

func benchmarkMillion(b *testing.B, probe *obs.Probe) {
	p := Params{N: 1_000_000, Fanout: dist.NewPoisson(5), AliveRatio: 0.9}
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
	arena := NewNetArena()
	r := xrand.New(1)
	run := func() NetResult {
		res, err := ExecuteOnNetworkProbed(p, cfg, r, nil, arena, probe)
		if err != nil {
			b.Fatal(err)
		}
		// Eq. 11 gives R ≈ 0.988 for Poisson(5) at q=0.9; just guard
		// against a broken spread.
		if res.Reliability < 0.95 {
			b.Fatalf("reliability %.4f at n=10⁶", res.Reliability)
		}
		return res
	}
	run() // untimed warm-up: arena queue/buffers (and probe pools) grow once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sent, settled int64
	var peak int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run()
		sent += res.Net.Sent
		settled += res.Net.Settled
		peak += arena.kernels[0].QueueStats().PeakPending
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perIter := (after.Mallocs - before.Mallocs) / uint64(b.N)
	b.ReportMetric(float64(perIter), "warm-allocs/op")
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/sec")
	// Sends settled at send time (simnet.Stats.Settled, none under a probe)
	// and the event queue's high-water mark they keep down.
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	b.ReportMetric(float64(peak)/float64(b.N), "peak-pending/op")
	// The alloc guard applies to the probes-off path only: a probe's
	// Metrics snapshots may allocate, the unobserved hot path must not.
	if probe == nil && perIter > 25 {
		b.Fatalf("probes-off warm n=10⁶ execution makes %d mallocs/op, want <= 25 — an observability hook is allocating on the unobserved hot path", perIter)
	}
}

// BenchmarkExecuteOnNetworkTenMillion records the current single-core
// ceiling: n=10⁷ (2000× the paper's n=5000), ~5.4·10⁷ messages per
// execution through the calendar queue with bitset run state. One
// iteration peaks around ~2.5 GB of pooled queue/arena state; it is kept
// out of CI (the smoke step runs only the n=10⁶ benchmark).
func BenchmarkExecuteOnNetworkTenMillion(b *testing.B) {
	p := Params{N: 10_000_000, Fanout: dist.NewPoisson(5), AliveRatio: 0.9}
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
	arena := NewNetArena()
	r := xrand.New(1)
	var sent int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ExecuteOnNetworkArena(p, cfg, r, nil, arena)
		if err != nil {
			b.Fatal(err)
		}
		if res.Reliability < 0.95 {
			b.Fatalf("reliability %.4f at n=10⁷", res.Reliability)
		}
		sent += res.Net.Sent
	}
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkExecuteOnNetworkShardedMillion quotes the executor's multicore
// scaling at n=10⁶ on the host running it: shards=1 is the same run as
// BenchmarkExecuteOnNetworkMillion, higher counts add windows and
// barriers and spread the members across cores.
func BenchmarkExecuteOnNetworkShardedMillion(b *testing.B) {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkSharded(b, 1_000_000, shards)
		})
	}
}

// BenchmarkExecuteOnNetworkShardedTenMillion is the tentpole headline:
// n=10⁷ on every core, ~5.4·10⁷ messages per execution across the shard
// kernels. Compare against BenchmarkExecuteOnNetworkTenMillion (the
// single-core ceiling, ~84s/op when it was recorded) for the speedup on
// a given host. Like its one-shard sibling it is kept out of CI —
// one iteration needs a few GB of pooled shard state.
func BenchmarkExecuteOnNetworkShardedTenMillion(b *testing.B) {
	benchmarkSharded(b, 10_000_000, 0) // 0 = one shard per core
}

func benchmarkSharded(b *testing.B, n, shards int) {
	p := Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: 0.9}
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
	eff := EffectiveShards(shards, n, cfg)
	arena := NewNetArena()
	r := xrand.New(1)
	run := func() NetResult {
		res, err := ExecuteOnNetworkSharded(p, cfg, r, nil, arena, nil, ShardOptions{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		if res.Reliability < 0.95 {
			b.Fatalf("reliability %.4f at n=%d shards=%d", res.Reliability, n, eff)
		}
		return res
	}
	run() // untimed warm-up: the shard kernels' queues and buffers grow once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sent, settled int64
	var peak int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run()
		sent += res.Net.Sent
		settled += res.Net.Settled
		for _, k := range arena.run.Kernels {
			peak += k.QueueStats().PeakPending
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64((after.Mallocs-before.Mallocs)/uint64(b.N)), "warm-allocs/op")
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/sec")
	b.ReportMetric(float64(eff), "shards")
	// Sends settled at send time and the shard queues' summed high-water
	// marks: a copy settled against another shard's held snapshot is one
	// event and one cross-shard buffer entry fewer.
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	b.ReportMetric(float64(peak)/float64(b.N), "peak-pending/op")
}

// BenchmarkExecuteOnNetwork is the headline hot-path benchmark: one full
// event-driven execution per iteration, with the arena recycled the way
// sweep workers recycle it. The msgs/sec metric is the kernel's sustained
// event throughput (each message is one typed event).
func BenchmarkExecuteOnNetwork(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: 0.9}
			cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
			arena := NewNetArena()
			r := xrand.New(1)
			var sent int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ExecuteOnNetworkArena(p, cfg, r, nil, arena)
				if err != nil {
					b.Fatal(err)
				}
				sent += res.Net.Sent
			}
			b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
}

// BenchmarkExecuteOnNetworkTopology measures the overlay-lookup overhead of
// gossiping over a k-out topology at n=10⁵ against the uniform full view on
// the same configuration. At k = ⌈log₂ n⌉ (17 here) target selection does
// the same number of draws either way — the overlay path only adds the
// per-member live-prefix slice lookup and index mapping — so the budget is
// ≤10% over the uniform baseline's ns/op. The overlay is built outside the
// timer: construction is a per-run cost the scenario layer amortizes, not
// part of the per-event hot path this benchmark guards.
func BenchmarkExecuteOnNetworkTopology(b *testing.B) {
	const n = 100_000
	k := int(math.Ceil(math.Log2(float64(n))))
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
	run := func(b *testing.B, view membership.View) {
		p := Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: 0.9, View: view}
		arena := NewNetArena()
		r := xrand.New(1)
		var sent int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ExecuteOnNetworkArena(p, cfg, r, nil, arena)
			if err != nil {
				b.Fatal(err)
			}
			sent += res.Net.Sent
		}
		b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/sec")
	}
	b.Run("uniform", func(b *testing.B) { run(b, nil) })
	b.Run(fmt.Sprintf("kout_k=%d", k), func(b *testing.B) {
		ov, err := topology.Spec{Kind: topology.KOut, K: k}.Build(n, xrand.New(2))
		if err != nil {
			b.Fatal(err)
		}
		run(b, ov)
	})
}
