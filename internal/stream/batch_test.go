package stream

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// batchTestConfig is the shared shape for wire-format comparisons: enough
// load that buffers hold several messages per round (so batching actually
// coalesces) plus churn and loss so every ledger term is exercised.
func batchTestConfig(d Discipline) Config {
	cfg := testConfig()
	cfg.Discipline = d
	cfg.AliveRatio = 0.9
	cfg.BufferCap = 8
	cfg.Rate = 800
	return cfg
}

// TestBatchStatisticalPin pins batched wire digests against the per-id
// format: one wire event per (member, round, peer) consumes the RNG
// differently, so results are not byte-identical, but over 25 seeds the
// mean per-message reliability must agree within ±0.05 on one shard and
// on two.
// Every batched run must also keep the entry-unit ledger exact.
func TestBatchStatisticalPin(t *testing.T) {
	const seeds = 25
	for _, d := range []Discipline{DisciplinePush, DisciplinePushPull} {
		t.Run(d.String(), func(t *testing.T) {
			for _, shards := range []int{1, 2} {
				var perID, batched float64
				for seed := uint64(1); seed <= seeds; seed++ {
					for _, batch := range []bool{false, true} {
						cfg := batchTestConfig(d)
						cfg.Batch = batch
						res, err := RunSharded(cfg, testNetConfig(), xrand.New(seed), nil, nil, nil,
							core.ShardOptions{Shards: shards})
						if err != nil {
							t.Fatal(err)
						}
						if res.Published == 0 {
							t.Fatal("no messages published")
						}
						checkLedger(t, res)
						if batch {
							batched += res.MeanReliability
							if res.Net.Batches == 0 {
								t.Fatal("batched run sent no batches")
							}
						} else {
							perID += res.MeanReliability
							if res.Net.Batches != 0 {
								t.Fatal("per-id run sent batches")
							}
						}
					}
				}
				perID /= seeds
				batched /= seeds
				if diff := batched - perID; diff > 0.05 || diff < -0.05 {
					t.Errorf("shards=%d: batched mean reliability %.4f vs per-id %.4f, want within ±0.05",
						shards, batched, perID)
				}
			}
		})
	}
}

// TestBatchDeterministic pins the batched format's determinism contract:
// repeats (cold and warm-arena) are byte-identical, on one shard and on
// three.
func TestBatchDeterministic(t *testing.T) {
	for _, d := range []Discipline{DisciplinePush, DisciplinePushPull} {
		t.Run(d.String(), func(t *testing.T) {
			cfg := batchTestConfig(d)
			cfg.Batch = true
			a, err := RunProbed(cfg, testNetConfig(), xrand.New(21), nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			arena := NewArena()
			b, err := RunProbed(cfg, testNetConfig(), xrand.New(21), nil, arena, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("warm-arena batched run diverged from cold run")
			}
			c, err := RunSharded(cfg, testNetConfig(), xrand.New(21), nil, nil, nil,
				core.ShardOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			checkLedger(t, c)
			e, err := RunSharded(cfg, testNetConfig(), xrand.New(21), nil, arena, nil,
				core.ShardOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c, e) {
				t.Fatal("fixed shards=3 batched repeat diverged")
			}
		})
	}
}

// TestSummaryOnlyEquivalence: a summary run is the same execution as a
// full run — same RNG consumption, same schedule, same aggregates — minus
// the O(messages) per-message rows. Everything except Messages and the
// mode flag must match exactly, on both wire formats.
func TestSummaryOnlyEquivalence(t *testing.T) {
	for _, batch := range []bool{false, true} {
		cfg := batchTestConfig(DisciplinePushPull)
		cfg.Batch = batch
		full, err := RunProbed(cfg, testNetConfig(), xrand.New(17), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SummaryOnly = true
		sum, err := RunProbed(cfg, testNetConfig(), xrand.New(17), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, sum)
		if sum.Messages != nil || !sum.SummaryOnly {
			t.Fatalf("summary run: Messages len %d, SummaryOnly %v; want nil rows and the flag set",
				len(sum.Messages), sum.SummaryOnly)
		}
		full.Messages = nil
		full.SummaryOnly = true
		if !reflect.DeepEqual(full, sum) {
			t.Errorf("batch=%v: summary aggregates diverged from the full run\nfull: %+v\nsum:  %+v",
				batch, full, sum)
		}
	}
}

// TestStreamSummaryOnlyZeroOMAllocs is the alloc guard for summary mode:
// after arena warm-up, a 32k-message summary run must allocate far less
// than one per-message row array (≈2.3 MB here) — pinning that the O(M)
// accounting really folds into pooled accumulators.
func TestStreamSummaryOnlyZeroOMAllocs(t *testing.T) {
	cfg := Config{
		N:           64,
		Rate:        2e6,
		Duration:    30 * time.Millisecond,
		Fanout:      testConfig().Fanout,
		BufferCap:   8,
		Discipline:  DisciplinePushPull,
		MaxMessages: 32768,
		Batch:       true,
		SummaryOnly: true,
	}
	arena := NewArena()
	for i := 0; i < 2; i++ { // warm every pool at this shape
		if _, err := RunProbed(cfg, testNetConfig(), xrand.New(3), nil, arena, nil); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunProbed(cfg, testNetConfig(), xrand.New(3), nil, arena, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != cfg.MaxMessages {
		t.Fatalf("scheduled %d messages, want the %d cap", res.Scheduled, cfg.MaxMessages)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 512*1024 {
		t.Errorf("warm summary run allocated %d bytes for %d messages, want < 512 KiB (no O(M) allocations)",
			grew, res.Scheduled)
	}
}

// TestPushPullNoDuplicateRepairs is the regression test for the pending-
// repair NACK dedupe: a member that receives several digests advertising
// the same missing id in one round must NACK it once, not once per digest.
//
// Construction: member 7 is partitioned away while member 0 publishes the
// only message and it saturates members 0–6. After the partition heals,
// all seven holders digest their buffers to the full view (fixed fanout 7)
// at the same round tick, so member 7 sees seven concurrent digests for
// the id. With the dedupe it sends one NACK and receives one repair —
// zero duplicate receipts; before the fix it NACKed every digest and the
// redundant repairs arrived as ~6 duplicates.
func TestPushPullNoDuplicateRepairs(t *testing.T) {
	for _, batch := range []bool{false, true} {
		cfg := Config{
			N:             8,
			Rate:          100000,
			Duration:      50 * time.Millisecond,
			Sources:       1,
			Fanout:        dist.NewFixed(7),
			BufferCap:     4,
			Discipline:    DisciplinePushPull,
			ActiveRounds:  8,
			RoundInterval: 10 * time.Millisecond, // expiry ≈ 80ms, far past the heal
			MaxMessages:   1,
			Batch:         batch,
		}
		net := simnet.Config{Latency: simnet.ConstantLatency{D: 2 * time.Millisecond}}
		heal := sim.Time(35 * time.Millisecond)
		res, err := RunProbed(cfg, net, xrand.New(1),
			func(r *core.NetRun) {
				r.Net.SetPartition(func(a, b simnet.NodeID) bool { return a == 7 || b == 7 })
				r.Kernel.At(heal, func() { r.Net.SetPartition(nil) })
			}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, res)
		if res.Published != 1 || res.FullyDelivered != 1 {
			t.Fatalf("batch=%v: published/fully-delivered = %d/%d, want 1/1 (repair must still reach member 7)",
				batch, res.Published, res.FullyDelivered)
		}
		if res.Duplicates != 0 {
			t.Errorf("batch=%v: %d duplicate receipts, want 0 — concurrent digests must not trigger duplicate repairs",
				batch, res.Duplicates)
		}
		if res.Ledger.RepairMisses != 0 {
			t.Errorf("batch=%v: %d repair misses in an eviction-free run, want 0", batch, res.Ledger.RepairMisses)
		}
	}
}
