package stream

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/golden"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

func testConfig() Config {
	return Config{
		N:        64,
		Rate:     200,
		Duration: 300 * time.Millisecond,
		Fanout:   dist.NewFixed(3),
	}
}

func testNetConfig() simnet.Config {
	return simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}}
}

// checkLedger asserts the run's conservation identities: the copy
// identity, the engine/fabric tie, and the outcome partition.
func checkLedger(t *testing.T, res Result) {
	t.Helper()
	if got := res.Ledger.Evicted + res.Ledger.Expired + res.Ledger.Resident; got != res.Ledger.Inserted {
		t.Errorf("copy identity broken: evicted %d + expired %d + resident %d = %d, inserted %d",
			res.Ledger.Evicted, res.Ledger.Expired, res.Ledger.Resident, got, res.Ledger.Inserted)
	}
	// Send/receipt identities hold in id-entry units: a batched wire
	// message counts once on the fabric but carries many entries, and the
	// entry helpers collapse to the plain counters for per-id runs.
	if got := res.Net.SentEntries() + res.Net.DownEntries(); res.Ledger.Sends != got {
		t.Errorf("send identity broken: ledger sends %d, fabric sent-entries %d + down-entries %d = %d",
			res.Ledger.Sends, res.Net.SentEntries(), res.Net.DownEntries(), got)
	}
	if res.Ledger.Receipts != res.Net.DeliveredEntries() {
		t.Errorf("receipt identity broken: ledger receipts %d, fabric delivered-entries %d",
			res.Ledger.Receipts, res.Net.DeliveredEntries())
	}
	if got := res.FullyDelivered + res.LostEviction + res.LostDrop + res.Died; got != res.Published {
		t.Errorf("outcomes do not partition published: %d+%d+%d+%d = %d, published %d",
			res.FullyDelivered, res.LostEviction, res.LostDrop, res.Died, got, res.Published)
	}
	if got := res.Published + res.Skipped; got != res.Scheduled {
		t.Errorf("published %d + skipped %d = %d, schedule length %d",
			res.Published, res.Skipped, got, res.Scheduled)
	}
	if res.SummaryOnly {
		if res.Messages != nil {
			t.Errorf("summary-only run materialized %d per-message rows", len(res.Messages))
		}
	} else if len(res.Messages) != res.Scheduled {
		t.Errorf("per-message rows %d, schedule length %d", len(res.Messages), res.Scheduled)
	}
}

func TestRunLowLoadDeliversEverything(t *testing.T) {
	// Round-driven push re-gossips the buffer every round for the whole
	// active window, so at low load every message saturates the group.
	// (Eager forwards only at first receipt and plateaus near the
	// epidemic fixed point 1-e^{-c} — covered by the ledger tests.)
	cfg := testConfig()
	cfg.Discipline = DisciplinePush
	res, err := RunProbed(cfg, testNetConfig(), xrand.New(1), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Published == 0 {
		t.Fatal("no messages published")
	}
	if res.FullyDelivered != res.Published {
		t.Errorf("low load: %d of %d messages fully delivered", res.FullyDelivered, res.Published)
	}
	if res.MinReliability != 1 {
		t.Errorf("low load: min reliability %g, want 1", res.MinReliability)
	}
	if res.Ledger.Resident != 0 {
		t.Errorf("drained run left %d resident copies", res.Ledger.Resident)
	}
	checkLedger(t, res)
}

func TestRunLedgerAcrossDisciplines(t *testing.T) {
	for _, d := range []Discipline{DisciplineEager, DisciplinePush, DisciplinePushPull, DisciplineFlood} {
		t.Run(d.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Discipline = d
			cfg.AliveRatio = 0.9
			cfg.BufferCap = 8
			cfg.Rate = 800
			res, err := RunProbed(cfg, testNetConfig(), xrand.New(7), nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Published == 0 {
				t.Fatal("no messages published")
			}
			checkLedger(t, res)
		})
	}
}

func TestRunLossAttributesDrops(t *testing.T) {
	cfg := testConfig()
	net := testNetConfig()
	net.Loss = simnet.BernoulliLoss{P: 0.4}
	res, err := RunProbed(cfg, net, xrand.New(3), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, res)
	if res.Net.DroppedLoss == 0 {
		t.Fatal("lossy run dropped nothing")
	}
	var drops int64
	for _, m := range res.Messages {
		if m.Drops < 0 {
			t.Fatalf("message %d has negative drops %d", m.ID, m.Drops)
		}
		drops += m.Drops
	}
	if got := res.Ledger.Sends - res.Ledger.Receipts; drops != got {
		t.Errorf("per-message drops sum %d, ledger sends-receipts %d", drops, got)
	}
}

func TestRunDeterministicAcrossRepeatsAndArenas(t *testing.T) {
	cfg := testConfig()
	cfg.AliveRatio = 0.85
	cfg.BufferCap = 6
	a, err := RunProbed(cfg, testNetConfig(), xrand.New(11), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	for i := 0; i < 2; i++ {
		b, err := RunProbed(cfg, testNetConfig(), xrand.New(11), nil, arena, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("warm arena run %d diverged from cold run", i)
		}
	}
}

// streamCampaign drives the NetRun seam mid-stream: a crash, a loss
// episode, and scenario publishes (one data-dependent).
func streamCampaign(run *core.NetRun) {
	run.Kernel.At(sim.Time(60*time.Millisecond), func() {
		run.Net.Crash(simnet.NodeID(7))
		run.Net.SetLoss(simnet.BernoulliLoss{P: 0.2})
		run.Publish(40)
	})
	run.Kernel.At(sim.Time(140*time.Millisecond), func() {
		if run.Restartable(7) {
			run.Net.Restart(simnet.NodeID(7))
		}
		run.Net.SetLoss(simnet.BernoulliLoss{P: 0.05})
		run.Publish(run.Delivered() % 50)
	})
}

// probedCase is one pinned case: the run's Result and its probe's metrics.
type probedCase struct {
	Result  Result
	Metrics *obs.StreamMetrics
}

// TestShardedSingleShardMatchesRunProbed pins the default (one-shard)
// stream runner to the single-kernel RunProbed it replaced:
// testdata/runprobed.golden holds the Result (per-message rows, ledger,
// fabric counters) and the StreamProbe metrics that the parent commit's
// single-kernel RunProbed produced for every case below. A summary run
// must equal its full-rows twin except for the rows and the flag, and
// eager and flood send no batches, so their batch runs must equal the
// per-id ones; those cases are asserted, not pinned.
func TestShardedSingleShardMatchesRunProbed(t *testing.T) {
	g := golden.Open(t, "testdata/runprobed.golden",
		"stream.RunProbed on the single-kernel runner of commit 53dc72f (PR 11), the last one\n"+
			"that had it; re-encoded field-wise at 2be1c47, where every old digest matched.\n"+
			"case = discipline/wire/rows/inject")
	defer g.Close(t)
	netCfg := testNetConfig()
	netCfg.Loss = simnet.BernoulliLoss{P: 0.05}
	arena := NewArena() // one arena across every case: leases must be result-neutral

	ran := map[string]probedCase{}
	for _, d := range []Discipline{DisciplineEager, DisciplinePush, DisciplinePushPull, DisciplineFlood} {
		t.Run(d.String(), func(t *testing.T) {
			for _, batch := range []bool{false, true} {
				for _, summary := range []bool{false, true} {
					for _, inj := range []struct {
						name   string
						inject func(*core.NetRun)
					}{{"plain", nil}, {"campaign", streamCampaign}} {
						cfg := batchTestConfig(d)
						if d == DisciplineFlood {
							cfg.Rate = 200 // n sends per receipt: keep the case cheap under -race
						}
						cfg.Batch = batch
						cfg.SummaryOnly = summary
						wire, rows := "perid", "full"
						if batch {
							wire = "batch"
						}
						if summary {
							rows = "summary"
						}
						key := fmt.Sprintf("%s/%s/%s/%s", d, wire, rows, inj.name)
						probe := obs.NewStream(obs.Options{CurveTick: 5 * time.Millisecond})
						res, err := RunProbed(cfg, netCfg, xrand.New(5), inj.inject, arena, probe)
						if err != nil {
							t.Fatal(err)
						}
						checkLedger(t, res)
						ran[key] = probedCase{Result: res, Metrics: probe.Metrics()}
						switch {
						case summary:
							golden.Equal(t, key, ran[key], ran[fmt.Sprintf("%s/%s/full/%s", d, wire, inj.name)],
								"Result.Messages", "Result.SummaryOnly")
						case batch && (d == DisciplineEager || d == DisciplineFlood):
							golden.Equal(t, key, ran[key], ran[fmt.Sprintf("%s/perid/full/%s", d, inj.name)])
						default:
							g.Check(t, key, ran[key])
						}
					}
				}
			}
		})
	}
}

// TestShardedSmallGroups is core's test of the same name on the stream
// runner, which partitions members with the same arithmetic: no (n,
// shards) pair may leave a shard with an empty range past n.
func TestShardedSmallGroups(t *testing.T) {
	arena := NewArena()
	for _, n := range []int{1, 2, 3, 5, 9, 11, 13} {
		for shards := 1; shards <= 8; shards++ {
			cfg := testConfig()
			cfg.N = n
			cfg.Fanout = dist.NewFixed(2)
			cfg.Discipline = DisciplinePushPull
			cfg.Duration = 50 * time.Millisecond
			res, err := RunSharded(cfg, testNetConfig(), xrand.New(uint64(n*100+shards)), nil, arena, nil,
				core.ShardOptions{Shards: shards})
			if n < 2 {
				if err == nil {
					t.Errorf("n=%d shards=%d: a one-member group was not rejected", n, shards)
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d shards=%d: %v", n, shards, err)
			}
			checkLedger(t, res)
			if res.Published == 0 || res.Delivered > res.Published*res.AliveCount {
				t.Errorf("n=%d shards=%d: %d receipts of %d messages over %d alive",
					n, shards, res.Delivered, res.Published, res.AliveCount)
			}
			if inflight := res.Net.InFlight(); inflight != 0 {
				t.Errorf("n=%d shards=%d: %d messages in flight at quiescence", n, shards, inflight)
			}
		}
	}
}

func TestShardedDeterministicAtFixedShardCount(t *testing.T) {
	cfg := testConfig()
	cfg.N = 96
	cfg.Discipline = DisciplinePush
	cfg.BufferCap = 8
	opts := core.ShardOptions{Shards: 3}
	a, err := RunSharded(cfg, testNetConfig(), xrand.New(9), nil, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	for i := 0; i < 2; i++ {
		b, err := RunSharded(cfg, testNetConfig(), xrand.New(9), nil, arena, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sharded repeat %d diverged", i)
		}
		checkLedger(t, b)
	}
}

// TestShardCountStatisticalPin checks the cross-shard-count contract:
// the publish schedule and failure mask are identical for every shard
// count (so schedule length, sources, publish times, and skip pattern
// match exactly), and reliability stays statistically close.
func TestShardCountStatisticalPin(t *testing.T) {
	cfg := testConfig()
	cfg.N = 90
	cfg.AliveRatio = 0.9
	base, err := RunSharded(cfg, testNetConfig(), xrand.New(13), nil, nil, nil,
		core.ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		res, err := RunSharded(cfg, testNetConfig(), xrand.New(13), nil, nil, nil,
			core.ShardOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, res)
		if res.AliveCount != base.AliveCount {
			t.Fatalf("shards=%d alive count %d, want %d", shards, res.AliveCount, base.AliveCount)
		}
		if len(res.Messages) != len(base.Messages) {
			t.Fatalf("shards=%d schedule length %d, want %d", shards, len(res.Messages), len(base.Messages))
		}
		for m := range res.Messages {
			if res.Messages[m].Source != base.Messages[m].Source ||
				res.Messages[m].PublishedAt != base.Messages[m].PublishedAt {
				t.Fatalf("shards=%d message %d schedule diverged", shards, m)
			}
		}
		if res.Published != base.Published || res.Skipped != base.Skipped {
			t.Fatalf("shards=%d published/skipped %d/%d, want %d/%d",
				shards, res.Published, res.Skipped, base.Published, base.Skipped)
		}
		if diff := res.MeanReliability - base.MeanReliability; diff > 0.05 || diff < -0.05 {
			t.Errorf("shards=%d mean reliability %g too far from %g",
				shards, res.MeanReliability, base.MeanReliability)
		}
	}
}

func TestStreamProbeCollectsCurves(t *testing.T) {
	cfg := testConfig()
	cfg.Rate = 500
	probe := obs.NewStream(obs.Options{CurveTick: 5 * time.Millisecond})
	res, err := RunProbed(cfg, testNetConfig(), xrand.New(2), nil, nil, probe)
	if err != nil {
		t.Fatal(err)
	}
	m := probe.Metrics()
	if len(m.Occupancy) == 0 || len(m.Published) == 0 {
		t.Fatal("probe collected no curve samples")
	}
	// Curves sample cumulative counters, so the final sample is the total.
	pub := m.Published[len(m.Published)-1]
	del := m.Delivered[len(m.Delivered)-1]
	if pub != int64(res.Published) {
		t.Errorf("probe published %d, result %d", pub, res.Published)
	}
	// Probe deliveries exclude source self-receipts.
	if del != int64(res.Delivered-res.Published) {
		t.Errorf("probe delivered %d, result %d non-origin receipts", del, res.Delivered-res.Published)
	}
	if m.Latency.Total != del {
		t.Errorf("latency histogram total %d, want %d", m.Latency.Total, del)
	}
	if m.Totals.Sent != res.Net.Sent {
		t.Errorf("probe fabric sent %d, result %d", m.Totals.Sent, res.Net.Sent)
	}

	// The probe must not perturb the stream.
	bare, err := RunProbed(cfg, testNetConfig(), xrand.New(2), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, res) {
		t.Fatal("probed run diverged from bare run")
	}
}

func TestStreamProbeShardedMerge(t *testing.T) {
	for _, batch := range []bool{false, true} {
		cfg := testConfig()
		cfg.N = 96
		cfg.Rate = 500
		if batch {
			// Only the round-driven disciplines have a batched wire.
			cfg.Discipline, cfg.Batch = DisciplinePushPull, true
		}
		probe := obs.NewStream(obs.Options{CurveTick: 5 * time.Millisecond})
		res, err := RunSharded(cfg, testNetConfig(), xrand.New(4), nil, nil, probe,
			core.ShardOptions{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		m := probe.Metrics()
		if len(m.Occupancy) == 0 {
			t.Fatal("merged probe has no occupancy curve")
		}
		if pub := m.Published[len(m.Published)-1]; pub != int64(res.Published) {
			t.Errorf("merged probe published %d, result %d", pub, res.Published)
		}
		// Whole-struct: the boxed-send and batch counters merge too.
		if m.Totals != res.Net {
			t.Errorf("batch=%v: merged probe totals %+v, result %+v", batch, m.Totals, res.Net)
		}
		if batch && m.Totals.BatchEntries == 0 {
			t.Error("batched run counted no batch entries")
		}
	}
}

// TestStreamProbeQueues pins StreamProbe.Queues to Probe.Queues' contract:
// one record per shard kernel, read after the run; the tests' bounded
// latency puts every kernel on the calendar queue.
func TestStreamProbeQueues(t *testing.T) {
	for _, shards := range []int{1, 3} {
		probe := obs.NewStream(obs.Options{})
		if _, err := RunSharded(testConfig(), testNetConfig(), xrand.New(4), nil, nil, probe,
			core.ShardOptions{Shards: shards}); err != nil {
			t.Fatal(err)
		}
		qs := probe.Queues()
		if len(qs) != shards {
			t.Fatalf("shards=%d: %d queue records", shards, len(qs))
		}
		for s, q := range qs {
			if q.Kind != "calendar" || q.PeakPending == 0 {
				t.Errorf("shards=%d: shard %d queue stats %+v", shards, s, q)
			}
		}
	}
	if (*obs.StreamProbe)(nil).Queues() != nil {
		t.Error("nil probe Queues should be nil")
	}
}

func TestScenarioSeamPublish(t *testing.T) {
	cfg := testConfig()
	var nr *core.NetRun
	res, err := RunProbed(cfg, testNetConfig(), xrand.New(6),
		func(r *core.NetRun) {
			nr = r
			// Mid-stream burst: an extra publish wave at 100ms.
			r.Kernel.At(sim.Time(100*time.Millisecond), func() {
				for id := 0; id < 8; id++ {
					r.Publish(id)
				}
			})
		}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nr == nil {
		t.Fatal("inject hook never ran")
	}
	checkLedger(t, res)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{N: 1, Rate: 1, Duration: time.Second, Fanout: dist.NewFixed(2)},
		{N: 8, Rate: 0, Duration: time.Second, Fanout: dist.NewFixed(2)},
		{N: 8, Rate: 1, Duration: 0, Fanout: dist.NewFixed(2)},
		{N: 8, Rate: 1, Duration: time.Second},
		{N: 8, Rate: 1, Duration: time.Second, Fanout: dist.NewFixed(2), Sources: 9},
		{N: 8, Rate: 1, Duration: time.Second, Fanout: dist.NewFixed(2), AliveRatio: 1.5},
		{N: 8, Rate: 1, Duration: time.Second, Fanout: dist.NewFixed(2), BufferCap: -1},
		{N: 8, Rate: 1, Duration: time.Second, Fanout: dist.NewFixed(2), ActiveRounds: -1},
		{N: 8, Rate: math.NaN(), Duration: time.Second, Fanout: dist.NewFixed(2)},
		{N: 8, Rate: math.Inf(1), Duration: time.Second, Fanout: dist.NewFixed(2)},
		{N: 8, Rate: 1, Duration: time.Second, Fanout: dist.NewFixed(2), AliveRatio: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := RunProbed(cfg, testNetConfig(), xrand.New(1), nil, nil, nil); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
	// A rate so low that the first arrival overflows the virtual clock is
	// a valid run over an empty schedule, not a panic.
	tiny := Config{N: 8, Rate: 1e-11, Duration: time.Second, Fanout: dist.NewFixed(2)}
	if res, err := RunProbed(tiny, testNetConfig(), xrand.New(1), nil, nil, nil); err != nil || res.Scheduled != 0 {
		t.Errorf("rate 1e-11: scheduled %d, err %v; want an empty schedule", res.Scheduled, err)
	}
}
