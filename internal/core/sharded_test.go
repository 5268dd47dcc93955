package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/golden"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// shardedTestConfig is the canonical sharded-test network: a latency
// model with a positive floor (the lookahead source) plus loss, so the
// cross-shard path sees drops as well as deliveries.
func shardedTestConfig() simnet.Config {
	return simnet.Config{
		Latency: simnet.UniformLatency{Lo: 2 * time.Millisecond, Hi: 9 * time.Millisecond},
		Loss:    simnet.BernoulliLoss{P: 0.05},
	}
}

func shardedTestParams(n int) Params {
	return Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: 0.9, Source: 1}
}

// shardedCampaign is a mid-run control campaign exercising every NetRun
// seam the scenario layer uses: fabric ops (crash, restart, loss and
// latency swaps), an additional publisher, and a re-gossip publish.
func shardedCampaign(run *NetRun) {
	run.Kernel.At(sim.Time(4*time.Millisecond), func() {
		run.Net.Crash(simnet.NodeID(7))
		run.Net.SetLoss(simnet.BernoulliLoss{P: 0.2})
		run.Publish(40) // additional publisher (or re-gossip if reached)
	})
	run.Kernel.At(sim.Time(9*time.Millisecond), func() {
		if run.Restartable(7) {
			run.Net.Restart(simnet.NodeID(7))
		}
		run.Net.SetLatency(simnet.UniformLatency{Lo: 3 * time.Millisecond, Hi: 6 * time.Millisecond})
		run.Publish(run.Delivered() % 50) // data-dependent target
	})
}

// oracleCase is one pinned case: the run without a probe and the metrics
// of the same run under a tracing probe.
type oracleCase struct {
	Bare    NetResult
	Metrics *obs.Metrics
}

// TestShardedOneShardMatchesOracle pins the default (one-shard) executor
// to the single-kernel executor it replaced. That executor was the
// documented equivalence oracle; its role survives as data:
// testdata/oracle.golden holds the NetResult and the probe.Metrics()
// (curves, latency/hop/fanout histograms, event trace) that the parent
// commit's single-kernel ExecuteOnNetworkProbed produced for every case
// below. The probed run's NetResult must equal the bare one except for
// Net.BoxedSends (a trace ring boxes its sends), and its network counters
// must be the probe's Totals, so Totals is asserted, not pinned again.
func TestShardedOneShardMatchesOracle(t *testing.T) {
	const n = 300
	g := golden.Open(t, "testdata/oracle.golden",
		"core.ExecuteOnNetworkProbed on the single-kernel executor of commit 53dc72f (PR 11),\n"+
			"the last one that had it; re-encoded field-wise at 2be1c47, where every old digest\n"+
			"matched. case = inject/fanout/q/latency/view; Metrics.Totals is asserted equal to\n"+
			"the probed run's Net, not pinned")
	defer g.Close(t)

	fanouts := []struct {
		name string
		d    dist.Distribution
	}{{"poisson", dist.NewPoisson(5)}, {"fixed", dist.NewFixed(4)}}
	nets := []struct {
		name string
		cfg  simnet.Config
	}{
		{"uniform", shardedTestConfig()},
		// No latency floor (no lookahead) and no delay bound (heap queue).
		{"exponential", simnet.Config{Latency: simnet.ExponentialLatency{Mean: 5 * time.Millisecond}}},
	}
	views := []struct {
		name string
		view func() membership.View
	}{
		{"full", func() membership.View { return nil }},
		{"partial", func() membership.View { return membership.NewPartialViews(n, 2, xrand.New(98)) }},
		{"kout", func() membership.View {
			ov, err := topology.Spec{Kind: topology.KOut, K: 6}.Build(n, xrand.New(99))
			if err != nil {
				t.Fatal(err)
			}
			return ov
		}},
	}
	arena := NewNetArena() // one arena across every case: leases must be result-neutral

	for _, inj := range []struct {
		name   string
		inject func(*NetRun)
	}{{"plain", nil}, {"campaign", shardedCampaign}} {
		t.Run(inj.name, func(t *testing.T) {
			for _, f := range fanouts {
				for _, q := range []float64{0.6, 1} {
					for _, nc := range nets {
						for _, v := range views {
							p := Params{N: n, Fanout: f.d, AliveRatio: q, Source: 1, View: v.view()}
							key := fmt.Sprintf("%s/%s/q%g/%s/%s", inj.name, f.name, q, nc.name, v.name)

							bare, err := ExecuteOnNetworkProbed(p, nc.cfg, xrand.New(42), inj.inject, arena, nil)
							if err != nil {
								t.Fatal(err)
							}

							p.View = v.view()
							probe := obs.New(obs.Options{TraceCapacity: 1 << 14})
							res, err := ExecuteOnNetworkProbed(p, nc.cfg, xrand.New(42), inj.inject, arena, probe)
							if err != nil {
								t.Fatal(err)
							}
							m := probe.Metrics()
							if m.Totals.Sent == 0 || len(m.Infected) == 0 || len(m.Trace) == 0 || m.Hops.Total == 0 {
								t.Fatalf("%s: degenerate telemetry %+v", key, m.Totals)
							}
							golden.Equal(t, key+" probed", res, bare, "Net.BoxedSends")
							if res.Net != m.Totals {
								t.Errorf("%s: probed Net %+v, probe Totals %+v", key, res.Net, m.Totals)
							}
							g.Check(t, key, oracleCase{Bare: bare, Metrics: m}, "Metrics.Totals")
						}
					}
				}
			}
		})
	}
}

// TestShardedFixedShardCountDeterministic pins the fixed-S>1 contract:
// the same seed replays byte-identically, including merged telemetry.
func TestShardedFixedShardCountDeterministic(t *testing.T) {
	p := shardedTestParams(400)
	cfg := shardedTestConfig()

	run := func() (NetResult, *obs.Metrics) {
		probe := obs.New(obs.Options{})
		res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(7), shardedCampaign, nil, probe, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res, probe.Metrics()
	}
	res1, m1 := run()
	res2, m2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("shards=4 not deterministic:\n run1 %+v\n run2 %+v", res1, res2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("shards=4 telemetry not deterministic")
	}
	if res1.Delivered == 0 || res1.Net.Sent == 0 {
		t.Fatalf("degenerate sharded run %+v", res1)
	}
	if m1.Hops.Counts != nil {
		t.Error("hop histogram should be disabled on shards>1 runs")
	}
}

// TestShardedProbeTotalsMatchResult pins the probe's merged network totals
// to the result's as whole structs at one shard and at two: under ring
// tracing every send is boxed, and a shard merge that sums only some of
// the counters (as one did) reports BoxedSends 0 beside the result's
// thousands.
func TestShardedProbeTotalsMatchResult(t *testing.T) {
	for _, shards := range []int{1, 2} {
		probe := obs.New(obs.Options{TraceCapacity: 1 << 10})
		res, err := ExecuteOnNetworkSharded(shardedTestParams(2000), shardedTestConfig(), xrand.New(7), nil, nil, probe,
			ShardOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := probe.Metrics().Totals; got != res.Net || got.BoxedSends == 0 {
			t.Errorf("shards=%d: probe totals %+v, result %+v", shards, got, res.Net)
		}
	}
}

// TestCallerLossModelClonedPerRun pins that a caller-owned stateful loss
// model is cloned per run at every shard count: one *GilbertElliott in
// the config and one arena, two same-seed runs, identical results — and
// the caller's instance still as constructed. The model latches Bad on
// its first draw and never recovers, so a run that drew from the caller's
// instance (as the single-kernel executor once did) cannot hide it.
func TestCallerLossModelClonedPerRun(t *testing.T) {
	for _, shards := range []int{1, 2} {
		ge := simnet.NewGilbertElliott(1, 0, 0, 1)
		cfg := shardedTestConfig()
		cfg.Loss = ge
		arena := NewNetArena()
		var runs [2]NetResult
		for i := range runs {
			res, err := ExecuteOnNetworkSharded(shardedTestParams(200), cfg, xrand.New(5), nil, arena, nil,
				ShardOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = res
		}
		if runs[0].Net.DroppedLoss == 0 {
			t.Fatalf("shards=%d: the loss model was never drawn from: %+v", shards, runs[0].Net)
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("shards=%d: same-seed runs differ:\n %+v\n %+v", shards, runs[0], runs[1])
		}
		if *ge != *simnet.NewGilbertElliott(1, 0, 0, 1) {
			t.Errorf("shards=%d: the caller's loss model was mutated: %+v", shards, *ge)
		}
	}
}

// TestShardedArenaReuseDeterministic pins pooling: a reused arena
// (including one resized across shard counts) replays a run
// byte-identically against a fresh arena.
func TestShardedArenaReuseDeterministic(t *testing.T) {
	p := shardedTestParams(256)
	cfg := shardedTestConfig()

	fresh, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(9), nil, nil, nil, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sa := NewNetArena()
	if _, err := ExecuteOnNetworkSharded(shardedTestParams(100), cfg, xrand.New(1), nil, sa, nil, ShardOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	reused, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(9), nil, sa, nil, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("reused arena diverged:\n fresh  %+v\n reused %+v", fresh, reused)
	}
}

// TestShardedMaskInvariantAcrossShardCounts pins the RNG layout's key
// consequence: the failure mask is drawn from the root stream, which
// splitting never advances, so the alive set — and with it AliveCount and
// UpAtEnd-eligible membership — is identical across shard counts.
func TestShardedMaskInvariantAcrossShardCounts(t *testing.T) {
	p := shardedTestParams(300)
	cfg := shardedTestConfig()
	base, err := ExecuteOnNetworkProbed(p, cfg, xrand.New(3), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(3), nil, nil, nil, ShardOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if res.AliveCount != base.AliveCount {
			t.Errorf("shards=%d AliveCount %d, one shard %d — mask not shard-count-invariant",
				shards, res.AliveCount, base.AliveCount)
		}
	}
}

// TestShardedReliabilityPinnedAcrossShardCounts is the in-package
// statistical half of the contract: different shard counts use different
// RNG streams, so results differ run-to-run but must agree in
// distribution. 25 seeds per shard count; the mean reliabilities must sit
// within a tolerance far tighter than the gap a bridging bug (lost or
// duplicated cross-shard traffic) would open.
func TestShardedReliabilityPinnedAcrossShardCounts(t *testing.T) {
	p := shardedTestParams(200)
	cfg := shardedTestConfig()
	const seeds = 25

	mean := func(shards int) float64 {
		total := 0.0
		for seed := 0; seed < seeds; seed++ {
			res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(uint64(1000+seed)), nil, nil, nil, ShardOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Reliability
		}
		return total / seeds
	}
	m1 := mean(1)
	for _, shards := range []int{2, 4} {
		m := mean(shards)
		if diff := math.Abs(m - m1); diff > 0.03 {
			t.Errorf("shards=%d mean reliability %.4f vs one shard %.4f (Δ=%.4f > 0.03)",
				shards, m, m1, diff)
		}
	}
}

// TestShardedProgressObserved pins the satellite progress seam: barriers
// report monotone virtual time and nondecreasing fired-event totals.
func TestShardedProgressObserved(t *testing.T) {
	p := shardedTestParams(300)
	var calls int
	var lastNow sim.Time
	var lastFired uint64
	_, err := ExecuteOnNetworkSharded(p, shardedTestConfig(), xrand.New(5), nil, nil, nil, ShardOptions{
		Shards: 4,
		Progress: func(events uint64, now sim.Time) {
			calls++
			if now < lastNow {
				t.Fatalf("barrier time went backwards: %v after %v", now, lastNow)
			}
			if events < lastFired {
				t.Fatalf("fired count went backwards: %d after %d", events, lastFired)
			}
			lastNow, lastFired = now, events
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never observed a barrier")
	}
	if lastFired == 0 {
		t.Fatal("no events reported fired")
	}
}

func TestEffectiveShards(t *testing.T) {
	// A request below 1 is one shard whatever GOMAXPROCS is.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	floored := shardedTestConfig()
	cases := []struct {
		name      string
		requested int
		n         int
		cfg       simnet.Config
		want      int
	}{
		{"explicit", 4, 100, floored, 4},
		{"clampToN", 8, 3, floored, 3},
		{"noEmptyTrailingShard", 4, 5, floored, 3}, // blocks of 2: [0,2) [2,4) [4,5)
		{"noFloorFallsBack", 4, 100, simnet.Config{}, 1},
		{"zeroLatencyFallsBack", 4, 100, simnet.Config{Latency: simnet.ConstantLatency{}}, 1},
		{"one", 1, 100, simnet.Config{}, 1},
		{"zeroIsOne", 0, 1 << 20, floored, 1},
		{"negativeIsOne", -3, 100, floored, 1},
	}
	for _, c := range cases {
		if got := EffectiveShards(c.requested, c.n, c.cfg); got != c.want {
			t.Errorf("%s: EffectiveShards(%d, %d) = %d, want %d", c.name, c.requested, c.n, got, c.want)
		}
	}
}

// TestShardedSmallGroups runs every small (n, shards) pair through the
// executor. Whenever (shards−1)·⌈n/shards⌉ > n — (5,4), (9,8), (11,8),
// (13,6) … — a trailing shard used to own a range starting past n, and
// sizing its bitset to the negative width panicked on a shard goroutine,
// which no caller can recover.
func TestShardedSmallGroups(t *testing.T) {
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}}
	arena := NewNetArena()
	for _, n := range []int{1, 2, 3, 5, 9, 11, 13} {
		for shards := 1; shards <= 8; shards++ {
			p := Params{N: n, Fanout: dist.NewFixed(2), AliveRatio: 0.8}
			res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(uint64(n*100+shards)), nil, arena, nil, ShardOptions{Shards: shards})
			if n < 2 {
				if err == nil {
					t.Errorf("n=%d shards=%d: a one-member group was not rejected", n, shards)
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d shards=%d: %v", n, shards, err)
			}
			if res.Delivered < 1 || res.Delivered > res.AliveCount {
				t.Errorf("n=%d shards=%d: delivered %d of %d alive", n, shards, res.Delivered, res.AliveCount)
			}
			if inflight := res.Net.InFlight(); inflight != 0 {
				t.Errorf("n=%d shards=%d: %d messages in flight at quiescence", n, shards, inflight)
			}
		}
	}
}

// TestShardedBudgetPropagates pins abort semantics: a run that trips a
// shard kernel's event budget surfaces the error instead of hanging.
func TestShardedBudgetPropagates(t *testing.T) {
	// A recurring control event that never stops would exceed the control
	// kernel budget; simpler: tiny N with huge fanout exceeds the per-shard
	// budget of N*10000 only at absurd scale, so drive it via inject.
	p := Params{N: 8, Fanout: dist.NewFixed(2), AliveRatio: 1, Source: 0}
	inject := func(run *NetRun) {
		var tick func()
		at := sim.Time(time.Millisecond)
		tick = func() {
			run.Publish(3)
			at += sim.Time(time.Millisecond)
			run.Kernel.At(at, tick)
		}
		run.Kernel.At(at, tick)
	}
	_, err := ExecuteOnNetworkSharded(p, shardedTestConfig(), xrand.New(1), inject, nil, nil, ShardOptions{Shards: 2})
	if err == nil {
		t.Fatal("unbounded recurring campaign did not trip the budget")
	}
}
