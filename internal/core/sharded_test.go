package core

import (
	"fmt"
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
// as data: testdata/oracle.golden holds the NetResult and the
// probe.Metrics() (curves, latency/hop/fanout histograms, event trace) of
// every case below, recorded when the paper algorithm's draws became keyed
// by member; until then it held what the single-kernel executor this one
// replaced produced. The probed run's NetResult must equal the bare one
// except for Net.BoxedSends (a trace ring boxes its sends), Net.Settled
// and Queue (a probe keeps every send on the queued path), and its network
// counters must be the probe's Totals, so Totals is asserted, not pinned
// again.
func TestShardedOneShardMatchesOracle(t *testing.T) {
	const n = 300
	g := golden.Open(t, "testdata/oracle.golden",
		"core.ExecuteOnNetworkProbed on one shard with member-keyed draws (core.keyRoot); the\n"+
			"values before that layout came from the single-kernel executor of commit 53dc72f.\n"+
			"case = inject/fanout/q/latency/view; Metrics.Totals is asserted equal to\n"+
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
							golden.Equal(t, key+" probed", res, bare, "Net.BoxedSends", "Net.Settled", "Queue")
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

// TestShardedArenaReuseDeterministic pins pooling: a reused arena
// (resized across shard counts, then run at the same shape on other
// draws, whose held snapshots it keeps unless Reset clears them) replays a
// run byte-identically against a fresh arena.
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
	if _, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(1), nil, sa, nil, ShardOptions{Shards: 2}); err != nil {
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

// spreadOf is what a run's spread is under any latency model: who was
// reached, by how many messages, and what the network did with them.
type spreadOf struct {
	AliveCount, Delivered, MessagesSent, WastedOnFailed, Duplicates int
	Sent, NetDelivered, DroppedLoss, DroppedCrash                   int64
}

func spread(r NetResult) spreadOf {
	return spreadOf{r.AliveCount, r.Delivered, r.MessagesSent, r.WastedOnFailed, r.Duplicates,
		r.Net.Sent, r.Net.Delivered, r.Net.DroppedLoss, r.Net.DroppedCrash}
}

// TestShardInvariance holds the paper algorithm's member-keyed draws (see
// keyRoot) to what they promise, run for run on one (Params, seed):
//   - every shard count gives the same NetResult, except the fabric's
//     accounting and DeliveryLatency's mean and m2, whose per-shard
//     partial sums merge in another association;
//   - every copy that survives loss either fires one kernel event or
//     settles, so Queue.Fired + Net.Settled is the one-shard run's at every
//     shard count; and no shard count settles more than one shard does
//     when first receipts never tie: a member another shard settles
//     against held m before the send, and only a one-shard run settles
//     against earliest-arrival labels (under a constant delay receipts tie, and a
//     shard orders a tie among its own members by its own push order, so
//     its own bits may hold m at a tie the one-shard run does not);
//   - every latency model, and zero latency, gives the same spread;
//   - the BFS executor and the zero-latency, loss-free DES give the same
//     spread, mask included.
func TestShardInvariance(t *testing.T) {
	lats := []struct {
		name string
		m    simnet.LatencyModel
	}{
		{"constant", simnet.ConstantLatency{D: 3 * time.Millisecond}},
		{"uniform", simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}},
		{"exponential", simnet.ExponentialLatency{Floor: time.Millisecond, Mean: 2 * time.Millisecond}},
	}
	losses := []simnet.LossModel{simnet.NoLoss{}, simnet.BernoulliLoss{P: 0.1},
		simnet.NewGilbertElliott(0.05, 0.3, 0.01, 0.6)}
	// BoxedSends, Settled and the queue counters are the accounting a
	// paper run can move with k (it sends no batches). Settled depends on
	// k through receipts inside a window — a copy to a member of another
	// shard settles when the member held m at the window's opening
	// barrier, and queues when it first received m later in the same
	// window — and through labels, which only a one-shard run keeps; the
	// queue fires the copies that do not settle.
	except := []string{"DeliveryLatency.mean", "DeliveryLatency.m2", "Net.BoxedSends", "Net.Settled", "Queue"}
	arena := NewNetArena()
	for _, n := range []int{17, 2000} {
		kout, err := topology.Spec{Kind: topology.KOut, K: 6}.Build(n, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		views := []struct {
			name string
			view membership.View
		}{{"full", nil}, {"kout", kout}, {"partial", membership.NewPartialViews(n, 2, xrand.New(98))}}
		for _, v := range views {
			for seed := uint64(1); seed <= 5; seed++ {
				p := Params{N: n, Fanout: dist.NewPoisson(4), AliveRatio: 0.9, Source: 1, View: v.view}
				run := func(cfg simnet.Config, shards int) NetResult {
					res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(seed), nil, arena, nil, ShardOptions{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				bfs, err := ExecuteOnce(p, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				des := run(simnet.Config{}, 1).Result
				if bfs.Rounds, des.Rounds = 0, 0; bfs != des {
					t.Errorf("n=%d %s seed %d: BFS %+v, zero-latency DES %+v", n, v.name, seed, bfs, des)
				}
				for _, loss := range losses {
					zero := spread(run(simnet.Config{Loss: loss}, 1))
					for _, lat := range lats {
						cfg := simnet.Config{Latency: lat.m, Loss: loss}
						key := fmt.Sprintf("n=%d %s seed %d %T %s", n, v.name, seed, loss, lat.name)
						one := run(cfg, 1)
						oneCopies := one.Queue.Fired + uint64(one.Net.Settled)
						_, ties := lat.m.(simnet.ConstantLatency)
						if got := spread(one); got != zero {
							t.Errorf("%s: spread %+v, zero latency %+v", key, got, zero)
						}
						for _, k := range []int{2, 3, 4, 8} {
							res := run(cfg, k)
							golden.Equal(t, fmt.Sprintf("%s shards=%d", key, k), res, one, except...)
							if copies := res.Queue.Fired + uint64(res.Net.Settled); copies != oneCopies || !ties && res.Net.Settled > one.Net.Settled {
								t.Errorf("%s shards=%d: Queue.Fired + Settled %d (Settled %d), one shard %d (Settled %d)",
									key, k, copies, res.Net.Settled, oneCopies, one.Net.Settled)
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedReliabilityPinnedAcrossShardCounts pins the canonical
// sharded configuration (loss, a positive latency floor, source 1) across
// shard counts per seed: member-keyed draws make a lost or duplicated
// cross-shard message show as an exact mismatch, not as a drift in a mean.
func TestShardedReliabilityPinnedAcrossShardCounts(t *testing.T) {
	p := shardedTestParams(200)
	cfg := shardedTestConfig()
	for seed := uint64(1000); seed < 1025; seed++ {
		one, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(seed), nil, nil, nil, ShardOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(seed), nil, nil, nil, ShardOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := spread(res), spread(one); got != want || res.Reliability != one.Reliability {
				t.Errorf("seed %d shards=%d: %+v (reliability %v), one shard %+v (%v)",
					seed, shards, got, res.Reliability, want, one.Reliability)
			}
		}
	}
}

// TestShardedProgressObserved pins the satellite progress seam: barriers
// report monotone virtual time and nondecreasing fired-event totals. The
// run settles, so every shard's held snapshot is refreshed by the time
// progress is reported (held ⊆ received, so equal counts mean equal bits):
// a snapshot left stale is still safe and no result would show it.
func TestShardedProgressObserved(t *testing.T) {
	p := shardedTestParams(300)
	arena := NewNetArena()
	var calls int
	var lastNow sim.Time
	var lastFired uint64
	_, err := ExecuteOnNetworkSharded(p, shardedTestConfig(), xrand.New(5), nil, arena, nil, ShardOptions{
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
			for s := range arena.run.states {
				if held, got := arena.run.held[s].Count(), arena.run.states[s].received.Count(); held != got {
					t.Fatalf("barrier at %v: shard %d holds a snapshot of %d members, received %d", now, s, held, got)
				}
			}
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
