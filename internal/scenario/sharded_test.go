package scenario

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/golden"
	"gossipkit/internal/obs"
)

// shardedAdversarialCampaign is the satellite equivalence campaign: a
// crash wave into a bursty-loss episode, then a flash crowd republishing
// into the damage — every fabric seam (crash routing, per-shard loss
// cloning, publish deferral) under one scenario.
func shardedAdversarialCampaign() *Scenario {
	return New("crash-wave-burst", "crash wave + burst loss + flash crowd").
		At(5*time.Millisecond, CrashFraction(0.10)).
		At(8*time.Millisecond, BurstLoss(0.3, 0.3, 0.02, 0.5)).
		At(20*time.Millisecond, ClearLoss()).
		At(25*time.Millisecond, FlashCrowd(3))
}

func shardedScenarioConfig(shards int) RunConfig {
	return RunConfig{
		Params: core.Params{N: 200, Fanout: dist.NewPoisson(6), AliveRatio: 1, Source: 0},
		Shards: shards,
	}
}

// TestShardedScenarioMatrix pins the scenario layer's shard-count
// contract under an adversarial campaign: shard counts use different RNG
// streams, so individual runs differ, but 25-seed mean reliability must
// agree within a tolerance far below the damage a broken cross-shard
// bridge causes (the campaign kills ~10% of members and drops half the
// traffic for 12ms; a sharding bug that loses buffered traffic drags the
// mean toward zero).
func TestShardedScenarioMatrix(t *testing.T) {
	const seeds = 25
	mean := func(shards int) float64 {
		s := shardedAdversarialCampaign()
		cfg := shardedScenarioConfig(shards)
		total := 0.0
		for seed := 0; seed < seeds; seed++ {
			rep, err := Run(s, cfg, uint64(3000+seed))
			if err != nil {
				t.Fatal(err)
			}
			total += rep.Reliability
		}
		return total / seeds
	}
	base := mean(0) // the default: one shard
	for _, shards := range []int{2, 4} {
		m := mean(shards)
		if diff := math.Abs(m - base); diff > 0.05 {
			t.Errorf("shards=%d mean reliability %.4f vs one shard %.4f (Δ=%.4f > 0.05)",
				shards, m, base, diff)
		}
	}
}

// TestShardedScenarioOneShardMatchesDefault pins the default runner as
// data: testdata/suite.golden holds, for every bundled campaign, the
// RunReport and its probe metrics, recorded when the paper algorithm's
// draws became keyed by member (before that, the single-kernel executor's
// values); Shards 0 (the default) reproduces it and Shards 1 must equal
// Shards 0, with
// GOMAXPROCS raised so a zero read as "one shard per core" anywhere on the
// way to core.EffectiveShards would shard the run. Fixed Shards>1 is
// pinned to be seed-deterministic under a campaign.
func TestShardedScenarioOneShardMatchesDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := golden.Open(t, "testdata/suite.golden",
		"scenario.Run over DefaultSuite() on one shard with member-keyed draws (core.keyRoot);\n"+
			"the values before that layout came from the single-kernel executor of commit 53dc72f.\n"+
			"case = scenario name")
	defer g.Close(t)

	for _, s := range DefaultSuite() {
		var reps [2]RunReport
		for shards := range reps {
			cfg := RunConfig{
				Params:            core.Params{N: 400, Fanout: dist.NewPoisson(5), AliveRatio: 0.95, Source: 3},
				PartialViewCopies: 2,
				Shards:            shards,
				Probe:             obs.New(obs.Options{TraceCapacity: 1 << 14}),
			}
			rep, err := Run(s, cfg, 2008)
			if err != nil {
				t.Fatal(err)
			}
			reps[shards] = rep
		}
		golden.Equal(t, s.Name+" Shards=1", reps[1], reps[0])
		g.Check(t, s.Name, reps[0])
	}

	s := shardedAdversarialCampaign()
	run2a, err := Run(s, shardedScenarioConfig(2), 77)
	if err != nil {
		t.Fatal(err)
	}
	run2b, err := Run(s, shardedScenarioConfig(2), 77)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run2a, run2b) {
		t.Errorf("Shards=2 campaign run not deterministic:\n run1 %+v\n run2 %+v", run2a, run2b)
	}
	if run2a.Crashed == 0 {
		t.Error("campaign crashed nobody — adversarial matrix is vacuous")
	}
}

// TestShardedScenarioRecurringAndStall exercises the NetRun.Pending seam
// on the sharded runtime: an unbounded recurrence and a stall watcher
// must both unwind once only campaign bookkeeping remains, instead of
// seeing an always-empty control kernel and dying (or spinning).
func TestShardedScenarioRecurringAndStall(t *testing.T) {
	s := New("recurring-crash", "rolling crashes with a stall rescue").
		Every(6*time.Millisecond, CrashFraction(0.02)).
		OnStall(15*time.Millisecond, Regossip(2))
	rep, err := Run(s, shardedScenarioConfig(4), 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed < 2 {
		t.Errorf("recurring crash wave fired %d crashes; the recurrence died early", rep.Crashed)
	}
	if rep.Delivered == 0 {
		t.Error("nothing delivered")
	}
}

// TestPartialViewsSharedAcrossShards: a run's SCAMP views are one value
// that every shard kernel samples from on its own goroutine, so
// PartialViews.SampleTargets has to stay read-only on its receiver — a
// scratch slice kept there to save an allocation is a data race this test
// (in CI's race-sharded job, five repetitions) exists to catch. The runs
// must also stay deterministic per shard count.
func TestPartialViewsSharedAcrossShards(t *testing.T) {
	cfg := RunConfig{
		Params:            core.Params{N: 400, Fanout: dist.NewPoisson(5), AliveRatio: 1},
		PartialViewCopies: 2,
		Shards:            2,
	}
	for _, s := range DefaultSuite()[:3] {
		a, err := Run(s, cfg, 2008)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(s, cfg, 2008)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two-shard run over partial views not deterministic:\n run1 %+v\n run2 %+v", s.Name, a, b)
		}
		if a.Delivered < cfg.Params.N/2 {
			t.Errorf("%s: delivered %d of %d — the views carried no spread", s.Name, a.Delivered, cfg.Params.N)
		}
	}
}
