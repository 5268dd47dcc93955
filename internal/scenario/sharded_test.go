package scenario

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/golden"
	"gossipkit/internal/obs"
	"gossipkit/internal/simnet"
)

// shardedAdversarialCampaign is the satellite equivalence campaign: a
// crash wave into a bursty-loss episode, then a flash crowd republishing
// into the damage — every fabric seam (crash routing, per-sender burst
// chains, inline publishes) under one scenario.
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
// contract under an adversarial campaign, run for run: every shard count
// gives the one-shard report but for the last bits of the latency mean.
func TestShardedScenarioMatrix(t *testing.T) {
	s := shardedAdversarialCampaign()
	for seed := uint64(3000); seed < 3025; seed++ {
		base, err := Run(s, shardedScenarioConfig(0), seed) // the default: one shard
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			rep, err := Run(s, shardedScenarioConfig(shards), seed)
			if err != nil {
				t.Fatal(err)
			}
			golden.Equal(t, fmt.Sprintf("seed %d shards=%d", seed, shards), rep, base, "Latency.MeanMs")
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
		"scenario.Run over DefaultSuite() on one shard with member-keyed draws (core.KeyRoot);\n"+
			"the values before that layout came from the single-kernel executor of commit 53dc72f.\n"+
			"burst-loss was re-recorded when Gilbert-Elliott chains became per sender.\n"+
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

// TestCampaignShardInvariance holds campaigns on the paper's algorithm to
// the same result at every shard count, run for run: a burst-loss chain
// belongs to its sender, and control events fire ahead of every shard
// event at their instant at every k. The RunReport must be equal but for
// the last bits of the latency mean, which the shard merge reassociates.
// It covers every bundled campaign, and four that put actions on the
// instants deliveries land at: under 1 ms constant latency every delivery
// lands on a whole millisecond. -short runs 2 seeds instead of 5.
func TestCampaignShardInvariance(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	type suite struct {
		fanout    float64
		campaigns []*Scenario
	}
	suites := []suite{
		{5, DefaultSuite()},
		{3, []*Scenario{
			New("recurring-regossip", "").EveryUntil(ms(1), ms(1), ms(12), Regossip(20)),
			New("flash-crowd-400", "").At(ms(3), FlashCrowd(400)),
			New("recurring-crash", "").EveryUntil(ms(1), ms(1), ms(8), CrashFraction(0.05)),
			New("double-regossip", "").At(ms(4), Regossip(200)).At(ms(4), Regossip(200)),
		}},
	}
	lats := []struct {
		name string
		net  simnet.Config
	}{{"uniform", simnet.Config{}}, {"constant", simnet.Config{Latency: simnet.ConstantLatency{D: ms(1)}}}}
	seeds := uint64(5)
	if testing.Short() {
		seeds = 2
	}
	for _, su := range suites {
		for _, s := range su.campaigns {
			for _, lat := range lats {
				for seed := uint64(1); seed <= seeds; seed++ {
					run := func(shards int) RunReport {
						cfg := RunConfig{
							Params: core.Params{N: 2000, Fanout: dist.NewPoisson(su.fanout), AliveRatio: 1},
							Net:    lat.net,
							Shards: shards,
						}
						rep, err := Run(s, cfg, seed)
						if err != nil {
							t.Fatal(err)
						}
						return rep
					}
					one := run(1)
					for _, k := range []int{2, 3, 4, 8} {
						golden.Equal(t, fmt.Sprintf("%s %s seed %d shards=%d", s.Name, lat.name, seed, k),
							run(k), one, "Latency.MeanMs")
					}
				}
			}
		}
	}
}
