package gossipkit

import (
	"context"
	"errors"
	"testing"

	"gossipkit/internal/golden"
)

// TestCampaignGolden pins the campaign engine's reports and aggregates on
// every shape a campaign takes: a sweep, a q × fanout grid, a single run,
// a baseline executor, a probed sweep and the protocol comparison (two
// axes, with an overlay axis, sharded and on one overlay), each at one and
// three workers. testdata/campaign.golden was captured from commit
// eace819, the last one with a separate Compare engine, and its
// paper-algorithm cases re-recorded when those draws became keyed by
// member; it pins the one-worker Outcome, and three workers must equal it.
func TestCampaignGolden(t *testing.T) {
	g := golden.Open(t, "testdata/campaign.golden",
		"The Campaign and Compare engines at commit eace819, the last one with a separate\n"+
			"Compare engine; re-encoded field-wise at 2be1c47, where every old digest matched.\n"+
			"Every case that runs the paper algorithm was re-recorded when its draws became\n"+
			"keyed by member; baseline/1 and the protocol rows are as captured.\n"+
			"case = case/workers; /3 is asserted equal to /1, not pinned")
	defer g.Close(t)
	cfg := ScenarioRunConfig{Params: Params{N: 200, Fanout: Poisson(5), AliveRatio: 1}, PartialViewCopies: 2}
	compare := func(topologies ...Topology) Campaign {
		return Campaign{
			Scenarios: []*Scenario{mustScenario("crash-wave"), mustScenario("partition-heal")},
			Paper:     true,
			Protocols: []ProtocolSpec{
				PbcastParams{N: 200, Fanout: 4, Rounds: 10, AliveRatio: 1},
				LRGParams{N: 200, Degree: 6, GossipProb: 0.8, RepairRounds: 5, AliveRatio: 1},
			},
			Config:     cfg,
			Topologies: topologies,
		}
	}
	sweep := Campaign{Scenarios: DefaultScenarioSuite()[:2], Config: cfg}
	cases := []struct {
		name string
		spec Engine
		runs int // 0: a single Run
		opts []Option
	}{
		{"sweep", sweep, 2, nil},
		{"grid", Campaign{Scenarios: DefaultScenarioSuite()[:2], Config: cfg,
			Qs: []float64{0.8, 1}, Fanouts: []Distribution{Poisson(4), Poisson(6)}}, 2, nil},
		{"single", Campaign{Scenarios: DefaultScenarioSuite()[1:2], Config: cfg}, 0, nil},
		{"baseline", Campaign{Scenarios: []*Scenario{mustScenario("crash-wave")},
			Config: ScenarioRunConfig{Executor: BaselineExecutor(PbcastParams{N: 200, Fanout: 4, Rounds: 10, AliveRatio: 1})}}, 3, nil},
		{"probe", sweep, 2, []Option{WithProbe(ProbeOptions{})}},
		{"compare", compare(), 2, nil},
		{"compare-topologies", compare(Topology{}, KOutTopology(6), WANTopology(4, 0)), 2, nil},
		{"compare-shards", compare(), 2, []Option{WithShards(2)}},
		{"compare-kout", compare(), 2, []Option{WithTopology(KOutTopology(6))}},
	}
	for _, c := range cases {
		var one *Outcome
		for _, workers := range []int{1, 3} {
			opts := append([]Option{WithSeed(17), WithWorkers(workers)}, c.opts...)
			var out *Outcome
			var err error
			if c.runs == 0 {
				out, err = Run(context.Background(), c.spec, opts...)
			} else {
				out, err = RunMany(context.Background(), c.spec, c.runs, opts...)
			}
			if err != nil {
				t.Fatalf("%s/%d: %v", c.name, workers, err)
			}
			if one == nil {
				one = out
				g.Check(t, c.name+"/1", out)
			} else {
				golden.Equal(t, c.name+"/3", out, one)
			}
		}
	}
}

// TestCampaignViewCopiesBounded: a SCAMP copy count of N or more used to
// size a view arena of n·2(c+1)⌈log₂n⌉ entries, and at -views 10⁹ the
// process died out of memory. It is ErrInvalidParams on a protocol row and
// on the paper's PartialViewCopies, on a canceled context and live, while
// N-1 copies stay valid.
func TestCampaignViewCopiesBounded(t *testing.T) {
	const n = 200
	lp := func(c int) ProtocolSpec {
		return LpbcastParams{N: n, Fanout: 4, Rounds: 5, BufferSize: 8, Events: 3, AliveRatio: 1, ViewCopies: c}
	}
	rdg := func(c int) ProtocolSpec {
		return RDGParams{N: n, Fanout: 4, PushRounds: 5, RecoveryRounds: 3, AliveRatio: 1, ViewCopies: c}
	}
	paper := func(c int) ScenarioRunConfig {
		return ScenarioRunConfig{Params: Params{N: n, Fanout: Poisson(4), AliveRatio: 1}, PartialViewCopies: c}
	}
	specs := func(c int) map[string]Campaign {
		suite := DefaultScenarioSuite()[:1]
		return map[string]Campaign{
			"lpbcast row": {Scenarios: suite, Protocols: []ProtocolSpec{lp(c)}},
			"rdg row":     {Scenarios: suite, Protocols: []ProtocolSpec{rdg(c)}},
			"paper row":   {Scenarios: suite, Paper: true, Config: paper(c)},
			"campaign":    {Scenarios: suite, Config: paper(c)},
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []int{n, 1e9} {
		for name, spec := range specs(c) {
			for _, ctx := range []context.Context{canceled, context.Background()} {
				if _, err := RunMany(ctx, spec, 1); !errors.Is(err, ErrInvalidParams) {
					t.Errorf("%s, %d copies: err %v, want ErrInvalidParams", name, c, err)
				}
			}
		}
	}
	for name, spec := range specs(n - 1) {
		if _, err := RunMany(canceled, spec, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("%s, %d copies: err %v, want it valid (context.Canceled)", name, n-1, err)
		}
	}
}

// TestCampaignOverlayValidated: an overlay the group cannot hold is
// ErrInvalidParams from WithTopology too, on a canceled context and live,
// for a sweep, a single run and the comparison grid.
func TestCampaignOverlayValidated(t *testing.T) {
	cfg := ScenarioRunConfig{Params: Params{N: 100, Fanout: Poisson(4), AliveRatio: 1}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []Campaign{
		{Scenarios: DefaultScenarioSuite()[:1], Config: cfg},
		{Scenarios: DefaultScenarioSuite()[:1], Paper: true, Config: cfg},
		{Scenarios: DefaultScenarioSuite()[:1], Config: ScenarioRunConfig{
			Executor: BaselineExecutor(PbcastParams{N: 100, Fanout: 3, Rounds: 3, AliveRatio: 1})}},
	} {
		for _, ctx := range []context.Context{canceled, context.Background()} {
			for _, runs := range []int{1, 2} {
				_, err := RunMany(ctx, spec, runs, WithTopology(WANTopology(1, 0)))
				if !errors.Is(err, ErrInvalidParams) {
					t.Errorf("%s, %d runs, WithTopology(wan:1): err %v, want ErrInvalidParams", spec.Name(), runs, err)
				}
			}
		}
	}
}
