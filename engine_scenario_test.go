package gossipkit

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gossipkit/internal/golden"
)

// digestCampaignOutcome renders an Outcome of the campaign engine as one
// golden line: engine name, run count, the reports and the aggregate,
// every pointer dereferenced so the digests hold values, not addresses.
func digestCampaignOutcome(t *testing.T, out *Outcome) string {
	t.Helper()
	var reports []string
	for _, r := range out.Reports {
		var m RunMetrics
		if r.Metrics != nil {
			m = *r.Metrics
		}
		r.Metrics = nil
		det := r.Detail.(ScenarioReport)
		var dm RunMetrics
		if det.Metrics != nil {
			dm = *det.Metrics
		}
		det.Metrics = nil
		r.Detail = det
		reports = append(reports, golden.Digest(r)+"/"+golden.Digest(m)+"/"+golden.Digest(dm))
	}
	var agg string
	switch a := out.Aggregate.(type) {
	case nil:
		agg = "nil"
	case *ScenarioSweepResult:
		v := *a
		var curves []MergedMetrics
		for _, c := range v.Curves {
			curves = append(curves, *c)
		}
		v.Curves = nil
		agg = golden.Digest(v) + "/" + golden.Digest(curves)
	case *ScenarioGridResult:
		agg = golden.Digest(*a)
	case *ScenarioCompareResult:
		agg = golden.Digest(*a)
	default:
		t.Fatalf("aggregate %T", out.Aggregate)
	}
	var merged MergedMetrics
	if out.Metrics != nil {
		merged = *out.Metrics
	}
	return fmt.Sprintf("engine=%s runs=%d reports=%s aggregate=%T/%s metrics=%s moments=%s",
		out.Engine, out.Runs, golden.Digest(reports), out.Aggregate, agg, golden.Digest(merged),
		golden.Digest([]Moments{out.Reliability, out.Messages, out.SpreadMs}))
}

// TestCampaignGolden pins the campaign engine's reports and aggregates on
// every shape a campaign takes: a sweep, a q × fanout grid, a single run,
// a baseline executor, a probed sweep and the protocol comparison (two
// axes, with an overlay axis, sharded and on one overlay), each at one and
// three workers. testdata/campaign.golden was captured from commit
// eace819, the last one with a separate Compare engine; regenerating it
// with -update on a later commit defeats the test.
func TestCampaignGolden(t *testing.T) {
	g := golden.Open(t, "testdata/campaign.golden",
		"The Campaign and Compare engines at commit eace819, the last one with\n"+
			"a separate Compare engine. case = case/workers")
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
			g.Check(t, fmt.Sprintf("%s/%d", c.name, workers), digestCampaignOutcome(t, out))
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
