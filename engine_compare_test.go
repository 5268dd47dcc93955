package gossipkit

import (
	"context"
	"errors"
	"testing"
	"time"
)

// compareSpec is the (protocol × scenario) grid the acceptance criteria
// pin: a crash wave, a loss episode, and a partition from the bundled
// suite, each run against the paper's algorithm and all six related-work
// baselines on the shared DES substrate.
func compareSpec() Campaign {
	return Campaign{
		Scenarios: []*Scenario{
			mustScenario("crash-wave"), mustScenario("burst-loss"), mustScenario("partition-heal"),
		},
		Paper: true,
		Protocols: []ProtocolSpec{
			PbcastParams{N: 200, Fanout: 4, Rounds: 10, AliveRatio: 1},
			LpbcastParams{N: 200, Fanout: 4, Rounds: 10, BufferSize: 8, Events: 3, AliveRatio: 1, ViewCopies: 2},
			AntiEntropyParams{N: 200, Rounds: 10, Mode: PushPull, AliveRatio: 1},
			RDGParams{N: 200, Fanout: 4, PushRounds: 10, RecoveryRounds: 5, AliveRatio: 1, ViewCopies: 2, PayloadProb: 0.8},
			LRGParams{N: 200, Degree: 6, GossipProb: 0.8, RepairRounds: 5, AliveRatio: 1},
			FloodingParams{N: 200, AliveRatio: 1},
		},
		Config: ScenarioRunConfig{
			Params:            Params{N: 200, Fanout: Poisson(5), AliveRatio: 1},
			PartialViewCopies: 2,
		},
	}
}

func mustScenario(name string) *Scenario {
	s, ok := ScenarioByName(name)
	if !ok {
		panic("unknown bundled scenario " + name)
	}
	return s
}

// compareGoldenCSV pins the full grid at seed 2008, seeds=2. A diff here
// means the comparison surface moved: a protocol runtime, the scenario
// engine, the network substrate, or the seed derivation. Regenerate
// deliberately and say so in the commit.
const compareGoldenCSV = `protocol,scenario,runs,reliability,reliability_stddev,survivor_reliability,spread_ms,mean_messages,mean_up_at_end,static_prediction,effective_prediction
paper,crash-wave,2,0.675000,0.042426,0.900685,69.469,651.0,146.0,0.993023,0.971119
paper,burst-loss,2,0.942500,0.017678,0.942500,70.306,942.0,200.0,0.993023,0.993023
paper,partition-heal,2,0.927500,0.024749,0.927500,117.243,913.5,200.0,0.993023,0.993023
pbcast,crash-wave,2,0.735000,0.000000,1.000000,115.982,3586.0,146.0,0.000000,0.000000
pbcast,burst-loss,2,1.000000,0.000000,1.000000,102.566,1496.0,200.0,0.000000,0.000000
pbcast,partition-heal,2,1.000000,0.000000,1.000000,115.315,1428.0,200.0,0.000000,0.000000
lpbcast,crash-wave,2,0.732500,0.003536,1.000000,159.997,3536.0,146.0,0.000000,0.000000
lpbcast,burst-loss,2,1.000000,0.000000,1.000000,105.628,5044.0,200.0,0.000000,0.000000
lpbcast,partition-heal,2,1.000000,0.000000,1.000000,118.902,4722.0,200.0,0.000000,0.000000
anti-entropy,crash-wave,2,0.732500,0.003536,1.000000,186.613,3028.0,146.0,0.000000,0.000000
anti-entropy,burst-loss,2,1.000000,0.000000,1.000000,170.060,3600.0,200.0,0.000000,0.000000
anti-entropy,partition-heal,2,1.000000,0.000000,1.000000,193.742,4009.0,200.0,0.000000,0.000000
rdg,crash-wave,2,0.730000,0.000000,1.000000,145.722,3520.0,146.0,0.000000,0.000000
rdg,burst-loss,2,1.000000,0.000000,1.000000,120.371,5052.0,200.0,0.000000,0.000000
rdg,partition-heal,2,1.000000,0.000000,1.000000,146.261,4732.0,200.0,0.000000,0.000000
lrg,crash-wave,2,0.735000,0.007071,1.000000,68.775,806.5,146.0,0.000000,0.000000
lrg,burst-loss,2,1.000000,0.000000,1.000000,52.322,1109.5,200.0,0.000000,0.000000
lrg,partition-heal,2,1.000000,0.000000,1.000000,99.170,1157.5,200.0,0.000000,0.000000
flooding,crash-wave,2,1.000000,0.000000,1.000000,4.948,39800.0,146.0,0.000000,0.000000
flooding,burst-loss,2,1.000000,0.000000,1.000000,4.473,39800.0,200.0,0.000000,0.000000
flooding,partition-heal,2,1.000000,0.000000,1.000000,5.865,41392.0,200.0,0.000000,0.000000
`

// TestCompareGoldenCSV: the (protocol × scenario) grid CSV is golden-pinned
// and identical for any worker count. The paper's survivor reliability
// trails the multi-round baselines under the crash wave (single-shot gossip
// cannot re-serve, the baselines' later rounds can) at a fraction of their
// message cost — the comparative claim the grid exists to measure.
func TestCompareGoldenCSV(t *testing.T) {
	var first string
	for _, workers := range []int{1, 5} {
		out, err := RunMany(context.Background(), compareSpec(), 2,
			WithSeed(2008), WithWorkers(workers), WithoutReports())
		if err != nil {
			t.Fatal(err)
		}
		res := out.Aggregate.(*ScenarioCompareResult)
		csv := res.CSV()
		if first == "" {
			first = csv
		} else if csv != first {
			t.Fatalf("workers=%d: comparison CSV diverged from workers=1", workers)
		}
		if out.Runs != 7*3*2 {
			t.Fatalf("workers=%d: %d runs, want 42", workers, out.Runs)
		}
	}
	if first != compareGoldenCSV {
		t.Errorf("comparison grid moved; regenerate deliberately.\n got:\n%s\nwant:\n%s", first, compareGoldenCSV)
	}
}

// TestProtocolSweepAggregate: RunMany over a protocol baseline returns the
// Estimate-style ProtocolSweep moments in Outcome.Aggregate — reduced in
// run order, so identical for any worker count — not just per-run Reports.
func TestProtocolSweepAggregate(t *testing.T) {
	spec := Baseline{Protocol: PbcastParams{N: 300, Fanout: 3, Rounds: 8, AliveRatio: 0.9}}
	var base *ProtocolSweep
	for _, workers := range []int{1, 4} {
		out, err := RunMany(context.Background(), spec, 8, WithSeed(5), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		agg, ok := out.Aggregate.(*ProtocolSweep)
		if !ok {
			t.Fatalf("aggregate is %T, want *ProtocolSweep", out.Aggregate)
		}
		if agg.Protocol != "pbcast" || agg.Runs != 8 {
			t.Fatalf("aggregate %q runs %d, want pbcast/8", agg.Protocol, agg.Runs)
		}
		if agg.Reliability != out.Reliability {
			t.Errorf("aggregate reliability moments %+v diverge from the generic outcome %+v",
				agg.Reliability, out.Reliability)
		}
		if agg.Rounds.Mean <= 0 || agg.Rounds.Max > 8 {
			t.Errorf("rounds-to-quiescence moments %+v out of range", agg.Rounds)
		}
		if agg.Messages.Min <= 0 || agg.Messages.StdDev < 0 {
			t.Errorf("message moments %+v out of range", agg.Messages)
		}
		// No network faults: survivors are exactly the statically-alive set.
		if agg.SurvivorReliability.Mean != agg.Reliability.Mean {
			t.Errorf("survivor reliability %v != reliability %v under a clean network",
				agg.SurvivorReliability.Mean, agg.Reliability.Mean)
		}
		if base == nil {
			base = agg
		} else if *agg != *base {
			t.Errorf("workers=%d: aggregate diverged from workers=1", workers)
		}
	}
	// A single Run keeps Aggregate nil (no sweep to summarize).
	out, err := Run(context.Background(), spec, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Aggregate != nil {
		t.Errorf("single Run carries aggregate %T, want nil", out.Aggregate)
	}
}

// TestCompareCanceled: ErrCanceled propagates from a mid-grid cancel of
// the comparison grid (the generic engine suite covers it too via
// allEngineSpecs).
func TestCompareCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, err := RunMany(ctx, compareSpec(), 10_000,
		WithSeed(7), WithWorkers(4), WithoutReports(),
		WithObserver(func(r Report) {
			if r.Run == 1 {
				cancel()
			}
		}))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestCampaignOnBaselineExecutor: a Campaign can target a baseline
// protocol through Config.Executor without supplying (ignored) paper
// Params — and grid axes, which sweep those ignored Params, are rejected.
func TestCampaignOnBaselineExecutor(t *testing.T) {
	spec := Campaign{
		Scenarios: []*Scenario{mustScenario("crash-wave")},
		Config: ScenarioRunConfig{
			Executor: BaselineExecutor(PbcastParams{N: 300, Fanout: 4, Rounds: 10, AliveRatio: 1}),
		},
	}
	out, err := RunMany(context.Background(), spec, 3, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Reports {
		det := r.Detail.(ScenarioReport)
		if det.Protocol != "pbcast" {
			t.Fatalf("report labeled %q, want pbcast", det.Protocol)
		}
	}
	if out.Reliability.Mean <= 0 {
		t.Errorf("baseline campaign delivered nothing")
	}

	grid := spec
	grid.Qs = []float64{0.6, 0.8}
	if _, err := RunMany(context.Background(), grid, 2); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("grid axes with a protocol executor: err %v, want ErrInvalidParams", err)
	}
}

// TestProtocolEngineRoundPacing: a protocol engine under a latency model
// paces its round ticks at the latency bound by default, so the round
// budget is not burned while the first hop is still airborne; an explicit
// sub-latency RoundInterval restores the pipelining behavior for study.
func TestProtocolEngineRoundPacing(t *testing.T) {
	p := PbcastParams{N: 500, Fanout: 3, Rounds: 8, AliveRatio: 1}
	net := NetConfig{Latency: UniformLatency(time.Millisecond, 20*time.Millisecond)}
	paced, err := RunMany(context.Background(), Baseline{Protocol: p, Net: net}, 4, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := RunMany(context.Background(),
		Baseline{Protocol: p, Net: net, RoundInterval: time.Millisecond}, 4, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if paced.Reliability.Mean < 0.9 {
		t.Errorf("paced rounds delivered only %.3f; the default interval is not tracking the latency bound",
			paced.Reliability.Mean)
	}
	if pipelined.Reliability.Mean >= paced.Reliability.Mean {
		t.Errorf("1ms ticks under 1-20ms latency should pipeline and degrade: %.3f vs paced %.3f",
			pipelined.Reliability.Mean, paced.Reliability.Mean)
	}
}

// TestCompareValidation: malformed comparison specs fail with
// ErrInvalidParams before any cell runs.
func TestCompareValidation(t *testing.T) {
	ok := compareSpec()
	cases := []struct {
		name string
		spec Campaign
		opts []Option
	}{
		{"no scenarios", Campaign{Paper: true, Config: ok.Config}, nil},
		{"nil second protocol", Campaign{Scenarios: ok.Scenarios, Paper: true,
			Protocols: []ProtocolSpec{ok.Protocols[0], nil}, Config: ok.Config}, nil},
		{"nil protocol", Campaign{Scenarios: ok.Scenarios, Protocols: []ProtocolSpec{nil}, Config: ok.Config}, nil},
		{"invalid baseline", Campaign{Scenarios: ok.Scenarios,
			Protocols: []ProtocolSpec{PbcastParams{N: 1}}, Config: ok.Config}, nil},
		{"invalid paper params", Campaign{Scenarios: ok.Scenarios, Paper: true,
			Config: ScenarioRunConfig{Params: Params{N: 1, Fanout: Poisson(4), AliveRatio: 1}}}, nil},
		{"grid axes beside protocol rows", Campaign{Scenarios: ok.Scenarios, Paper: true, Config: ok.Config,
			Qs: []float64{0.8, 1}}, nil},
		{"topologies without protocol rows", Campaign{Scenarios: ok.Scenarios, Config: ok.Config,
			Topologies: []Topology{{}, KOutTopology(6)}}, nil},
	}
	for _, tc := range cases {
		_, err := RunMany(context.Background(), tc.spec, 2, tc.opts...)
		if !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: err %v, want ErrInvalidParams", tc.name, err)
		}
	}
	// Run without replication semantics is rejected: the grid needs a
	// seeds-per-cell count.
	if _, err := Run(context.Background(), compareSpec()); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("single Run: err %v, want ErrInvalidParams", err)
	}
}
