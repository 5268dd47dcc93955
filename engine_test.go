package gossipkit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/scenario"
	"gossipkit/internal/simnet"
)

func allEngineSpecs() []Engine {
	p := Params{N: 300, Fanout: Poisson(5), AliveRatio: 0.9}
	return []Engine{
		Analytic{Params: p},
		MonteCarlo{Params: p, Metric: GiantComponent},
		MonteCarlo{Params: p, Metric: SourceReach},
		Network{Params: p, Net: NetConfig{Latency: UniformLatency(time.Millisecond, 5*time.Millisecond)}},
		Campaign{Scenarios: DefaultScenarioSuite()[:2],
			Config: ScenarioRunConfig{Params: Params{N: 300, Fanout: Poisson(5), AliveRatio: 1}}},
		Success{Params: SuccessParams{Params: p, Executions: 3, Simulations: 2}},
		Baseline{Protocol: PbcastParams{N: 300, Fanout: 3, Rounds: 8, AliveRatio: 0.9}},
		Baseline{Protocol: LpbcastParams{N: 300, Fanout: 3, Rounds: 8, BufferSize: 4, Events: 2, AliveRatio: 0.9, ViewCopies: 2}},
		Baseline{Protocol: AntiEntropyParams{N: 300, Rounds: 10, Mode: PushPull, AliveRatio: 0.9}},
		Baseline{Protocol: RDGParams{N: 300, Fanout: 3, PushRounds: 6, RecoveryRounds: 3, AliveRatio: 0.9, ViewCopies: 2, PayloadProb: 0.9}},
		Baseline{Protocol: LRGParams{N: 300, Degree: 6, GossipProb: 0.8, RepairRounds: 3, AliveRatio: 0.9}},
		Baseline{Protocol: FloodingParams{N: 300, AliveRatio: 0.9}},
		Campaign{Scenarios: DefaultScenarioSuite()[:2], Paper: true,
			Protocols: []ProtocolSpec{PbcastParams{N: 300, Fanout: 3, Rounds: 8, AliveRatio: 1}},
			Config:    ScenarioRunConfig{Params: Params{N: 300, Fanout: Poisson(5), AliveRatio: 1}}},
	}
}

// TestRunDrivesEveryEngine: the single entry point produces a sane Outcome
// from every backend.
func TestRunDrivesEveryEngine(t *testing.T) {
	for _, spec := range allEngineSpecs() {
		t.Run(spec.Name(), func(t *testing.T) {
			out, err := RunMany(context.Background(), spec, 3, WithSeed(42))
			if err != nil {
				t.Fatal(err)
			}
			if out.Engine != spec.Name() {
				t.Errorf("outcome engine %q", out.Engine)
			}
			if out.Runs < 1 || len(out.Reports) != out.Runs {
				t.Fatalf("runs %d, reports %d", out.Runs, len(out.Reports))
			}
			if out.Reliability.Mean <= 0 || out.Reliability.Mean > 1.0001 {
				t.Errorf("reliability mean %.4f out of range", out.Reliability.Mean)
			}
			for i, r := range out.Reports {
				if r.Run != i {
					t.Errorf("report %d has run index %d", i, r.Run)
				}
				if r.Detail == nil {
					t.Errorf("report %d has no detail", i)
				}
			}
		})
	}

	// A single Campaign Run uses WithSeed verbatim; only sweeps derive
	// per-cell seeds from it.
	out, err := Run(context.Background(), Campaign{
		Scenarios: DefaultScenarioSuite()[1:2],
		Config:    ScenarioRunConfig{Params: Params{N: 300, Fanout: Poisson(5), AliveRatio: 1}},
	}, WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	if rep := out.Reports[0].Detail.(ScenarioReport); rep.Seed != 77 {
		t.Errorf("single scenario run used seed %d, want the seed verbatim", rep.Seed)
	}
}

// TestRunManyDeterministicAcrossWorkers: the Outcome and the observer
// sequence are identical for any worker count, on every engine.
func TestRunManyDeterministicAcrossWorkers(t *testing.T) {
	type seen struct {
		run  int
		rel  float64
		msgs int
	}
	for _, spec := range allEngineSpecs() {
		t.Run(spec.Name(), func(t *testing.T) {
			var base []seen
			var baseOut *Outcome
			for _, workers := range []int{1, 7} {
				var got []seen
				out, err := RunMany(context.Background(), spec, 6,
					WithSeed(99), WithWorkers(workers),
					WithObserver(func(r Report) {
						got = append(got, seen{r.Run, r.Reliability, r.MessagesSent})
					}))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != out.Runs {
					t.Fatalf("workers=%d: %d observations for %d runs", workers, len(got), out.Runs)
				}
				for i, s := range got {
					if s.run != i {
						t.Fatalf("workers=%d: observation %d carried run %d; order must be deterministic", workers, i, s.run)
					}
				}
				if base == nil {
					base, baseOut = got, out
					continue
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("workers=%d: observer stream diverged from workers=1", workers)
				}
				if baseOut.Reliability != out.Reliability || baseOut.Messages != out.Messages {
					t.Errorf("workers=%d: aggregate moments diverged from workers=1", workers)
				}
			}
		})
	}
}

// TestCancellationReturnsErrCanceled: a mid-sweep cancel aborts every
// engine promptly with ErrCanceled (matching context.Canceled too), and
// observers have seen only a clean prefix of runs.
func TestCancellationReturnsErrCanceled(t *testing.T) {
	for _, spec := range allEngineSpecs() {
		t.Run(spec.Name(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var last int = -1
			start := time.Now()
			out, err := RunMany(ctx, spec, 10_000,
				WithSeed(7), WithWorkers(4),
				WithObserver(func(r Report) {
					if r.Run != last+1 {
						t.Errorf("observer jumped from run %d to %d", last, r.Run)
					}
					last = r.Run
					if r.Run == 2 {
						cancel()
					}
				}))
			if err == nil {
				t.Fatalf("10k-run sweep completed despite cancellation (outcome runs: %d)", out.Runs)
			}
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err %v does not match ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err %v does not match context.Canceled", err)
			}
			if out != nil {
				t.Error("canceled run returned a non-nil outcome")
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Errorf("cancellation took %v, want prompt return", elapsed)
			}
		})
	}
}

// TestPreCanceledContext: every engine refuses to start under a canceled
// context.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range allEngineSpecs() {
		observed := 0
		_, err := RunMany(ctx, spec, 5, WithObserver(func(Report) { observed++ }))
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err %v", spec.Name(), err)
		}
		if observed != 0 {
			t.Errorf("%s: %d runs observed under a pre-canceled context", spec.Name(), observed)
		}
	}
}

// badEngineSpecs holds one malformed spec per engine, and a few more for
// the checks that live outside an engine's own parameters.
func badEngineSpecs() []Engine {
	p := Params{N: 100, Fanout: Poisson(4), AliveRatio: 0.9}
	stream := StreamConfig{N: 64, Rate: 100, Duration: 50 * time.Millisecond, Fanout: FixedFanout(3), AliveRatio: 1, BufferCap: -1, ActiveRounds: 8}
	return []Engine{
		Analytic{Params: Params{N: 1, Fanout: Poisson(4), AliveRatio: 0.9}},
		MonteCarlo{Params: Params{N: 100, Fanout: nil, AliveRatio: 0.9}},
		Network{Params: Params{N: 100, Fanout: Poisson(4), AliveRatio: 1.5}},
		Network{Params: p, Net: NetConfig{Loss: BernoulliLoss(2)}},
		Stream{Config: stream},
		Campaign{Scenarios: nil, Config: ScenarioRunConfig{Params: Params{N: 100, Fanout: Poisson(4), AliveRatio: 1}}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1],
			Config: ScenarioRunConfig{Params: Params{N: 1, Fanout: Poisson(4), AliveRatio: 1}}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1], Protocols: []ProtocolSpec{nil}, Config: ScenarioRunConfig{Params: p}},
		Campaign{Scenarios: []*Scenario{nil}, Config: ScenarioRunConfig{Params: p}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1], Paper: true, Config: ScenarioRunConfig{Params: p,
			Executor: BaselineExecutor(FloodingParams{N: 100, AliveRatio: 1})}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1], Config: ScenarioRunConfig{
			Executor: BaselineExecutor(LRGParams{N: 100, Degree: 200, GossipProb: 0.5, AliveRatio: 1})}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1], Config: ScenarioRunConfig{Executor: StreamExecutor(StreamConfig{N: 1})}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1], Config: ScenarioRunConfig{Params: p, Topology: WANTopology(1, 0)}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1], Paper: true, Topologies: []Topology{{}, WANTopology(1, 0)},
			Config: ScenarioRunConfig{Params: p}},
		Success{Params: SuccessParams{Params: Params{N: 100, Fanout: Poisson(4), AliveRatio: 0.9}, Executions: 0, Simulations: 1}},
		Baseline{Protocol: PbcastParams{N: 100, Fanout: -1, Rounds: 3, AliveRatio: 0.9}},
		Baseline{Protocol: LpbcastParams{N: 100, Fanout: 3, Rounds: 3, BufferSize: 0, Events: 1, AliveRatio: 0.9}},
		Baseline{Protocol: AntiEntropyParams{N: 100, Rounds: -1, Mode: Push, AliveRatio: 0.9}},
		Baseline{Protocol: RDGParams{N: 100, Fanout: 0, PushRounds: 3, AliveRatio: 0.9}},
		Baseline{Protocol: LRGParams{N: 100, Degree: 0, GossipProb: 0.5, AliveRatio: 0.9}},
		Baseline{Protocol: FloodingParams{N: 1, AliveRatio: 0.9}},
	}
}

// TestInvalidParamsBeforeCancel: every engine reports a malformed spec as
// ErrInvalidParams even on a canceled context (TestPreCanceledContext has
// the well-formed side, ErrCanceled) — the dry run gossipsim and
// gossipstream make before their first line of output.
func TestInvalidParamsBeforeCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range badEngineSpecs() {
		for _, runs := range []int{1, 3} {
			if _, err := RunMany(ctx, spec, runs); !errors.Is(err, ErrInvalidParams) {
				t.Errorf("%s, %d runs, on a canceled context: err %v, want ErrInvalidParams", spec.Name(), runs, err)
			}
		}
	}
}

// TestGroupSizeBeyondNodeIDs: a group larger than the simulated network's
// 31-bit node ids is ErrInvalidParams on every engine, found before the
// cancellation check as every malformed spec is, so a live run never
// reaches simnet.New's panic. These specs stay out of badEngineSpecs: the
// sentinel test runs those live, and a lost bound must not allocate 2³¹
// members.
func TestGroupSizeBeyondNodeIDs(t *testing.T) {
	const n = math.MaxInt32 + 1
	p := Params{N: n, Fanout: Poisson(4), AliveRatio: 0.9}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []Engine{
		Network{Params: p},
		MonteCarlo{Params: p},
		Analytic{Params: p},
		Success{Params: SuccessParams{Params: p, Executions: 1, Simulations: 1}},
		Stream{Config: StreamConfig{N: n, Rate: 100, Duration: 50 * time.Millisecond, Fanout: FixedFanout(3), AliveRatio: 1}},
		Baseline{Protocol: PbcastParams{N: n, Fanout: 3, Rounds: 8, AliveRatio: 0.9}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1], Config: ScenarioRunConfig{Params: p}},
		Campaign{Scenarios: DefaultScenarioSuite()[:1], Paper: true, Config: ScenarioRunConfig{Params: p}},
	} {
		if _, err := RunMany(ctx, spec, 2); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s with N = 2³¹: err %v, want ErrInvalidParams", spec.Name(), err)
		}
	}
}

// TestInvalidParamsSentinel: every engine wraps validation failures so
// errors.Is(err, ErrInvalidParams) holds, with the internal message kept.
func TestInvalidParamsSentinel(t *testing.T) {
	for _, spec := range badEngineSpecs() {
		_, err := Run(context.Background(), spec)
		if err == nil {
			t.Errorf("%s: invalid spec ran", spec.Name())
			continue
		}
		if !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: err %v does not match ErrInvalidParams", spec.Name(), err)
		}
	}
	// Grid axes and RNG misuse validate with the same sentinel.
	okCfg := ScenarioRunConfig{Params: Params{N: 100, Fanout: Poisson(4), AliveRatio: 1}}
	if _, err := RunMany(context.Background(), Campaign{Scenarios: DefaultScenarioSuite()[:1],
		Config: okCfg, Qs: []float64{1.5}}, 2); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("bad grid q: %v", err)
	}
	if _, err := RunMany(context.Background(), Campaign{Scenarios: DefaultScenarioSuite()[:1],
		Config: okCfg, Fanouts: []Distribution{nil}}, 2); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("nil grid fanout: %v", err)
	}
	if _, err := Run(context.Background(), Analytic{Params: Params{N: 100, Fanout: Poisson(4)}},
		WithRNG(NewRNG(1))); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("WithRNG on Analytic: %v", err)
	}
	// Driver-level validation uses the same sentinel.
	if _, err := RunMany(context.Background(), Analytic{Params: Params{N: 100, Fanout: Poisson(4)}}, 0); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("zero runs: %v", err)
	}
	if _, err := Run(context.Background(), nil); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("nil spec: %v", err)
	}
	if _, err := RunMany(context.Background(), Analytic{Params: Params{N: 100, Fanout: Poisson(4)}}, 3, WithRNG(NewRNG(1))); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("WithRNG on RunMany: %v", err)
	}
}

// TestHostileNumbersRejected: NaN, infinities, out-of-range probabilities
// and latency models that are not a range of non-negative delays, or whose
// hops overrun the kernel's time range, arriving from outside (flags,
// specs), fail validation with ErrInvalidParams on every DES engine that
// would otherwise panic on a worker goroutine or run silently wrong — a
// latency of math.MaxInt64/2 used to wrap the simulated clock ("scheduling
// at -1281023h… before now") — and a rate too low to publish anything is a
// valid empty stream, not an overflowed clock.
func TestHostileNumbersRejected(t *testing.T) {
	nan := math.NaN()
	p := Params{N: 100, Fanout: Poisson(4), AliveRatio: 1}
	sc := func(mut func(*StreamConfig)) Stream {
		cfg := testStreamConfig()
		mut(&cfg)
		return Stream{Config: cfg, Net: testStreamNet()}
	}
	bad := map[string]Engine{
		"stream rate NaN":  sc(func(c *StreamConfig) { c.Rate = nan }),
		"stream rate +Inf": sc(func(c *StreamConfig) { c.Rate = math.Inf(1) }),
		"stream q NaN":     sc(func(c *StreamConfig) { c.AliveRatio = nan }),
		"lrg prob NaN":     Baseline{Protocol: LRGParams{N: 100, Degree: 6, GossipProb: nan, AliveRatio: 1}},
		"rdg payload NaN":  Baseline{Protocol: RDGParams{N: 100, Fanout: 3, PushRounds: 3, AliveRatio: 1, PayloadProb: nan}},
	}
	const ms = time.Millisecond
	nets := map[string]NetConfig{
		"latency uniform hi<lo":                 {Latency: UniformLatency(5*ms, ms)},
		"latency uniform lo<0":                  {Latency: UniformLatency(-2*ms, 5*ms)},
		"latency constant <0":                   {Latency: ConstantLatency(-5 * ms)},
		"latency exponential fl<0":              {Latency: simnet.ExponentialLatency{Floor: -ms, Mean: ms}},
		"latency exponential mn<0":              {Latency: simnet.ExponentialLatency{Floor: ms, Mean: -ms}},
		"latency constant MaxInt64/2":           {Latency: ConstantLatency(math.MaxInt64 / 2)},
		"latency constant past ceiling":         {Latency: ConstantLatency(maxHopLatency + 1)},
		"latency uniform hi past ceiling":       {Latency: UniformLatency(ms, maxHopLatency+1)},
		"latency exponential mean 2⁶⁰":          {Latency: simnet.ExponentialLatency{Floor: ms, Mean: 1 << 60}},
		"latency exponential band past ceiling": {Latency: simnet.ExponentialLatency{Floor: maxHopLatency - 6*ms, Mean: ms}},
	}
	for name, loss := range map[string]float64{"7": 7, "NaN": nan, "-3": -3} {
		nets["loss "+name] = NetConfig{Latency: ConstantLatency(5 * ms), Loss: BernoulliLoss(loss)}
	}
	for name, net := range nets {
		bad["network "+name] = Network{Params: p, Net: net}
		bad["stream "+name] = Stream{Config: testStreamConfig(), Net: net}
		bad["pbcast "+name] = Baseline{Protocol: PbcastParams{N: 100, Fanout: 3, Rounds: 3, AliveRatio: 1}, Net: net}
		bad["campaign "+name] = Campaign{Scenarios: DefaultScenarioSuite()[:1],
			Config: ScenarioRunConfig{Params: p, Net: net}}
		bad["compare "+name] = Campaign{Scenarios: DefaultScenarioSuite()[:1], Paper: true,
			Config: ScenarioRunConfig{Params: p, Net: net}}
	}
	negViews := ScenarioRunConfig{Params: p, PartialViewCopies: -3}
	bad["campaign views -3"] = Campaign{Scenarios: DefaultScenarioSuite()[:1], Config: negViews}
	bad["compare views -3"] = Campaign{Scenarios: DefaultScenarioSuite()[:1], Paper: true, Config: negViews}
	bad["pbcast round interval -1s"] = Baseline{Protocol: PbcastParams{N: 100, Fanout: 3, Rounds: 3, AliveRatio: 1}, RoundInterval: -time.Second}
	for name, cfg := range map[string]ScenarioRunConfig{
		"round interval -1s": {Params: p, RoundInterval: -time.Second},
		"shards -4":          {Params: p, Shards: -4},
	} {
		bad["campaign "+name] = Campaign{Scenarios: DefaultScenarioSuite()[:1], Config: cfg}
		bad["compare "+name] = Campaign{Scenarios: DefaultScenarioSuite()[:1], Paper: true, Config: cfg}
	}
	for name, spec := range bad {
		if _, err := RunMany(context.Background(), spec, 2); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: err %v, want ErrInvalidParams", name, err)
		}
	}
	out, err := Run(context.Background(), sc(func(c *StreamConfig) { c.Rate = 1e-11 }))
	if err != nil || out.Reports[0].Detail.(StreamResult).Scheduled != 0 {
		t.Errorf("rate 1e-11: %v, want a run over an empty schedule", err)
	}
}

// TestLatencyAtHopCeilingRuns: the per-hop latency ceiling that
// TestHostileNumbersRejected holds the engines to is itself accepted, by
// every latency model and every DES engine.
func TestLatencyAtHopCeilingRuns(t *testing.T) {
	const ms = time.Millisecond
	for name, lat := range map[string]simnet.LatencyModel{
		"constant":    ConstantLatency(maxHopLatency),
		"uniform":     UniformLatency(ms, maxHopLatency),
		"exponential": simnet.ExponentialLatency{Floor: maxHopLatency - 7*ms, Mean: ms},
	} {
		net := NetConfig{Latency: lat}
		for _, spec := range []Engine{
			Network{Params: Params{N: 50, Fanout: FixedFanout(3), AliveRatio: 1}, Net: net},
			Baseline{Protocol: PbcastParams{N: 50, Fanout: 3, Rounds: 3, AliveRatio: 1}, Net: net},
			Stream{Config: testStreamConfig(), Net: net},
		} {
			if _, err := Run(context.Background(), spec, WithSeed(1)); err != nil {
				t.Errorf("%s, %s: %v", name, spec.Name(), err)
			}
		}
	}
}

// TestNetworkEngineMatchesSingleRuns: RunMany's internally pooled arenas
// must reproduce what fresh single WithRNG executions produce (arena reuse
// is result-neutral), with run i on the RNG stream split at i.
func TestNetworkEngineMatchesSingleRuns(t *testing.T) {
	p := Params{N: 500, Fanout: Poisson(5), AliveRatio: 0.9}
	cfg := NetConfig{Latency: UniformLatency(time.Millisecond, 8*time.Millisecond)}
	const runs = 5
	out, err := RunMany(context.Background(), Network{Params: p, Net: cfg}, runs,
		WithSeed(123), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	root := NewRNG(123)
	for i := 0; i < runs; i++ {
		single, err := Run(context.Background(), Network{Params: p, Net: cfg}, WithRNG(root.Split(uint64(i))))
		if err != nil {
			t.Fatal(err)
		}
		want := single.Reports[0].Detail.(NetResult)
		if got := out.Reports[i].Detail.(NetResult); got != want {
			t.Errorf("run %d: pooled-arena result diverged from fresh run", i)
		}
	}
}

// TestCampaignGridAggregate: grid axes produce a ScenarioGridResult whose
// cells match the one-worker grid sweep byte for byte.
func TestCampaignGridAggregate(t *testing.T) {
	scenarios := DefaultScenarioSuite()[:2]
	cfg := ScenarioRunConfig{Params: Params{N: 200, Fanout: Poisson(5), AliveRatio: 1}}
	qs := []float64{0.8, 1}
	fans := []Distribution{Poisson(4), Poisson(6)}
	out, err := RunMany(context.Background(),
		Campaign{Scenarios: scenarios, Config: cfg, Qs: qs, Fanouts: fans},
		2, WithSeed(5), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	grid, ok := out.Aggregate.(*ScenarioGridResult)
	if !ok {
		t.Fatalf("aggregate is %T, want *ScenarioGridResult", out.Aggregate)
	}
	if len(grid.Cells) != 2*2*2 {
		t.Fatalf("grid has %d cells", len(grid.Cells))
	}
	if out.Runs != 2*2*2*2 {
		t.Fatalf("outcome saw %d runs, want one per grid execution", out.Runs)
	}
	old, err := scenario.Axes{
		Run: cfg, Qs: qs, Fanouts: fans, Seeds: 2, BaseSeed: 5, Workers: 1,
	}.Sweep(context.Background(), scenarios, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, old.GridResult()) {
		t.Error("engine grid diverged from Axes.Sweep")
	}
}

// TestSuccessEngineSemantics: Run executes the spec's Simulations count;
// RunMany overrides it; the aggregate matches core.RunSuccess.
func TestSuccessEngineSemantics(t *testing.T) {
	p := SuccessParams{
		Params:      Params{N: 300, Fanout: Poisson(5), AliveRatio: 0.9},
		Executions:  4,
		Simulations: 5,
	}
	out, err := Run(context.Background(), Success{Params: p}, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if out.Runs != 5 {
		t.Errorf("Run emitted %d simulations, want the spec's 5", out.Runs)
	}
	agg := out.Aggregate.(SuccessOutcome)
	old, err := core.RunSuccessCtx(context.Background(), p, 11, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg.SuccessRate != old.SuccessRate ||
		agg.MeanExecutionReliability != old.MeanExecutionReliability ||
		agg.ReceiptHistogram.Total() != old.ReceiptHistogram.Total() {
		t.Error("Success engine aggregate diverged from RunSuccess")
	}
	many, err := RunMany(context.Background(), Success{Params: p}, 3, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if many.Runs != 3 {
		t.Errorf("RunMany(3) emitted %d simulations", many.Runs)
	}
}

// TestWithoutReports: aggregate-only sweeps skip Report retention while
// moments, aggregates, and observers stay intact.
func TestWithoutReports(t *testing.T) {
	p := Params{N: 300, Fanout: Poisson(5), AliveRatio: 0.9}
	observed := 0
	lean, err := RunMany(context.Background(), MonteCarlo{Params: p}, 8,
		WithSeed(4), WithoutReports(), WithObserver(func(r Report) { observed++ }))
	if err != nil {
		t.Fatal(err)
	}
	if lean.Reports != nil {
		t.Errorf("WithoutReports retained %d reports", len(lean.Reports))
	}
	if lean.Runs != 8 || observed != 8 {
		t.Errorf("runs %d, observed %d", lean.Runs, observed)
	}
	full, err := RunMany(context.Background(), MonteCarlo{Params: p}, 8, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if lean.Reliability != full.Reliability || !reflect.DeepEqual(lean.Aggregate, full.Aggregate) {
		t.Error("WithoutReports changed the aggregate")
	}
}

// TestAnalyticAgainstMonteCarlo ties the two cheapest engines together
// through the unified API, the way the README quick start does.
func TestAnalyticAgainstMonteCarlo(t *testing.T) {
	p := Params{N: 2000, Fanout: Poisson(4), AliveRatio: 0.9}
	an, err := Run(context.Background(), Analytic{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	pred := an.Aggregate.(Prediction)
	mc, err := RunMany(context.Background(), MonteCarlo{Params: p}, 20, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if diff := mc.Reliability.Mean - pred.Reliability; diff > 0.03 || diff < -0.03 {
		t.Errorf("Monte-Carlo %.4f vs analytic %.4f", mc.Reliability.Mean, pred.Reliability)
	}
}

// TestEdgeSizes pins the boundary sizes nothing else runs: the two smallest
// groups, fanouts from zero to beyond the group, an ideal (zero-latency)
// and a jittered network, more shards than members and an overlay degree
// no smaller than the group — on every engine that simulates. A
// combination may be refused, but only as invalid parameters; whatever
// runs reports a delivery that fits the group.
func TestEdgeSizes(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, fanout := range []int{0, 1, n, n + 3} {
			for _, net := range []NetConfig{{}, {Latency: UniformLatency(time.Millisecond, 5*time.Millisecond)}} {
				for oi, opt := range [][]Option{nil, {WithShards(4)}, {WithTopology(KOutTopology(n + 1))}} {
					p := Params{N: n, Fanout: FixedFanout(fanout), AliveRatio: 0.7}
					sc := StreamConfig{N: n, Rate: 200, Duration: 50 * time.Millisecond, Fanout: FixedFanout(fanout), AliveRatio: 0.7}
					perID, batched := sc, sc
					perID.Discipline = StreamPushPull
					batched.Discipline, batched.Batch = StreamFlood, true
					for _, eng := range []Engine{
						Network{Params: p, Net: net},
						MonteCarlo{Params: p, Metric: GiantComponent},
						MonteCarlo{Params: p, Metric: SourceReach},
						Success{Params: SuccessParams{Params: p, Executions: 3, Simulations: 2}},
						Baseline{Protocol: PbcastParams{N: n, Fanout: fanout, Rounds: 4, AliveRatio: 0.7}, Net: net},
						Baseline{Protocol: LpbcastParams{N: n, Fanout: fanout, Rounds: 4, BufferSize: 4, Events: 2, AliveRatio: 0.7, ViewCopies: 1}, Net: net},
						Baseline{Protocol: AntiEntropyParams{N: n, Mode: PushPull, AliveRatio: 0.7}, Net: net},
						Baseline{Protocol: RDGParams{N: n, Fanout: fanout, PushRounds: 3, RecoveryRounds: 2, AliveRatio: 0.7, ViewCopies: 1}, Net: net},
						Baseline{Protocol: LRGParams{N: n, Degree: n - 1, GossipProb: 0.7, RepairRounds: 2, AliveRatio: 0.7}, Net: net},
						Baseline{Protocol: FloodingParams{N: n, AliveRatio: 0.7}, Net: net},
						Stream{Config: perID, Net: net},
						Stream{Config: batched, Net: net},
					} {
						name := fmt.Sprintf("%s n=%d fanout=%d latency=%v option=%d", eng.Name(), n, fanout, net.Latency != nil, oi)
						out, err := RunMany(context.Background(), eng, 2, append([]Option{WithSeed(5)}, opt...)...)
						if err != nil {
							if !errors.Is(err, ErrInvalidParams) {
								t.Errorf("%s: error %v, want ErrInvalidParams or a result", name, err)
							}
							continue
						}
						for _, r := range out.Reports {
							if !(r.Reliability >= 0 && r.Reliability <= 1) {
								t.Errorf("%s run %d: reliability %g outside [0,1]", name, r.Run, r.Reliability)
							}
							most := r.AliveCount
							if res, ok := r.Detail.(StreamResult); ok {
								most *= res.Published // first receipts summed over the run's messages
							}
							if r.AliveCount > n || r.Delivered > most {
								t.Errorf("%s run %d: delivered %d, alive %d of %d", name, r.Run, r.Delivered, r.AliveCount, n)
							}
						}
					}
				}
			}
		}
	}
}
