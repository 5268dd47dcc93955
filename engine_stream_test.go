package gossipkit

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func testStreamConfig() StreamConfig {
	return StreamConfig{
		N:        64,
		Rate:     300,
		Duration: 200 * time.Millisecond,
		Fanout:   FixedFanout(3),
	}
}

func testStreamNet() NetConfig {
	return NetConfig{Latency: UniformLatency(time.Millisecond, 5*time.Millisecond)}
}

func TestStreamEngineSingleRun(t *testing.T) {
	out, err := Run(context.Background(), Stream{Config: testStreamConfig(), Net: testStreamNet()},
		WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != "stream" || out.Runs != 1 {
		t.Fatalf("engine %q runs %d", out.Engine, out.Runs)
	}
	res, ok := out.Reports[0].Detail.(StreamResult)
	if !ok {
		t.Fatalf("Detail is %T, want StreamResult", out.Reports[0].Detail)
	}
	if res.Published == 0 {
		t.Fatal("no messages published")
	}
	if out.Reports[0].Reliability != res.MeanReliability {
		t.Fatal("Report.Reliability is not the mean per-message reliability")
	}
}

func TestStreamEngineWorkerInvariance(t *testing.T) {
	spec := Stream{Config: testStreamConfig(), Net: testStreamNet()}
	a, err := RunMany(context.Background(), spec, 6, WithSeed(9), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMany(context.Background(), spec, 6, WithSeed(9), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("outcome differs across worker counts")
	}
}

func TestStreamEngineProbeCompose(t *testing.T) {
	spec := Stream{Config: testStreamConfig(), Net: testStreamNet()}
	out, err := RunMany(context.Background(), spec, 3, WithSeed(4), WithProbe(ProbeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stream == nil || out.Stream.Runs != 3 {
		t.Fatalf("merged stream metrics %+v, want 3 runs", out.Stream)
	}
	if out.Metrics != nil {
		t.Fatal("single-rumor merged metrics set on a stream run")
	}
	for _, r := range out.Reports {
		if r.Stream == nil || len(r.Stream.Occupancy) == 0 {
			t.Fatal("report missing stream telemetry")
		}
	}

	// Zero overhead when off: probed and bare outcomes agree run for run.
	bare, err := RunMany(context.Background(), spec, 3, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bare.Reports {
		if !reflect.DeepEqual(bare.Reports[i].Detail, out.Reports[i].Detail) {
			t.Fatalf("run %d: probe perturbed the stream", i)
		}
	}
}

func TestStreamEngineShardsCompose(t *testing.T) {
	spec := Stream{Config: testStreamConfig(), Net: testStreamNet()}
	single, err := Run(context.Background(), spec, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(context.Background(), spec, WithSeed(7), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.Reports[0].Detail, sharded.Reports[0].Detail) {
		t.Fatal("WithShards(1) diverged from the default run")
	}
	multi, err := Run(context.Background(), spec, WithSeed(7), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	m := multi.Reports[0].Detail.(StreamResult)
	s := single.Reports[0].Detail.(StreamResult)
	if len(m.Messages) != len(s.Messages) || m.AliveCount != s.AliveCount {
		t.Fatal("sharded schedule or mask diverged from the one-shard run")
	}
}

func TestStreamEngineTopologyCompose(t *testing.T) {
	spec := Stream{Config: testStreamConfig(), Net: testStreamNet()}
	out, err := Run(context.Background(), spec, WithSeed(5), WithTopology(KOutTopology(8)))
	if err != nil {
		t.Fatal(err)
	}
	res := out.Reports[0].Detail.(StreamResult)
	if res.Published == 0 {
		t.Fatal("no messages published over the overlay")
	}
	// A conflictingly-set view is rejected.
	bad := spec
	bad.Config.View = FullView(bad.Config.N)
	if _, err := Run(context.Background(), bad, WithTopology(KOutTopology(8))); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("view conflict not rejected: %v", err)
	}
}

func TestStreamEngineValidation(t *testing.T) {
	if _, err := Run(context.Background(), Stream{}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("zero spec not rejected: %v", err)
	}
}

// TestStreamScenarioExecutor threads a crash-wave campaign through a
// live stream via the scenario seam.
func TestStreamScenarioExecutor(t *testing.T) {
	s := NewScenario("stream-wave", "crash wave under streaming load").
		At(50*time.Millisecond, CrashFraction(0.25))
	spec := Campaign{
		Scenarios: []*Scenario{s},
		Config: ScenarioRunConfig{
			Net:      testStreamNet(),
			Executor: StreamExecutor(testStreamConfig()),
		},
	}
	out, err := Run(context.Background(), spec, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := out.Reports[0].Detail.(ScenarioReport)
	if !ok {
		t.Fatalf("Detail is %T, want ScenarioReport", out.Reports[0].Detail)
	}
	if rep.Crashed == 0 {
		t.Fatal("campaign crashed nobody")
	}
	if rep.Reliability <= 0 || rep.Reliability > 1 {
		t.Fatalf("stream campaign reliability %g out of range", rep.Reliability)
	}
	if rep.UpAtEnd >= testStreamConfig().N {
		t.Fatalf("up-at-end %d not reduced by the crash wave", rep.UpAtEnd)
	}

	again, err := Run(context.Background(), spec, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, again) {
		t.Fatal("stream campaign not deterministic")
	}
}

// TestStreamCampaignRejectsProbe: the stream executor attaches no probe,
// so a probed stream campaign is ErrInvalidParams rather than an Outcome
// whose Metrics count runs over empty series.
func TestStreamCampaignRejectsProbe(t *testing.T) {
	spec := Campaign{
		Scenarios: DefaultScenarioSuite()[:1],
		Config:    ScenarioRunConfig{Net: testStreamNet(), Executor: StreamExecutor(testStreamConfig())},
	}
	probe := WithProbe(ProbeOptions{})
	if _, err := Run(context.Background(), spec, probe); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("Run: err %v, want ErrInvalidParams", err)
	}
	if _, err := RunMany(context.Background(), spec, 2, probe); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("RunMany: err %v, want ErrInvalidParams", err)
	}
}
