package gossipkit

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func probedNetworkSpec() Network {
	return Network{
		Params: Params{N: 300, Fanout: Poisson(5), AliveRatio: 0.9},
		Net:    NetConfig{Latency: UniformLatency(time.Millisecond, 5*time.Millisecond)},
	}
}

// TestWithProbeNetworkMetrics: a probed Network sweep carries per-run and
// merged telemetry, and the curves agree with the headline results.
func TestWithProbeNetworkMetrics(t *testing.T) {
	out, err := RunMany(context.Background(), probedNetworkSpec(), 4,
		WithSeed(42), WithProbe(ProbeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics == nil {
		t.Fatal("probed outcome has no merged metrics")
	}
	if out.Metrics.Runs != 4 {
		t.Fatalf("merged %d runs, want 4", out.Metrics.Runs)
	}
	var meanDelivered float64
	for i, r := range out.Reports {
		if r.Metrics == nil {
			t.Fatalf("report %d has no metrics", i)
		}
		inf := r.Metrics.Infected
		if len(inf) == 0 || inf[len(inf)-1] != int64(r.Delivered) {
			t.Errorf("report %d final infected %v, delivered %d", i, inf, r.Delivered)
		}
		if r.Metrics.Latency.Total == 0 {
			t.Errorf("report %d has an empty latency histogram", i)
		}
		meanDelivered += float64(r.Delivered) / 4
	}
	curve := out.Metrics.InfectedMeans()
	if got := curve[len(curve)-1]; got != meanDelivered {
		t.Errorf("merged final infected mean %g, mean delivered %g", got, meanDelivered)
	}
}

// TestWithProbeDoesNotPerturbResults: probed runs are bit-identical to
// unprobed ones — the probe consumes no randomness and schedules nothing.
func TestWithProbeDoesNotPerturbResults(t *testing.T) {
	plain, err := RunMany(context.Background(), probedNetworkSpec(), 5, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	probed, err := RunMany(context.Background(), probedNetworkSpec(), 5,
		WithSeed(7), WithProbe(ProbeOptions{TraceCapacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Reports {
		p, q := plain.Reports[i], probed.Reports[i]
		if p.Reliability != q.Reliability || p.Delivered != q.Delivered ||
			p.MessagesSent != q.MessagesSent || p.SpreadMs != q.SpreadMs {
			t.Fatalf("run %d diverged under probe: %+v vs %+v", i, p, q)
		}
	}
}

// TestWithProbeWorkerCountInvariance: the merged curves are byte-identical
// for any WithWorkers count — on the Network engine and on a Campaign
// sweep (whose aggregate additionally carries per-scenario curves).
func TestWithProbeWorkerCountInvariance(t *testing.T) {
	curveCSV := func(m *MergedMetrics) string {
		var b strings.Builder
		if err := m.WriteCurveCSV(&b, "x", true); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	t.Run("network", func(t *testing.T) {
		var base string
		for _, workers := range []int{1, 4} {
			out, err := RunMany(context.Background(), probedNetworkSpec(), 6,
				WithSeed(99), WithWorkers(workers), WithProbe(ProbeOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			csv := curveCSV(out.Metrics)
			if workers == 1 {
				base = csv
			} else if csv != base {
				t.Fatalf("merged curves differ between 1 and %d workers", workers)
			}
		}
	})
	t.Run("campaign", func(t *testing.T) {
		spec := Campaign{
			Scenarios: DefaultScenarioSuite()[:2],
			Config: ScenarioRunConfig{
				Params: Params{N: 300, Fanout: Poisson(5), AliveRatio: 1},
				Net:    NetConfig{Latency: UniformLatency(time.Millisecond, 5*time.Millisecond)},
			},
		}
		var base, baseCurves string
		for _, workers := range []int{1, 5} {
			out, err := RunMany(context.Background(), spec, 3,
				WithSeed(123), WithWorkers(workers), WithProbe(ProbeOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			sweep := out.Aggregate.(*ScenarioSweepResult)
			if len(sweep.Curves) != 2 {
				t.Fatalf("sweep has %d curve sets, want 2", len(sweep.Curves))
			}
			curves, err := sweep.CurvesCSV()
			if err != nil {
				t.Fatal(err)
			}
			csv := curveCSV(out.Metrics)
			if workers == 1 {
				base, baseCurves = csv, curves
			} else if csv != base || curves != baseCurves {
				t.Fatalf("curves differ between 1 and %d workers", workers)
			}
		}
	})
}

// TestWithProbeProtocolEngine: baseline protocol engines report
// rounds-to-delivery through the hops histogram.
func TestWithProbeProtocolEngine(t *testing.T) {
	spec := Baseline{Protocol: PbcastParams{N: 300, Fanout: 3, Rounds: 8, AliveRatio: 0.9}}
	out, err := RunMany(context.Background(), spec, 3, WithSeed(5), WithProbe(ProbeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics == nil || out.Metrics.Runs != 3 {
		t.Fatalf("merged metrics %+v", out.Metrics)
	}
	if out.Metrics.Hops.Total == 0 {
		t.Error("no rounds-to-delivery observations")
	}
	if out.Metrics.Fanout.Total == 0 {
		t.Error("no fanout observations")
	}
}

// TestWithProbeRejectedOnGrids: the compare grid and Campaign grid axes
// reject WithProbe with ErrInvalidParams.
func TestWithProbeRejectedOnGrids(t *testing.T) {
	cmp := Campaign{Scenarios: DefaultScenarioSuite()[:1], Paper: true,
		Config: ScenarioRunConfig{Params: Params{N: 300, Fanout: Poisson(5), AliveRatio: 1}}}
	if _, err := RunMany(context.Background(), cmp, 2, WithProbe(ProbeOptions{})); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("compare+probe error %v, want ErrInvalidParams", err)
	}
	grid := Campaign{Scenarios: DefaultScenarioSuite()[:1],
		Config: ScenarioRunConfig{Params: Params{N: 300, Fanout: Poisson(5), AliveRatio: 1}},
		Qs:     []float64{0.9, 1}}
	if _, err := RunMany(context.Background(), grid, 2, WithProbe(ProbeOptions{})); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("grid+probe error %v, want ErrInvalidParams", err)
	}
}

// TestWithProbeIgnoredOffSubstrate: engines with no DES substrate have
// nothing to observe; the option is a documented no-op there.
func TestWithProbeIgnoredOffSubstrate(t *testing.T) {
	p := Params{N: 300, Fanout: Poisson(5), AliveRatio: 0.9}
	out, err := Run(context.Background(), Analytic{Params: p}, WithProbe(ProbeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics != nil {
		t.Error("analytic outcome unexpectedly carries metrics")
	}
}
