// Benchmarks regenerating every evaluation artifact of the paper (it has
// figures only, no numbered tables): Figs. 2–7, plus the ablation studies
// registered beside them in internal/experiment (experiment.All). Each
// benchmark times one full regeneration of the corresponding figure at a
// reduced replication scale (benchScale) so the whole suite stays tractable;
// cmd/experiments -all -scale 1.0 writes the full-scale artifacts, one CSV
// and one annotated ASCII chart per figure.
package gossipkit

import (
	"context"
	"fmt"
	"testing"

	"gossipkit/internal/experiment"
)

// benchScale trades replication count for benchmark runtime; the workload
// shape (group sizes, sweeps) is identical to the paper's.
const benchScale = 0.25

func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := experiment.Config{Seed: uint64(i + 1), Scale: benchScale}
		fig, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig2MeanFanout regenerates Fig. 2: mean fanout vs required
// reliability for q in {0.2..1.0} (Eq. 12, analytic).
func BenchmarkFig2MeanFanout(b *testing.B) { benchFigure(b, "fig2") }

// BenchmarkFig3MinExecutions regenerates Fig. 3: minimum executions vs
// reliability for p_s = 0.999 (Eq. 6, analytic).
func BenchmarkFig3MinExecutions(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig4Reliability1000 regenerates Figs. 4a/4b: simulated vs
// analytic reliability across the fanout sweep at n = 1000.
func BenchmarkFig4Reliability1000(b *testing.B) {
	for _, id := range []string{"fig4a", "fig4b"} {
		b.Run(id, func(b *testing.B) { benchFigure(b, id) })
	}
}

// BenchmarkFig5Reliability5000 regenerates Figs. 5a/5b at n = 5000.
func BenchmarkFig5Reliability5000(b *testing.B) {
	for _, id := range []string{"fig5a", "fig5b"} {
		b.Run(id, func(b *testing.B) { benchFigure(b, id) })
	}
}

// BenchmarkFig6SuccessDistribution regenerates Fig. 6: the receipt-count
// distribution at {f=4.0, q=0.9}, n=2000, 20 executions.
func BenchmarkFig6SuccessDistribution(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7SuccessDistribution regenerates Fig. 7 at {f=6.0, q=0.6}.
func BenchmarkFig7SuccessDistribution(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkAblations times the six extension studies.
func BenchmarkAblations(b *testing.B) {
	for _, id := range []string{
		"ablation-fanout-shape",
		"ablation-critical-point",
		"ablation-failure-mask",
		"ablation-finite-size",
		"ablation-partial-view",
		"ablation-reach-vs-giant",
		"ablation-message-loss",
		"ablation-epidemic-curve",
		"ablation-protocol-comparison",
	} {
		b.Run(id, func(b *testing.B) { benchFigure(b, id) })
	}
}

// BenchmarkScenarioSweep measures the scenario engine's sweep throughput —
// fault-injection executions per second across the bundled campaign suite —
// so future PRs can track runner speed. The custom scenario-runs/sec metric
// is the headline number; it scales with worker count on multicore hosts.
func BenchmarkScenarioSweep(b *testing.B) {
	suite := DefaultScenarioSuite()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := Campaign{
				Scenarios: suite,
				Config: ScenarioRunConfig{
					Params:            Params{N: 500, Fanout: Poisson(5), AliveRatio: 1},
					PartialViewCopies: 2,
				},
			}
			const seeds = 4
			cells := len(suite) * seeds
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := RunMany(context.Background(), spec, seeds,
					WithSeed(uint64(i+1)), WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if res := out.Aggregate.(*ScenarioSweepResult); len(res.Scenarios) != len(suite) {
					b.Fatal("incomplete sweep")
				}
			}
			b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "scenario-runs/sec")
		})
	}
}

// BenchmarkEndToEndMulticast measures one full execution of the general
// gossiping algorithm (the paper's inner loop) at the paper's group sizes.
func BenchmarkEndToEndMulticast(b *testing.B) {
	for _, n := range []int{1000, 2000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := Params{N: n, Fanout: Poisson(4), AliveRatio: 0.9}
			spec := MonteCarlo{Params: p, Metric: SourceReach}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), spec, WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
