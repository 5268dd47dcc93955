package gossipkit_test

import (
	"context"
	"fmt"

	"gossipkit"
)

// Example reproduces the paper's headline numbers at its Fig. 6 operating
// point: mean fanout 4 with 10% failed members.
func Example() {
	p := gossipkit.Params{
		N:          2000,
		Fanout:     gossipkit.Poisson(4),
		AliveRatio: 0.9,
	}
	pred, _ := gossipkit.Predict(p)
	fmt.Printf("critical ratio: %.2f\n", pred.CriticalRatio)
	fmt.Printf("reliability:    %.4f\n", pred.Reliability)
	t, _ := gossipkit.ExecutionsForSuccess(p, 0.999)
	fmt.Printf("executions for 99.9%% success: %d\n", t)
	// Output:
	// critical ratio: 0.25
	// reliability:    0.9695
	// executions for 99.9% success: 2
}

// ExampleRun drives one execution of the general gossiping algorithm
// through the unified engine API.
func ExampleRun() {
	p := gossipkit.Params{
		N:          1000,
		Fanout:     gossipkit.FixedFanout(8),
		AliveRatio: 1,
	}
	out, _ := gossipkit.Run(context.Background(),
		gossipkit.MonteCarlo{Params: p, Metric: gossipkit.SourceReach},
		gossipkit.WithSeed(42))
	res := out.Reports[0].Detail.(gossipkit.Result)
	fmt.Printf("reached over 99%%: %v\n", res.Reliability > 0.99)
	// Output:
	// reached over 99%: true
}

// ExampleRunMany estimates the paper's simulated reliability metric with
// 20 seeded replications on a worker pool — deterministic regardless of
// parallelism.
func ExampleRunMany() {
	p := gossipkit.Params{
		N:          1000,
		Fanout:     gossipkit.Poisson(4),
		AliveRatio: 0.9,
	}
	out, _ := gossipkit.RunMany(context.Background(),
		gossipkit.MonteCarlo{Params: p}, 20, gossipkit.WithSeed(42))
	pred, _ := gossipkit.Predict(p)
	est := out.Aggregate.(gossipkit.ComponentEstimate)
	fmt.Printf("within 2%% of model: %v\n",
		est.Mean > pred.Reliability-0.02 && est.Mean < pred.Reliability+0.02)
	// Output:
	// within 2% of model: true
}

// ExampleWithObserver streams per-run progress in deterministic run order,
// whatever the worker count.
func ExampleWithObserver() {
	p := gossipkit.Params{N: 500, Fanout: gossipkit.Poisson(5), AliveRatio: 0.9}
	gossipkit.RunMany(context.Background(), gossipkit.MonteCarlo{Params: p}, 3,
		gossipkit.WithSeed(7), gossipkit.WithWorkers(8),
		gossipkit.WithObserver(func(r gossipkit.Report) {
			fmt.Printf("run %d done\n", r.Run)
		}))
	// Output:
	// run 0 done
	// run 1 done
	// run 2 done
}

// ExampleFanoutForReliability shows the paper's design equation (Eq. 12):
// the mean fanout needed for a reliability target under failures.
func ExampleFanoutForReliability() {
	z, _ := gossipkit.FanoutForReliability(0.99, 0.8)
	fmt.Printf("z = %.2f\n", z)
	// Output:
	// z = 5.81
}

// ExampleCriticalRatio shows the fault-tolerance threshold (Eq. 10): with
// mean fanout 5, gossip survives as long as more than 1/5 of the members
// stay up.
func ExampleCriticalRatio() {
	fmt.Printf("q_c = %.2f\n", gossipkit.CriticalRatio(5))
	// Output:
	// q_c = 0.20
}

// ExampleBaseline compares the paper's single-shot gossip with the
// round-based Pbcast baseline through the same entry point.
func ExampleBaseline() {
	out, _ := gossipkit.RunMany(context.Background(), gossipkit.Baseline{
		Protocol: gossipkit.PbcastParams{N: 1000, Fanout: 3, Rounds: 12, AliveRatio: 0.9},
	}, 10, gossipkit.WithSeed(1))
	fmt.Printf("pbcast delivers everyone: %v\n", out.Reliability.Mean > 0.999)
	// Output:
	// pbcast delivers everyone: true
}
