package gossipkit_test

import (
	"context"
	"fmt"
	"strings"
	"time"

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

// ExampleExecutionsForSuccess dimensions a protocol from its requirements
// with the paper's design equations, then checks the design by simulation.
// The target is 99.9% of subscribers per execution while up to 30% of
// 5000 members are down, and a 99.9% chance that every one of them is
// reached: Eq. 12 picks the mean fanout, Eq. 10 gives the margin over the
// critical point, Eq. 6 the number of executions, and 30 seeded Monte-Carlo
// replications confirm the reliability. A q sweep at the designed fanout
// shows which failure levels the design survives.
func ExampleExecutionsForSuccess() {
	const (
		target  = 0.999 // per-execution reliability S
		q       = 0.7   // at most 30% of members failed
		success = 0.999 // group-wide success probability
	)
	z, err := gossipkit.FanoutForReliability(target, q)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Eq. 12: mean fanout z = %.3f for S=%.3f at q=%.1f\n", z, target, q)
	qc := gossipkit.CriticalRatio(z)
	fmt.Printf("Eq. 10: critical nonfailed ratio q_c = %.3f (margin %.1fx)\n", qc, q/qc)

	p := gossipkit.Params{N: 5000, Fanout: gossipkit.Poisson(z), AliveRatio: q}
	t, err := gossipkit.ExecutionsForSuccess(p, success)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Eq. 6: %d executions for %.1f%% group success\n", t, success*100)

	giant, err := gossipkit.RunMany(context.Background(),
		gossipkit.MonteCarlo{Params: p}, 30, gossipkit.WithSeed(7))
	if err != nil {
		fmt.Println(err)
		return
	}
	measured := giant.Reliability.Mean
	fmt.Printf("validation: simulated reliability %.4f (target %.3f, gap %+.4f)\n",
		measured, target, measured-target)

	fmt.Println("\nq sweep at the designed fanout:")
	for _, q := range []float64{0.3, 0.5, 0.7, 0.9, 1.0} {
		pq := p
		pq.AliveRatio = q
		pred, err := gossipkit.Predict(pq)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("  q=%.1f  R=%.4f  %s\n", q, pred.Reliability,
			strings.Repeat("#", int(pred.Reliability*40)))
	}
	// Output:
	// Eq. 12: mean fanout z = 9.878 for S=0.999 at q=0.7
	// Eq. 10: critical nonfailed ratio q_c = 0.101 (margin 6.9x)
	// Eq. 6: 1 executions for 99.9% group success
	// validation: simulated reliability 0.9989 (target 0.999, gap -0.0001)
	//
	// q sweep at the designed fanout:
	//   q=0.3  R=0.9379  #####################################
	//   q=0.5  R=0.9926  #######################################
	//   q=0.7  R=0.9990  #######################################
	//   q=0.9  R=0.9999  #######################################
	//   q=1.0  R=0.9999  #######################################
}

// ExampleCampaign runs the same two fault campaigns against the paper's
// algorithm and four related-work baselines on one discrete-event
// substrate. Every protocol row faces the same campaign randomness: a
// mid-spread crash wave, and a partition that no timer heals but a stall
// trigger does, once delivery has made no progress for 30 ms of simulated
// time. The second table prices survivor reliability in messages:
// flooding is the Θ(n²) upper envelope, and the paper's single-shot
// algorithm sits near the baselines' reliability at a fraction of their
// cost.
func ExampleCampaign() {
	const n = 500
	crashWave, _ := gossipkit.ScenarioByName("crash-wave")
	rescue := gossipkit.NewScenario("stall-rescue",
		"partition from t=0, healed by a stall trigger plus re-gossip").
		At(0, gossipkit.PartitionRange(0.5, 1.0)).
		OnStall(30*time.Millisecond, gossipkit.HealPartition()).
		OnStall(30*time.Millisecond, gossipkit.Regossip(10))

	spec := gossipkit.Campaign{
		Scenarios: []*gossipkit.Scenario{crashWave, rescue},
		Paper:     true, // the paper's algorithm, labeled "paper"
		Protocols: []gossipkit.ProtocolSpec{
			gossipkit.PbcastParams{N: n, Fanout: 4, Rounds: 12, AliveRatio: 1},
			gossipkit.AntiEntropyParams{N: n, Rounds: 12, Mode: gossipkit.PushPull, AliveRatio: 1},
			gossipkit.LRGParams{N: n, Degree: 7, GossipProb: 0.8, RepairRounds: 6, AliveRatio: 1},
			gossipkit.FloodingParams{N: n, AliveRatio: 1},
		},
		Config: gossipkit.ScenarioRunConfig{
			Params:            gossipkit.Params{N: n, Fanout: gossipkit.Poisson(5), AliveRatio: 1},
			PartialViewCopies: 2,
		},
	}
	// 5 seeds per (protocol, scenario) cell, the same for any worker count.
	out, err := gossipkit.RunMany(context.Background(), spec, 5, gossipkit.WithSeed(7))
	if err != nil {
		fmt.Println(err)
		return
	}
	grid := out.Aggregate.(*gossipkit.ScenarioCompareResult)
	fmt.Print(grid.Table())

	fmt.Println("\nmessages per survivor served (crash-wave):")
	for pi, proto := range grid.Protocols {
		cell := grid.Cells[pi*len(grid.Scenarios)] // crash-wave is scenario 0
		fmt.Printf("  %-14s %8.1f msgs  (survivor reliability %.3f)\n",
			proto, cell.MeanMessages/(cell.SurvivorReliability.Mean*cell.MeanUpAtEnd+1),
			cell.SurvivorReliability.Mean)
	}
	// Output:
	// comparison: 5 protocols x 2 scenarios, 5 seeds
	// scenario           protocol                  rel  survivors    spread     messages
	// crash-wave         paper                  0.6968     0.9430    73.8ms       1730.0
	// crash-wave         pbcast                 0.7312     1.0000   127.3ms      11049.6
	// crash-wave         anti-entropy           0.7304     1.0000   229.1ms       9030.0
	// crash-wave         lrg                    0.7408     1.0000    64.1ms       2339.4
	// crash-wave         flooding               1.0000     1.0000     4.0ms     249500.0
	// stall-rescue       paper                  0.9464     0.9464   186.2ms       2391.2
	// stall-rescue       pbcast                 0.9908     0.9908   237.9ms       7824.8
	// stall-rescue       anti-entropy           0.4844     0.4844   297.7ms      12020.0
	// stall-rescue       lrg                    0.9896     0.9896   225.9ms       3794.4
	// stall-rescue       flooding               1.0000     1.0000    48.2ms     254490.0
	//
	// messages per survivor served (crash-wave):
	//   paper               5.0 msgs  (survivor reliability 0.943)
	//   pbcast             30.2 msgs  (survivor reliability 1.000)
	//   anti-entropy       24.7 msgs  (survivor reliability 1.000)
	//   lrg                 6.4 msgs  (survivor reliability 1.000)
	//   flooding          681.7 msgs  (survivor reliability 1.000)
}

// ExampleStream is topic-based publish/subscribe on streaming gossip
// multicast, the setting of lpbcast (the paper's reference [1]): bounded
// rumor buffers under sustained load. Every member of a 256-member group
// may publish, events round-robin across three topics, and 15% of the
// members are down throughout (the paper's q = 0.85). The same workload
// runs at two offered rates on either side of the buffer's saturation
// knee. Below it, per-topic delivery matches the paper's single-rumor
// prediction; above it, eviction loss opens a gap the single-rumor
// analysis cannot see.
func ExampleStream() {
	const (
		n         = 256
		fanout    = 5.0
		q         = 0.85
		bufferCap = 12
	)
	topics := []string{"market.btc", "market.eth", "alerts.sev1"}
	ctx := context.Background()

	out, err := gossipkit.Run(ctx, gossipkit.Analytic{
		Params: gossipkit.Params{N: n, Fanout: gossipkit.Poisson(fanout), AliveRatio: q},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	model := out.Aggregate.(gossipkit.Prediction).Reliability
	fmt.Printf("group=%d, q=%.2f, fanout Po(%.1f), buffer cap %d, eviction lpbcast\n",
		n, q, fanout, bufferCap)
	fmt.Printf("model single-rumor delivery probability: %.4f\n\n", model)

	for _, rate := range []float64{300, 9000} {
		out, err := gossipkit.Run(ctx, gossipkit.Stream{
			Config: gossipkit.StreamConfig{
				N:          n,
				Rate:       rate,
				Duration:   500 * time.Millisecond,
				Fanout:     gossipkit.Poisson(fanout),
				AliveRatio: q,
				BufferCap:  bufferCap,
				Eviction:   gossipkit.EvictLpbcast,
				Discipline: gossipkit.StreamPush,
			},
			Net: gossipkit.NetConfig{
				Latency: gossipkit.UniformLatency(time.Millisecond, 5*time.Millisecond),
			},
		}, gossipkit.WithSeed(2008))
		if err != nil {
			fmt.Println(err)
			return
		}
		res := out.Reports[0].Detail.(gossipkit.StreamResult)
		fmt.Printf("offered rate %.0f events/s: published=%d skipped=%d (sources down)\n",
			rate, res.Published, res.Skipped)

		// Per topic: the mean delivery ratio among the initially alive
		// members, the worst message and the evictions. The schedule index
		// picks the topic.
		type tally struct {
			events, evicted int
			relSum, relMin  float64
		}
		byTopic := make([]tally, len(topics))
		for i := range byTopic {
			byTopic[i].relMin = 1
		}
		for _, m := range res.Messages {
			if m.Outcome == gossipkit.MsgSkipped { // never entered the stream
				continue
			}
			tl := &byTopic[m.ID%len(topics)]
			tl.events++
			tl.evicted += m.Evictions
			tl.relSum += m.Reliability
			tl.relMin = min(tl.relMin, m.Reliability)
		}
		for i, tl := range byTopic {
			mean := tl.relSum / float64(tl.events)
			fmt.Printf("  topic %-12s events=%4d  delivery=%.4f (model %.4f, gap %+.4f)  worst=%.4f  evictions=%d\n",
				topics[i], tl.events, mean, model, mean-model, tl.relMin, tl.evicted)
		}
		fmt.Printf("  outcomes: %d delivered, %d lost to eviction, %d lost to drops, %d died; ledger evicted=%d\n\n",
			res.FullyDelivered, res.LostEviction, res.LostDrop, res.Died, res.Ledger.Evicted)
	}
	fmt.Println("(below the knee the stream matches the single-rumor model;")
	fmt.Println(" above it bounded buffers evict live rumors and reliability")
	fmt.Println(" collapses — the loss mode only streaming analysis exposes)")
	// Output:
	// group=256, q=0.85, fanout Po(5.0), buffer cap 12, eviction lpbcast
	// model single-rumor delivery probability: 0.9848
	//
	// offered rate 300 events/s: published=128 skipped=20 (sources down)
	//   topic market.btc   events=  44  delivery=1.0000 (model 0.9848, gap +0.0152)  worst=1.0000  evictions=226
	//   topic market.eth   events=  43  delivery=1.0000 (model 0.9848, gap +0.0152)  worst=1.0000  evictions=414
	//   topic alerts.sev1  events=  41  delivery=1.0000 (model 0.9848, gap +0.0152)  worst=1.0000  evictions=449
	//   outcomes: 128 delivered, 0 lost to eviction, 0 lost to drops, 0 died; ledger evicted=1089
	//
	// offered rate 9000 events/s: published=3503 skipped=593 (sources down)
	//   topic market.btc   events=1171  delivery=0.7245 (model 0.9848, gap -0.2603)  worst=0.0727  evictions=185737
	//   topic market.eth   events=1170  delivery=0.7256 (model 0.9848, gap -0.2592)  worst=0.1727  evictions=186026
	//   topic alerts.sev1  events=1162  delivery=0.7278 (model 0.9848, gap -0.2570)  worst=0.0045  evictions=185024
	//   outcomes: 23 delivered, 3480 lost to eviction, 0 lost to drops, 0 died; ledger evicted=556787
	//
	// (below the knee the stream matches the single-rumor model;
	//  above it bounded buffers evict live rumors and reliability
	//  collapses — the loss mode only streaming analysis exposes)
}
