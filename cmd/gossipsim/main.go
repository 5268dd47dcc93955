// Command gossipsim runs the paper's general gossiping algorithm for one
// parameter set and reports measured vs predicted reliability, entirely on
// the unified gossipkit.Run engine API.
//
// Usage:
//
//	gossipsim -n 1000 -fanout 4.0 -q 0.9 -runs 20 -seed 42
//	gossipsim -n 2000 -dist fixed -fanout 4 -q 0.8
//	gossipsim -n 1000 -fanout 4.0 -q 0.9 -latency 5ms -loss 0.05
//	gossipsim -n 5000 -runs 200 -progress    # per-run progress on stderr
//	gossipsim -latency 5ms -metrics          # π(t)/in-flight curve CSV on stdout
//	gossipsim -latency 5ms -trace out.json   # Chrome trace of the network run
//	gossipsim -pprof localhost:6060 ...      # live net/http/pprof endpoint
//	gossipsim -n 10000000 -latency 5ms -shards 0 -progress   # sharded kernel, one shard per core
//	gossipsim -n 10000 -topology kout:8          # gossip over a k-out overlay
//	gossipsim -n 10000 -topology wan:4           # 4 WAN zones + zone-pair latency matrix
//
// Interrupt (Ctrl-C) cancels in-flight sweeps cleanly via context.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"gossipkit"
	"gossipkit/internal/cli"
	"gossipkit/internal/runpool"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt) // the process ends with run
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// options is gossipsim's command line.
type options struct {
	n, runs, shards       int
	distKind, trace, topo string
	fanout, q, loss       float64
	seed                  uint64
	latency               time.Duration
	progress, metrics     bool
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := cli.NewFlagSet("gossipsim", stderr)
	fs.IntVar(&o.n, "n", 1000, "group size")
	fs.StringVar(&o.distKind, "dist", "poisson", "fanout distribution: poisson, fixed, geometric, uniform")
	fs.Float64Var(&o.fanout, "fanout", 4.0, "mean fanout (poisson/geometric) or exact fanout (fixed) or hi bound (uniform, lo=1)")
	fs.Float64Var(&o.q, "q", 0.9, "nonfailed member ratio")
	fs.IntVar(&o.runs, "runs", 20, "Monte-Carlo executions")
	fs.Uint64Var(&o.seed, "seed", 42, "random seed")
	fs.DurationVar(&o.latency, "latency", 0, "run one execution on the simulated network with this constant latency")
	fs.Float64Var(&o.loss, "loss", 0, "message loss probability for the network execution")
	fs.BoolVar(&o.progress, "progress", false, "stream per-run progress to stderr")
	fs.BoolVar(&o.metrics, "metrics", false, "probe the network execution and print its virtual-time curve CSV")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace of the network execution to this file")
	fs.IntVar(&o.shards, "shards", 1, "shard kernels for the network execution (conservative-PDES; 1 = one shard (default), 0 = one per core: GOMAXPROCS; every count gives the same result, draws are keyed by member)")
	fs.StringVar(&o.topo, "topology", "uniform", "gossip overlay: uniform, kout[:K], ba[:K], wan:ZONES[:K]")
	return cli.Run(fs, args, func() error { return simulate(ctx, o, stdout, stderr) })
}

func simulate(ctx context.Context, o options, stdout, stderr io.Writer) error {
	topo, err := gossipkit.ParseTopology(o.topo)
	if err != nil {
		return err
	}
	d, err := gossipkit.ParseFanout(o.distKind, o.fanout)
	if err != nil {
		return err
	}
	p := gossipkit.Params{N: o.n, Fanout: d, AliveRatio: o.q}
	var observe gossipkit.Observer
	if o.progress {
		observe = func(r gossipkit.Report) {
			fmt.Fprintf(stderr, "  [%s] run %d/%d reliability %.4f\n", r.Engine, r.Run+1, o.runs, r.Reliability)
		}
	}

	var traceFile *os.File // created once every flag has passed, before any output
	steps := []func(ctx context.Context) error{
		func(ctx context.Context) error {
			an, err := gossipkit.Run(ctx, gossipkit.Analytic{Params: p})
			if err != nil {
				return err
			}
			pred := an.Aggregate.(gossipkit.Prediction)
			fmt.Fprintf(stdout, "Gossip(n=%d, P=%s, q=%.3f)\n", o.n, d.Name(), o.q)
			if !topo.IsUniform() {
				fmt.Fprintf(stdout, "  overlay topology          : %s (giant component below is the topology-corrected prediction)\n", topo)
			}
			fmt.Fprintf(stdout, "  critical ratio q_c        : %.4f (q %s q_c)\n",
				pred.CriticalRatio, map[bool]string{true: ">", false: "<="}[pred.Supercritical])
			fmt.Fprintf(stdout, "  model reliability R(q,P)  : %.4f\n", pred.Reliability)
			return nil
		},
		func(ctx context.Context) error {
			giantOut, err := gossipkit.RunMany(ctx, gossipkit.MonteCarlo{Params: p, Metric: gossipkit.GiantComponent},
				o.runs, gossipkit.WithSeed(o.seed), gossipkit.WithObserver(observe), gossipkit.WithTopology(topo))
			if err != nil {
				return err
			}
			giant := giantOut.Aggregate.(gossipkit.ComponentEstimate)
			fmt.Fprintf(stdout, "  giant component (sim)     : %.4f ± %.4f  [%d runs, paper's metric]\n",
				giant.Mean, giant.CI95, giant.Runs)
			return nil
		},
		func(ctx context.Context) error {
			reachOut, err := gossipkit.RunMany(ctx, gossipkit.MonteCarlo{Params: p, Metric: gossipkit.SourceReach},
				o.runs, gossipkit.WithSeed(o.seed+1), gossipkit.WithObserver(observe), gossipkit.WithTopology(topo))
			if err != nil {
				return err
			}
			est := reachOut.Aggregate.(gossipkit.Estimate)
			fmt.Fprintf(stdout, "  directed reach (sim)      : %.4f ± %.4f  [one multicast's delivery]\n", est.Mean, est.CI95)
			fmt.Fprintf(stdout, "  messages/run              : %.0f   rounds/run: %.1f\n", est.MeanMessages, est.MeanRounds)
			if tmin, err := gossipkit.ExecutionsForSuccess(p, 0.999); err == nil {
				fmt.Fprintf(stdout, "  executions for 99.9%% group success (Eq. 6): %d\n", tmin)
			}
			return nil
		},
	}
	if o.latency != 0 || o.loss != 0 || o.metrics || o.trace != "" || o.shards != 1 || !topo.IsUniform() {
		cfg := gossipkit.NetConfig{}
		if o.latency != 0 { // negative included: the engine rejects it
			cfg.Latency = gossipkit.ConstantLatency(o.latency)
		} else if topo.Kind == gossipkit.TopologyWAN {
			cfg.Latency = gossipkit.WANLatency(o.n, topo.Zones, time.Millisecond, 10*time.Millisecond)
		}
		if o.loss != 0 { // out-of-range and NaN included: the engine rejects them
			cfg.Loss = gossipkit.BernoulliLoss(o.loss)
		}
		// The probe observes without touching the run's stream.
		opts := []gossipkit.Option{gossipkit.WithSeed(o.seed + 2), gossipkit.WithTopology(topo)}
		if o.shards != 1 {
			opts = append(opts, gossipkit.WithShards(o.shards))
			if o.progress {
				// One long sharded execution is invisible to the per-run
				// observer until it finishes; stream barrier progress
				// (events fired, virtual time) instead.
				ep := runpool.NewEventProgress(int64(o.n)*int64(o.fanout+1), 0, runpool.EventWriter(stderr))
				opts = append(opts, gossipkit.WithShardProgress(func(events uint64, now time.Duration) {
					ep.ObserveEvents(events, now)
				}))
			}
		}
		if o.metrics || o.trace != "" {
			po := gossipkit.ProbeOptions{}
			if o.trace != "" {
				po.TraceCapacity = 1 << 16
			}
			opts = append(opts, gossipkit.WithProbe(po))
		}
		steps = append(steps, func(ctx context.Context) error {
			out, err := gossipkit.Run(ctx, gossipkit.Network{Params: p, Net: cfg}, opts...)
			if err != nil {
				return err
			}
			nres := out.Reports[0].Detail.(gossipkit.NetResult)
			fmt.Fprintf(stdout, "  network execution         : reliability %.4f, spread time %v, sent %d, lost %d\n",
				nres.Reliability, nres.SpreadTime, nres.Net.Sent, nres.Net.DroppedLoss)
			if o.metrics {
				if err := out.Metrics.WriteCurveCSV(stdout, "network", true); err != nil {
					return err
				}
			}
			if traceFile != nil {
				m := out.Reports[0].Metrics
				if err := gossipkit.WriteChromeTrace(traceFile, m.Trace); err != nil {
					return err
				}
				if err := traceFile.Close(); err != nil {
					return err
				}
				if m.TraceDropped > 0 {
					fmt.Fprintf(stderr, "gossipsim: trace ring dropped %d early events (capacity %d)\n", m.TraceDropped, 1<<16)
				}
			}
			return nil
		})
	}

	// Every flag is checked before the first line of output: on a canceled
	// context each step's facade call validates its spec and stops there.
	// The trace file is opened before any step runs as well.
	dry, cancel := context.WithCancel(ctx)
	cancel()
	for _, step := range steps {
		if err := step(dry); err != nil && !errors.Is(err, gossipkit.ErrCanceled) {
			return err
		}
	}
	if o.trace != "" {
		if traceFile, err = os.Create(o.trace); err != nil {
			return err
		}
		defer traceFile.Close()
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return err
		}
	}
	return nil
}
