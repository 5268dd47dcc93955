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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"gossipkit"
	"gossipkit/internal/runpool"
)

func main() {
	var (
		n        = flag.Int("n", 1000, "group size")
		distKin  = flag.String("dist", "poisson", "fanout distribution: poisson, fixed, geometric, uniform")
		fanout   = flag.Float64("fanout", 4.0, "mean fanout (poisson/geometric) or exact fanout (fixed) or hi bound (uniform, lo=1)")
		q        = flag.Float64("q", 0.9, "nonfailed member ratio")
		runs     = flag.Int("runs", 20, "Monte-Carlo executions")
		seed     = flag.Uint64("seed", 42, "random seed")
		latency  = flag.Duration("latency", 0, "run one execution on the simulated network with this constant latency")
		loss     = flag.Float64("loss", 0, "message loss probability for the network execution")
		progress = flag.Bool("progress", false, "stream per-run progress to stderr")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		metrics  = flag.Bool("metrics", false, "probe the network execution and print its virtual-time curve CSV")
		trace    = flag.String("trace", "", "write a Chrome trace of the network execution to this file")
		shards   = flag.Int("shards", 1, "shard kernels for the network execution (conservative-PDES; 1 = one shard (default), 0 = one per core)")
		topoFlag = flag.String("topology", "uniform", "gossip overlay: uniform, kout[:K], ba[:K], wan:ZONES[:K]")
	)
	flag.Parse()
	if flag.NArg() > 0 { // flag.Parse stops at it, dropping every later flag
		fmt.Fprintf(os.Stderr, "gossipsim: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	topo, err := gossipkit.ParseTopology(*topoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
	if *pprof != "" {
		addr, err := gossipkit.StartPprof(*pprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gossipsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gossipsim: pprof on http://%s/debug/pprof/\n", addr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *n, *distKin, *fanout, *q, *runs, *seed, *latency, *loss, *progress, *metrics, *trace, *shards, topo); err != nil {
		if errors.Is(err, gossipkit.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "gossipsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, n int, distKind string, fanout, q float64, runs int, seed uint64, latency time.Duration, loss float64, progress, metrics bool, trace string, shards int, topo gossipkit.Topology) error {
	d, err := gossipkit.ParseFanout(distKind, fanout)
	if err != nil {
		return err
	}
	p := gossipkit.Params{N: n, Fanout: d, AliveRatio: q}
	var observe gossipkit.Observer
	if progress {
		observe = func(r gossipkit.Report) {
			fmt.Fprintf(os.Stderr, "  [%s] run %d/%d reliability %.4f\n", r.Engine, r.Run+1, runs, r.Reliability)
		}
	}

	steps := []func(ctx context.Context) error{
		func(ctx context.Context) error {
			an, err := gossipkit.Run(ctx, gossipkit.Analytic{Params: p})
			if err != nil {
				return err
			}
			pred := an.Aggregate.(gossipkit.Prediction)
			fmt.Printf("Gossip(n=%d, P=%s, q=%.3f)\n", n, d.Name(), q)
			if !topo.IsUniform() {
				fmt.Printf("  overlay topology          : %s (giant component below is the topology-corrected prediction)\n", topo)
			}
			fmt.Printf("  critical ratio q_c        : %.4f (q %s q_c)\n",
				pred.CriticalRatio, map[bool]string{true: ">", false: "<="}[pred.Supercritical])
			fmt.Printf("  model reliability R(q,P)  : %.4f\n", pred.Reliability)
			return nil
		},
		func(ctx context.Context) error {
			giantOut, err := gossipkit.RunMany(ctx, gossipkit.MonteCarlo{Params: p, Metric: gossipkit.GiantComponent},
				runs, gossipkit.WithSeed(seed), gossipkit.WithObserver(observe), gossipkit.WithTopology(topo))
			if err != nil {
				return err
			}
			giant := giantOut.Aggregate.(gossipkit.ComponentEstimate)
			fmt.Printf("  giant component (sim)     : %.4f ± %.4f  [%d runs, paper's metric]\n",
				giant.Mean, giant.CI95, giant.Runs)
			return nil
		},
		func(ctx context.Context) error {
			reachOut, err := gossipkit.RunMany(ctx, gossipkit.MonteCarlo{Params: p, Metric: gossipkit.SourceReach},
				runs, gossipkit.WithSeed(seed+1), gossipkit.WithObserver(observe), gossipkit.WithTopology(topo))
			if err != nil {
				return err
			}
			est := reachOut.Aggregate.(gossipkit.Estimate)
			fmt.Printf("  directed reach (sim)      : %.4f ± %.4f  [one multicast's delivery]\n", est.Mean, est.CI95)
			fmt.Printf("  messages/run              : %.0f   rounds/run: %.1f\n", est.MeanMessages, est.MeanRounds)
			if tmin, err := gossipkit.ExecutionsForSuccess(p, 0.999); err == nil {
				fmt.Printf("  executions for 99.9%% group success (Eq. 6): %d\n", tmin)
			}
			return nil
		},
	}
	if latency != 0 || loss != 0 || metrics || trace != "" || shards != 1 || !topo.IsUniform() {
		cfg := gossipkit.NetConfig{}
		if latency != 0 { // negative included: the engine rejects it
			cfg.Latency = gossipkit.ConstantLatency(latency)
		} else if topo.Kind == gossipkit.TopologyWAN {
			cfg.Latency = gossipkit.WANLatency(n, topo.Zones, time.Millisecond, 10*time.Millisecond)
		}
		if loss != 0 { // out-of-range and NaN included: the engine rejects them
			cfg.Loss = gossipkit.BernoulliLoss(loss)
		}
		// The probe observes without touching the run's stream.
		opts := []gossipkit.Option{gossipkit.WithSeed(seed + 2), gossipkit.WithTopology(topo)}
		if shards != 1 {
			opts = append(opts, gossipkit.WithShards(shards))
			if progress {
				// One long sharded execution is invisible to the per-run
				// observer until it finishes; stream barrier progress
				// (events fired, virtual time) instead.
				ep := runpool.NewEventProgress(int64(n)*int64(fanout+1), 0, runpool.EventWriter(os.Stderr))
				opts = append(opts, gossipkit.WithShardProgress(func(events uint64, now time.Duration) {
					ep.ObserveEvents(events, now)
				}))
			}
		}
		if metrics || trace != "" {
			po := gossipkit.ProbeOptions{}
			if trace != "" {
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
			fmt.Printf("  network execution         : reliability %.4f, spread time %v, sent %d, lost %d\n",
				nres.Reliability, nres.SpreadTime, nres.Net.Sent, nres.Net.DroppedLoss)
			if metrics {
				if err := out.Metrics.WriteCurveCSV(os.Stdout, "network", true); err != nil {
					return err
				}
			}
			if trace != "" {
				f, err := os.Create(trace)
				if err != nil {
					return err
				}
				m := out.Reports[0].Metrics
				if err := gossipkit.WriteChromeTrace(f, m.Trace); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				if m.TraceDropped > 0 {
					fmt.Fprintf(os.Stderr, "gossipsim: trace ring dropped %d early events (capacity %d)\n", m.TraceDropped, 1<<16)
				}
			}
			return nil
		})
	}

	// Every flag is checked before the first line of output: on a canceled
	// context each step's facade call validates its spec and stops there.
	dry, cancel := context.WithCancel(ctx)
	cancel()
	for _, step := range steps {
		if err := step(dry); err != nil && !errors.Is(err, gossipkit.ErrCanceled) {
			return err
		}
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return err
		}
	}
	return nil
}
