// Command gossipstream sweeps a streaming gossip workload across offered
// publish rates and emits the saturation knee curve as CSV: per-message
// reliability, delivery-latency percentiles, and eviction-loss
// attribution at each rate. Below the knee bounded buffers absorb the
// load and reliability holds; above it eviction losses take over.
//
// Usage:
//
//	gossipstream -n 256 -rates 100:3200:6 -runs 5 > knee.csv
//	gossipstream -n 256 -rate 800 -eviction lpbcast -discipline push
//	gossipstream -rates 200,400,800,1600 -buffer 8 -curves curves.csv
//	gossipstream -n 1024 -rate 2000 -shards 0      # sharded kernel, one shard per core
//	gossipstream -n 512 -rate 500 -topology kout:8 # stream over a k-out overlay
//	gossipstream -n 2000 -rate 1.25e7 -duration 160ms -max-messages 2500000 \
//	    -batch -summary                            # 10⁶ concurrent rumors
//
// Interrupt (Ctrl-C) cancels a sweep cleanly via context.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"gossipkit"
	"gossipkit/internal/cli"
)

const kneeHeader = "rate,runs,published,skipped,mean_reliability,reliability_stddev,min_reliability,full_frac,evicted,expired,dropped,messages_sent,p50_ms,p90_ms,p99_ms\n"

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt) // the process ends with run
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// options is gossipstream's command line: the stream's own fields bound
// straight into cfg, and the rest parsed or swept before each cell.
type options struct {
	cfg                                   gossipkit.StreamConfig
	rate, fanout, loss                    float64
	rates, distKind, eviction, discipline string
	topo, curves                          string
	runs, shards                          int
	seed                                  uint64
	latLo, latHi                          time.Duration
	progress                              bool
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := cli.NewFlagSet("gossipstream", stderr)
	fs.IntVar(&o.cfg.N, "n", 256, "group size")
	fs.Float64Var(&o.rate, "rate", 0, "single offered rate in msgs/s (or -rates, not both)")
	fs.StringVar(&o.rates, "rates", "", "rate sweep: comma list (100,200,400) or LO:HI:STEPS (geometric, STEPS <= 1000); each rate once")
	fs.DurationVar(&o.cfg.Duration, "duration", 500*time.Millisecond, "publish window")
	fs.StringVar(&o.distKind, "dist", "fixed", "fanout distribution: poisson, fixed, geometric, uniform")
	fs.Float64Var(&o.fanout, "fanout", 3, "mean fanout")
	fs.Float64Var(&o.cfg.AliveRatio, "q", 1, "nonfailed member ratio")
	fs.IntVar(&o.cfg.BufferCap, "buffer", 16, "per-member rumor buffer capacity")
	fs.StringVar(&o.eviction, "eviction", "fifo", "buffer eviction policy: fifo, random, age, lpbcast")
	fs.StringVar(&o.discipline, "discipline", "push", "propagation discipline: eager, push, pushpull, flood")
	fs.IntVar(&o.cfg.ActiveRounds, "active", 8, "active window in round ticks")
	fs.DurationVar(&o.cfg.RoundInterval, "interval", 0, "round interval (0 derives it from the latency bound)")
	fs.IntVar(&o.cfg.Sources, "sources", 0, "distinct publishers (0 = every member)")
	fs.IntVar(&o.runs, "runs", 3, "seeded replications per rate")
	fs.Uint64Var(&o.seed, "seed", 42, "random seed")
	fs.DurationVar(&o.latLo, "latency-lo", time.Millisecond, "uniform latency lower bound")
	fs.DurationVar(&o.latHi, "latency-hi", 5*time.Millisecond, "uniform latency upper bound")
	fs.Float64Var(&o.loss, "loss", 0, "message loss probability")
	fs.IntVar(&o.shards, "shards", 1, "shard kernels per execution (conservative-PDES; 1 = one shard (default), 0 = one per core: GOMAXPROCS, so results differ between hosts with different core counts, since stream draws come from per-shard streams; pass an explicit count to reproduce a run elsewhere)")
	fs.StringVar(&o.topo, "topology", "uniform", "gossip overlay: uniform, kout[:K], ba[:K], wan:ZONES[:K]")
	fs.BoolVar(&o.cfg.Batch, "batch", false, "batched wire digests: one event per round per peer (push/pushpull)")
	fs.BoolVar(&o.cfg.SummaryOnly, "summary", false, "summary-only accounting: skip the O(messages) per-message rows")
	fs.IntVar(&o.cfg.MaxMessages, "max-messages", 0, "cap on scheduled messages per run (0 = engine default)")
	fs.StringVar(&o.curves, "curves", "", "write merged streaming telemetry curves (occupancy, active, evictions) to this CSV file")
	fs.BoolVar(&o.progress, "progress", false, "stream per-run progress to stderr")
	return cli.Run(fs, args, func() error { return sweepRates(ctx, o, stdout, stderr) })
}

func sweepRates(ctx context.Context, o options, stdout, stderr io.Writer) error {
	d, err := gossipkit.ParseFanout(o.distKind, o.fanout)
	if err != nil {
		return err
	}
	ev, err := gossipkit.ParseEviction(o.eviction)
	if err != nil {
		return err
	}
	disc, err := gossipkit.ParseDiscipline(o.discipline)
	if err != nil {
		return err
	}
	topo, err := gossipkit.ParseTopology(o.topo)
	if err != nil {
		return err
	}
	sweep, err := parseRates(o.rate, o.rates)
	if err != nil {
		return err
	}

	net := gossipkit.NetConfig{Latency: gossipkit.UniformLatency(o.latLo, o.latHi)}
	if o.loss != 0 { // out-of-range and NaN included: the engine rejects them
		net.Loss = gossipkit.BernoulliLoss(o.loss)
	}

	cell := func(ctx context.Context, rate float64) (*gossipkit.Outcome, error) {
		cfg := o.cfg
		cfg.Rate, cfg.Fanout, cfg.Eviction, cfg.Discipline = rate, d, ev, disc
		opts := []gossipkit.Option{
			gossipkit.WithSeed(o.seed), gossipkit.WithTopology(topo),
			gossipkit.WithProbe(gossipkit.ProbeOptions{}),
		}
		if o.shards != 1 {
			opts = append(opts, gossipkit.WithShards(o.shards))
		}
		if o.progress {
			opts = append(opts, gossipkit.WithObserver(func(r gossipkit.Report) {
				fmt.Fprintf(stderr, "  rate %.0f run %d/%d reliability %.4f\n",
					rate, r.Run+1, o.runs, r.Reliability)
			}))
		}
		return gossipkit.RunMany(ctx, gossipkit.Stream{Config: cfg, Net: net}, o.runs, opts...)
	}
	// Every rate's cell is checked before the header is written: on a
	// canceled context the facade validates the spec and stops there.
	dry, cancel := context.WithCancel(ctx)
	cancel()
	for _, rate := range sweep {
		if _, err := cell(dry, rate); err != nil && !errors.Is(err, gossipkit.ErrCanceled) {
			return err
		}
	}

	var curvesFile *os.File
	if o.curves != "" {
		if curvesFile, err = os.Create(o.curves); err != nil {
			return err
		}
		defer curvesFile.Close()
	}

	fmt.Fprint(stdout, kneeHeader)
	for ri, rate := range sweep {
		out, err := cell(ctx, rate)
		if err != nil {
			return err
		}

		var published, skipped, full, minRel float64
		var evicted, expired, dropped, sent int64
		minRel = 1
		for _, rep := range out.Reports {
			res := rep.Detail.(gossipkit.StreamResult)
			published += float64(res.Published)
			skipped += float64(res.Skipped)
			full += float64(res.FullyDelivered)
			evicted += res.Ledger.Evicted
			expired += res.Ledger.Expired
			dropped += res.Ledger.Sends - res.Ledger.Receipts
			sent += res.MessagesSent
			if res.MinReliability < minRel {
				minRel = res.MinReliability
			}
		}
		runsF := float64(out.Runs)
		fullFrac := 0.0
		if published > 0 {
			fullFrac = full / published
		}
		lat := out.Stream.Latency
		fmt.Fprintf(stdout, "%g,%d,%.1f,%.1f,%.6f,%.6f,%.6f,%.4f,%.1f,%.1f,%.1f,%.0f,%.3f,%.3f,%.3f\n",
			rate, out.Runs, published/runsF, skipped/runsF,
			out.Reliability.Mean, out.Reliability.StdDev, minRel, fullFrac,
			float64(evicted)/runsF, float64(expired)/runsF, float64(dropped)/runsF,
			float64(sent)/runsF,
			ms(lat.Quantile(0.50)), ms(lat.Quantile(0.90)), ms(lat.Quantile(0.99)))

		if curvesFile != nil {
			label := fmt.Sprintf("rate=%g", rate)
			if err := gossipkit.WriteStreamCurveCSV(curvesFile, out.Stream, label, ri == 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRateSteps caps a LO:HI:STEPS ladder, which is built before any check
// of its rates.
const maxRateSteps = 1000

// parseRates resolves the sweep: a single -rate, or a comma list or a
// geometric LO:HI:STEPS ladder from -rates, never both. Every rate is
// positive and runs once.
func parseRates(single float64, spec string) ([]float64, error) {
	if single != 0 && spec != "" {
		return nil, fmt.Errorf("choose one of -rate, -rates")
	}
	if spec == "" {
		if single == 0 {
			return nil, fmt.Errorf("need -rate or -rates")
		}
		if single < 0 {
			return nil, fmt.Errorf("%w: -rate %g is not positive", gossipkit.ErrInvalidParams, single)
		}
		return []float64{single}, nil
	}
	var rates []float64
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("%w: rates spec %q: want LO:HI:STEPS", gossipkit.ErrInvalidParams, spec)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		steps, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || lo <= 0 || hi < lo || steps < 1 || steps > maxRateSteps {
			return nil, fmt.Errorf("%w: rates spec %q: want LO:HI:STEPS with 0 < LO <= HI, 1 <= STEPS <= %d",
				gossipkit.ErrInvalidParams, spec, maxRateSteps)
		}
		rates = []float64{lo}
		if steps > 1 {
			rates = make([]float64, steps)
			ratio := hi / lo
			for i := range rates {
				v := lo * math.Pow(ratio, float64(i)/float64(steps-1))
				rates[i] = math.Round(v*1000) / 1000 // drop float-ladder noise
			}
		}
	} else {
		for _, f := range strings.Split(spec, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("%w: rates spec %q: bad rate %q", gossipkit.ErrInvalidParams, spec, f)
			}
			rates = append(rates, v)
		}
	}
	for i, v := range rates {
		if slices.Contains(rates[:i], v) {
			return nil, fmt.Errorf("%w: rates spec %q runs rate %g twice", gossipkit.ErrInvalidParams, spec, v)
		}
	}
	return rates, nil
}
