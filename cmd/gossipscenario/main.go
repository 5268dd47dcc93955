// Command gossipscenario runs declarative fault-injection campaigns over
// the gossip simulator and reports how delivery degrades against the
// paper's static-q model (Eq. 11). It drives the scenario engine through
// the unified gossipkit.Run API: sweeps are cancellable (Ctrl-C) and
// stream per-cell progress with -progress.
//
// Usage:
//
//	gossipscenario list
//	gossipscenario run -suite default -seed 42
//	gossipscenario run -scenario crash-wave -n 2000 -fanout 6 -format ascii
//	gossipscenario run -spec campaign.json -format csv
//	gossipscenario sweep -seeds 20 -workers 8 -format ascii
//	gossipscenario run -scenario crash-wave -curves csv    # sampled π(t)/in-flight series
//	gossipscenario grid -qs 0.6,0.8,1.0 -fanouts 3,5,8 -format csv
//	gossipscenario compare -scenarios crash-wave,burst-loss,partition-heal -seeds 5 -format ascii
//	gossipscenario run -scenario crash-wave -topology kout:8     # gossip over a k-out overlay
//	gossipscenario compare -topologies uniform,kout:8,wan:4 -seeds 5   # (protocol x scenario x topology) grid
//
// Every subcommand takes -pprof ADDR to serve net/http/pprof while it runs.
//
// Output on stdout is a pure function of the flags and seed (timing and
// throughput diagnostics go to stderr), so reports can be diffed and
// checked into regression suites.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"gossipkit"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch os.Args[1] {
	case "list":
		err = list()
	case "run":
		err = run(ctx, os.Args[2:], false)
	case "sweep":
		err = run(ctx, os.Args[2:], true)
	case "grid":
		err = grid(ctx, os.Args[2:])
	case "compare":
		err = compare(ctx, os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, gossipkit.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "gossipscenario: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "gossipscenario:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  gossipscenario list                     show the bundled scenario suite
  gossipscenario run   [flags]            run each selected scenario, per-run reports
  gossipscenario sweep [flags]            replicate scenarios x seeds on a worker pool
  gossipscenario grid  [flags]            sweep the (scenario x q x fanout) grid, CSV/JSON
  gossipscenario compare [flags]          run campaigns against every protocol baseline

flags (run/sweep):
  -suite default        run the whole bundled suite (default when nothing else selected)
  -scenario NAME        run one bundled scenario
  -spec FILE.json       run a scenario loaded from a JSON spec
  -n INT                group size (default 1000)
  -dist NAME            fanout distribution: poisson, fixed, geometric, uniform (default poisson)
  -fanout FLOAT         mean/exact fanout (default 5)
  -q FLOAT              static nonfailed ratio composed with the campaign (default 1)
  -views INT            SCAMP partial-view extra copies; 0 = full view (default 2).
                        Every run rebuilds its views: 5 ms at -n 1000, 0.12 s at
                        -n 10000, 8-10 s at -n 100000 (at 2 copies)
  -seed UINT            base random seed (default 42)
  -seeds INT            replications per scenario (default 1 for run, 10 for sweep)
  -workers INT          worker pool size; 0 = GOMAXPROCS (sweep/grid)
  -format FMT           json, csv, or ascii (default json; grid: csv or json)
  -progress             stream per-cell progress to stderr
  -pprof ADDR           serve net/http/pprof on ADDR while running (all subcommands)
  -curves FMT           also emit merged per-scenario telemetry curves; FMT: csv (run/sweep)
  -topology SPEC        gossip overlay: uniform, kout[:K], ba[:K], wan:ZONES[:K] (run/sweep)

flags (grid only):
  -qs LIST              comma-separated nonfailed ratios, e.g. 0.6,0.8,1.0
  -fanouts LIST         comma-separated mean fanouts, e.g. 3,5,8 (uses -dist)

flags (compare only):
  -scenarios LIST       comma-separated bundled scenario names (default: whole suite)
  -protocols LIST       comma-separated rows: paper, pbcast, lpbcast, anti-entropy,
                        rdg, lrg, flooding (default: all seven)
  -rounds INT           round budget for the round-based baselines (default 10)
  -topologies LIST      comma-separated overlays; non-empty grows the grid a
                        topology axis, e.g. uniform,kout:8,wan:4
`)
}

func list() error {
	for _, s := range gossipkit.DefaultScenarioSuite() {
		fmt.Printf("%-18s %2d steps  %s\n", s.Name, len(s.Steps), s.Description)
	}
	return nil
}

// pprofFlag registers -pprof on a subcommand's FlagSet; the returned
// starter runs after parsing and brings the endpoint up when set.
func pprofFlag(fs *flag.FlagSet) func() error {
	addr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return func() error {
		if *addr == "" {
			return nil
		}
		bound, err := gossipkit.StartPprof(*addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gossipscenario: pprof on http://%s/debug/pprof/\n", bound)
		return nil
	}
}

// observer returns a per-cell progress Observer writing to stderr, or nil
// when progress streaming is off; cells sizes the "i/total" prefix.
func observer(enabled bool, cells int) gossipkit.Observer {
	if !enabled {
		return nil
	}
	return func(r gossipkit.Report) {
		det := r.Detail.(gossipkit.ScenarioReport)
		fmt.Fprintf(os.Stderr, "  cell %d/%d %-18s seed=%d reliability=%.4f spread=%.1fms\n",
			r.Run+1, cells, det.Scenario, det.Seed, r.Reliability, r.SpreadMs)
	}
}

func run(ctx context.Context, args []string, sweep bool) error {
	fs := flag.NewFlagSet("gossipscenario", flag.ExitOnError)
	var (
		suite    = fs.String("suite", "", "run the bundled suite (\"default\")")
		name     = fs.String("scenario", "", "run one bundled scenario by name")
		spec     = fs.String("spec", "", "run a scenario from a JSON spec file")
		n        = fs.Int("n", 1000, "group size")
		distKind = fs.String("dist", "poisson", "fanout distribution")
		fanout   = fs.Float64("fanout", 5, "mean fanout")
		q        = fs.Float64("q", 1, "static nonfailed ratio")
		views    = fs.Int("views", 2, "SCAMP partial-view extra copies (0 = full view); each run rebuilds them: 0.12 s at -n 10000, 8-10 s at -n 100000")
		seed     = fs.Uint64("seed", 42, "base random seed")
		seeds    = fs.Int("seeds", 0, "replications per scenario")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		format   = fs.String("format", "json", "output format: json, csv, ascii")
		progress = fs.Bool("progress", false, "stream per-cell progress to stderr")
		curves   = fs.String("curves", "", "also emit merged per-scenario telemetry curves: csv")
		shards   = fs.Int("shards", 1, "shard kernels per execution (conservative-PDES; 1 = one shard (default), 0 = one per core)")
		topoFlag = fs.String("topology", "uniform", "gossip overlay: uniform, kout[:K], ba[:K], wan:ZONES[:K]")
	)
	pprof := pprofFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := pprof(); err != nil {
		return err
	}
	if err := checkFormat(*format, "json", "csv", "ascii"); err != nil {
		return err
	}
	if *curves != "" && *curves != "csv" {
		return fmt.Errorf("unknown -curves format %q (only csv)", *curves)
	}
	if *seeds == 0 {
		if sweep {
			*seeds = 10
		} else {
			*seeds = 1
		}
	}

	scenarios, err := selectScenarios(*suite, *name, *spec)
	if err != nil {
		return err
	}
	d, err := makeDist(*distKind, *fanout)
	if err != nil {
		return err
	}
	topo, err := gossipkit.ParseTopology(*topoFlag)
	if err != nil {
		return err
	}
	if *shards <= 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	campaign := gossipkit.Campaign{
		Scenarios: scenarios,
		Config: gossipkit.ScenarioRunConfig{
			Params:            gossipkit.Params{N: *n, Fanout: d, AliveRatio: *q},
			PartialViewCopies: *views,
			Shards:            *shards,
			Topology:          topo,
		},
	}
	cells := len(scenarios) * *seeds

	opts := []gossipkit.Option{
		gossipkit.WithSeed(*seed), gossipkit.WithWorkers(*workers),
		gossipkit.WithObserver(observer(*progress, cells)),
	}
	if *curves != "" {
		opts = append(opts, gossipkit.WithProbe(gossipkit.ProbeOptions{}))
	}
	start := time.Now()
	out, err := gossipkit.RunMany(ctx, campaign, *seeds, opts...)
	if err != nil {
		return err
	}
	result := out.Aggregate.(*gossipkit.ScenarioSweepResult)
	elapsed := time.Since(start)
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "ran %d scenarios x %d seeds = %d executions in %v (%.1f runs/sec, %d workers)\n",
		len(scenarios), *seeds, cells, elapsed.Round(time.Millisecond),
		float64(cells)/elapsed.Seconds(), w)

	switch *format {
	case "json":
		enc, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(enc))
	case "csv":
		fmt.Print(result.CSV())
	case "ascii":
		fmt.Print(result.Table())
	}
	if *curves == "csv" {
		csv, err := result.CurvesCSV()
		if err != nil {
			return err
		}
		fmt.Print(csv)
	}
	return nil
}

// grid sweeps the (scenario × q × fanout) plane and emits the full grid.
func grid(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gossipscenario grid", flag.ExitOnError)
	var (
		suite    = fs.String("suite", "", "run the bundled suite (\"default\")")
		name     = fs.String("scenario", "", "run one bundled scenario by name")
		spec     = fs.String("spec", "", "run a scenario from a JSON spec file")
		n        = fs.Int("n", 1000, "group size")
		distKind = fs.String("dist", "poisson", "fanout distribution")
		qsFlag   = fs.String("qs", "0.6,0.8,1.0", "comma-separated nonfailed ratios")
		fanFlag  = fs.String("fanouts", "3,5,8", "comma-separated mean fanouts")
		views    = fs.Int("views", 2, "SCAMP partial-view extra copies (0 = full view); each run rebuilds them: 0.12 s at -n 10000, 8-10 s at -n 100000")
		seed     = fs.Uint64("seed", 42, "base random seed")
		seeds    = fs.Int("seeds", 5, "replications per grid cell")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		format   = fs.String("format", "csv", "output format: csv or json")
		progress = fs.Bool("progress", false, "stream per-cell progress to stderr")
	)
	pprof := pprofFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := pprof(); err != nil {
		return err
	}
	if err := checkFormat(*format, "csv", "json"); err != nil {
		return err
	}
	scenarios, err := selectScenarios(*suite, *name, *spec)
	if err != nil {
		return err
	}
	qs, err := parseFloats("-qs", *qsFlag)
	if err != nil {
		return err
	}
	fans, err := parseFloats("-fanouts", *fanFlag)
	if err != nil {
		return err
	}
	var fanouts []gossipkit.Distribution
	for _, f := range fans {
		d, err := makeDist(*distKind, f)
		if err != nil {
			return err
		}
		fanouts = append(fanouts, d)
	}
	d0, err := makeDist(*distKind, 5)
	if err != nil {
		return err
	}
	campaign := gossipkit.Campaign{
		Scenarios: scenarios,
		Config: gossipkit.ScenarioRunConfig{
			Params:            gossipkit.Params{N: *n, Fanout: d0, AliveRatio: 1},
			PartialViewCopies: *views,
		},
		Qs:      qs,
		Fanouts: fanouts,
	}
	cells := len(scenarios) * len(qs) * len(fanouts) * *seeds

	start := time.Now()
	out, err := gossipkit.RunMany(ctx, campaign, *seeds,
		gossipkit.WithSeed(*seed), gossipkit.WithWorkers(*workers),
		gossipkit.WithObserver(observer(*progress, cells)))
	if err != nil {
		return err
	}
	result := out.Aggregate.(*gossipkit.ScenarioGridResult)
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "ran %d scenarios x %d qs x %d fanouts x %d seeds = %d executions in %v (%.1f runs/sec)\n",
		len(scenarios), len(qs), len(fanouts), *seeds, cells,
		elapsed.Round(time.Millisecond), float64(cells)/elapsed.Seconds())

	switch *format {
	case "csv":
		fmt.Print(result.CSV())
	case "json":
		enc, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(enc))
	}
	return nil
}

// compare runs the (protocol × scenario) comparison grid: every selected
// campaign against every selected protocol row on the shared DES substrate,
// with byte-identical campaign randomness per (scenario, seed) cell
// whatever the protocol.
func compare(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gossipscenario compare", flag.ExitOnError)
	var (
		names     = fs.String("scenarios", "", "comma-separated bundled scenario names (default: whole suite)")
		protoList = fs.String("protocols", "", "comma-separated protocol rows (default: all seven)")
		n         = fs.Int("n", 1000, "group size")
		distKind  = fs.String("dist", "poisson", "fanout distribution (paper row)")
		fanout    = fs.Float64("fanout", 5, "mean fanout")
		q         = fs.Float64("q", 1, "static nonfailed ratio")
		rounds    = fs.Int("rounds", 10, "round budget for round-based baselines")
		views     = fs.Int("views", 2, "SCAMP partial-view extra copies (0 = full view); each run rebuilds them: 0.12 s at -n 10000, 8-10 s at -n 100000")
		seed      = fs.Uint64("seed", 42, "base random seed")
		seeds     = fs.Int("seeds", 5, "replications per (protocol, scenario) cell")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		format    = fs.String("format", "csv", "output format: csv, json, ascii")
		progress  = fs.Bool("progress", false, "stream per-cell progress to stderr")
		topoList  = fs.String("topologies", "", "comma-separated overlay topologies; non-empty grows a third grid axis (e.g. uniform,kout:8,wan:4)")
	)
	pprof := pprofFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := pprof(); err != nil {
		return err
	}
	if err := checkFormat(*format, "csv", "json", "ascii"); err != nil {
		return err
	}
	scenarios, err := selectScenarioList(*names)
	if err != nil {
		return err
	}
	d, err := makeDist(*distKind, *fanout)
	if err != nil {
		return err
	}
	spec := gossipkit.Compare{
		Scenarios: scenarios,
		Config: gossipkit.ScenarioRunConfig{
			Params:            gossipkit.Params{N: *n, Fanout: d, AliveRatio: *q},
			PartialViewCopies: *views,
		},
	}
	if *topoList != "" {
		for _, t := range strings.Split(*topoList, ",") {
			topo, err := gossipkit.ParseTopology(strings.TrimSpace(t))
			if err != nil {
				return err
			}
			spec.Topologies = append(spec.Topologies, topo)
		}
	}
	rows := strings.Split("paper,pbcast,lpbcast,anti-entropy,rdg,lrg,flooding", ",")
	if *protoList != "" {
		rows = strings.Split(*protoList, ",")
	}
	// The baselines take an integer per-round fanout where the paper row
	// draws from a distribution of that mean; a fractional -fanout cannot
	// be honored exactly on the baseline rows, so round it and say so
	// rather than silently comparing protocols at different fanouts.
	baseFanout := int(math.Round(*fanout))
	if baseFanout < 1 {
		return fmt.Errorf("-fanout %g: baseline protocol rows need a fanout >= 1", *fanout)
	}
	if float64(baseFanout) != *fanout {
		fmt.Fprintf(os.Stderr, "note: baseline rows use integer fanout %d (paper row keeps mean %g)\n",
			baseFanout, *fanout)
	}
	for _, row := range rows {
		p, err := baselineSpec(strings.TrimSpace(row), *n, baseFanout, *rounds, *q, *views)
		if err != nil {
			return err
		}
		if p == nil {
			spec.Paper = true
			continue
		}
		spec.Protocols = append(spec.Protocols, p)
	}
	topos := max(len(spec.Topologies), 1)
	cells := topos * (len(spec.Protocols) + b2i(spec.Paper)) * len(scenarios) * *seeds

	start := time.Now()
	out, err := gossipkit.RunMany(ctx, spec, *seeds,
		gossipkit.WithSeed(*seed), gossipkit.WithWorkers(*workers),
		gossipkit.WithObserver(observer(*progress, cells)))
	if err != nil {
		return err
	}
	result := out.Aggregate.(*gossipkit.ScenarioCompareResult)
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "ran %d protocols x %d scenarios x %d topologies x %d seeds = %d executions in %v (%.1f runs/sec)\n",
		len(result.Protocols), len(scenarios), topos, *seeds, cells,
		elapsed.Round(time.Millisecond), float64(cells)/elapsed.Seconds())

	switch *format {
	case "csv":
		fmt.Print(result.CSV())
	case "json":
		enc, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(enc))
	case "ascii":
		fmt.Print(result.Table())
	}
	return nil
}

// checkFormat rejects a -format outside want before anything runs: the
// output switch sits after the whole sweep.
func checkFormat(format string, want ...string) error {
	if slices.Contains(want, format) {
		return nil
	}
	return fmt.Errorf("unknown format %q (want %s)", format, strings.Join(want, ", "))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// baselineSpec builds one comparison row's protocol parameters from the
// shared CLI knobs (fanout already validated >= 1); a nil spec with nil
// error means the paper row.
func baselineSpec(row string, n, fanout, rounds int, q float64, views int) (gossipkit.ProtocolSpec, error) {
	switch row {
	case "paper":
		return nil, nil
	case "pbcast":
		return gossipkit.PbcastParams{N: n, Fanout: fanout, Rounds: rounds, AliveRatio: q}, nil
	case "lpbcast":
		return gossipkit.LpbcastParams{N: n, Fanout: fanout, Rounds: rounds,
			BufferSize: 8, Events: 3, AliveRatio: q, ViewCopies: views}, nil
	case "anti-entropy":
		return gossipkit.AntiEntropyParams{N: n, Rounds: rounds, Mode: gossipkit.PushPull, AliveRatio: q}, nil
	case "rdg":
		return gossipkit.RDGParams{N: n, Fanout: fanout, PushRounds: rounds,
			RecoveryRounds: (rounds + 1) / 2, AliveRatio: q, ViewCopies: views, PayloadProb: 0.8}, nil
	case "lrg":
		return gossipkit.LRGParams{N: n, Degree: fanout + 2, GossipProb: 0.8,
			RepairRounds: (rounds + 1) / 2, AliveRatio: q}, nil
	case "flooding":
		return gossipkit.FloodingParams{N: n, AliveRatio: q}, nil
	default:
		return nil, fmt.Errorf("unknown protocol %q (want paper, pbcast, lpbcast, anti-entropy, rdg, lrg, or flooding)", row)
	}
}

// selectScenarioList resolves a comma-separated list of bundled scenario
// names; empty means the whole bundled suite.
func selectScenarioList(names string) ([]*gossipkit.Scenario, error) {
	if names == "" {
		return gossipkit.DefaultScenarioSuite(), nil
	}
	var out []*gossipkit.Scenario
	for _, name := range strings.Split(names, ",") {
		s, err := bundledScenario(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// bundledScenario resolves one bundled scenario name, failing with the
// list of known names.
func bundledScenario(name string) (*gossipkit.Scenario, error) {
	s, ok := gossipkit.ScenarioByName(name)
	if !ok {
		var known []string
		for _, b := range gossipkit.DefaultScenarioSuite() {
			known = append(known, b.Name)
		}
		return nil, fmt.Errorf("unknown scenario %q (bundled: %s)", name, strings.Join(known, ", "))
	}
	return s, nil
}

// parseFloats parses a comma-separated list of floats, rejecting any
// malformed entry outright.
func parseFloats(flagName, list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func selectScenarios(suite, name, spec string) ([]*gossipkit.Scenario, error) {
	selected := 0
	for _, s := range []string{suite, name, spec} {
		if s != "" {
			selected++
		}
	}
	if selected > 1 {
		return nil, fmt.Errorf("choose one of -suite, -scenario, -spec")
	}
	switch {
	case name != "":
		s, err := bundledScenario(name)
		if err != nil {
			return nil, err
		}
		return []*gossipkit.Scenario{s}, nil
	case spec != "":
		data, err := os.ReadFile(spec)
		if err != nil {
			return nil, err
		}
		s, err := gossipkit.ParseScenario(data)
		if err != nil {
			return nil, err
		}
		return []*gossipkit.Scenario{s}, nil
	case suite == "" || suite == "default":
		return gossipkit.DefaultScenarioSuite(), nil
	default:
		return nil, fmt.Errorf("unknown suite %q (only \"default\" is bundled)", suite)
	}
}

func makeDist(kind string, fanout float64) (gossipkit.Distribution, error) {
	return gossipkit.ParseFanout(kind, fanout)
}
