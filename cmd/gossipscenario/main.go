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

// shared holds the flags every subcommand takes, registered with the
// subcommand's own defaults and help text, and the -format values it
// accepts (the first is the default).
type shared struct {
	fs                       *flag.FlagSet
	formats                  []string
	n, views, seeds, workers *int
	distKind, format         *string
	seed                     *uint64
	pprof                    *string
	progress                 *bool
}

func newShared(name string, seeds int, seedsHelp, distHelp, formatHelp string, formats ...string) *shared {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &shared{
		fs:       fs,
		formats:  formats,
		n:        fs.Int("n", 1000, "group size"),
		distKind: fs.String("dist", "poisson", distHelp),
		views:    fs.Int("views", 2, "SCAMP partial-view extra copies (0 = full view); each run rebuilds them: 0.12 s at -n 10000, 8-10 s at -n 100000"),
		seed:     fs.Uint64("seed", 42, "base random seed"),
		seeds:    fs.Int("seeds", seeds, seedsHelp),
		workers:  fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)"),
		format:   fs.String("format", formats[0], formatHelp),
		progress: fs.Bool("progress", false, "stream per-cell progress to stderr"),
		pprof:    fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)"),
	}
}

// parse parses args, brings up -pprof when set, and rejects an unknown
// -format before anything runs: the output switch sits after the sweep.
func (s *shared) parse(args []string) error {
	if err := s.fs.Parse(args); err != nil {
		return err
	}
	if *s.pprof != "" {
		bound, err := gossipkit.StartPprof(*s.pprof)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gossipscenario: pprof on http://%s/debug/pprof/\n", bound)
	}
	if !slices.Contains(s.formats, *s.format) {
		return fmt.Errorf("unknown format %q (want %s)", *s.format, strings.Join(s.formats, ", "))
	}
	return nil
}

// dim is one axis of a subcommand's grid: its length and its name on the
// stderr summary line.
type dim struct {
	n    int
	name string
}

// sweep replicates every cell of spec's grid (axes dims) for -seeds seeds,
// streams per-cell progress to stderr under -progress, prints the
// aggregate on stdout in -format and returns it.
func (s *shared) sweep(ctx context.Context, spec gossipkit.Engine, dims []dim, opts ...gossipkit.Option) (any, error) {
	dims = append(dims, dim{*s.seeds, "seeds"})
	cells, axes := 1, make([]string, len(dims))
	for i, d := range dims {
		cells *= d.n
		axes[i] = fmt.Sprintf("%d %s", d.n, d.name)
	}
	opts = append(opts, gossipkit.WithSeed(*s.seed), gossipkit.WithWorkers(*s.workers))
	if *s.progress {
		opts = append(opts, gossipkit.WithObserver(func(r gossipkit.Report) {
			det := r.Detail.(gossipkit.ScenarioReport)
			fmt.Fprintf(os.Stderr, "  cell %d/%d %-18s seed=%d reliability=%.4f spread=%.1fms\n",
				r.Run+1, cells, det.Scenario, det.Seed, r.Reliability, r.SpreadMs)
		}))
	}
	start := time.Now()
	out, err := gossipkit.RunMany(ctx, spec, *s.seeds, opts...)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	w := *s.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "ran %s = %d executions in %v (%.1f runs/sec, %d workers)\n",
		strings.Join(axes, " x "), cells, elapsed.Round(time.Millisecond),
		float64(cells)/elapsed.Seconds(), w)

	switch *s.format {
	case "json":
		enc, err := json.MarshalIndent(out.Aggregate, "", "  ")
		if err != nil {
			return nil, err
		}
		fmt.Println(string(enc))
	case "csv":
		fmt.Print(out.Aggregate.(interface{ CSV() string }).CSV())
	case "ascii":
		fmt.Print(out.Aggregate.(interface{ Table() string }).Table())
	}
	return out.Aggregate, nil
}

// config is the run configuration the common flags describe at mean
// fanout fanout and nonfailed ratio q.
func (s *shared) config(fanout, q float64) (gossipkit.ScenarioRunConfig, error) {
	d, err := gossipkit.ParseFanout(*s.distKind, fanout)
	return gossipkit.ScenarioRunConfig{
		Params:            gossipkit.Params{N: *s.n, Fanout: d, AliveRatio: q},
		PartialViewCopies: *s.views,
	}, err
}

// scenarioFlags registers -suite, -scenario and -spec (run, sweep, grid)
// and returns the resolver of the one campaign choice they make.
func scenarioFlags(fs *flag.FlagSet) func() ([]*gossipkit.Scenario, error) {
	suite := fs.String("suite", "", "run the bundled suite (\"default\")")
	name := fs.String("scenario", "", "run one bundled scenario by name")
	spec := fs.String("spec", "", "run a scenario from a JSON spec file")
	return func() ([]*gossipkit.Scenario, error) {
		if len(slices.DeleteFunc([]string{*suite, *name, *spec}, func(s string) bool { return s == "" })) > 1 {
			return nil, fmt.Errorf("choose one of -suite, -scenario, -spec")
		}
		switch {
		case *name != "":
			s, err := bundledScenario(*name)
			if err != nil {
				return nil, err
			}
			return []*gossipkit.Scenario{s}, nil
		case *spec != "":
			data, err := os.ReadFile(*spec)
			if err != nil {
				return nil, err
			}
			s, err := gossipkit.ParseScenario(data)
			if err != nil {
				return nil, err
			}
			return []*gossipkit.Scenario{s}, nil
		case *suite == "" || *suite == "default":
			return gossipkit.DefaultScenarioSuite(), nil
		default:
			return nil, fmt.Errorf("unknown suite %q (only \"default\" is bundled)", *suite)
		}
	}
}

func run(ctx context.Context, args []string, sweep bool) error {
	s := newShared("gossipscenario", 0, "replications per scenario", "fanout distribution",
		"output format: json, csv, ascii", "json", "csv", "ascii")
	var (
		scenarioList = scenarioFlags(s.fs)
		fanout       = s.fs.Float64("fanout", 5, "mean fanout")
		q            = s.fs.Float64("q", 1, "static nonfailed ratio")
		curves       = s.fs.String("curves", "", "also emit merged per-scenario telemetry curves: csv")
		shards       = s.fs.Int("shards", 1, "shard kernels per execution (conservative-PDES; 1 = one shard (default), 0 = one per core)")
		topoFlag     = s.fs.String("topology", "uniform", "gossip overlay: uniform, kout[:K], ba[:K], wan:ZONES[:K]")
	)
	if err := s.parse(args); err != nil {
		return err
	}
	if *curves != "" && *curves != "csv" {
		return fmt.Errorf("unknown -curves format %q (only csv)", *curves)
	}
	if *s.seeds == 0 {
		*s.seeds = 1
		if sweep {
			*s.seeds = 10
		}
	}
	scenarios, err := scenarioList()
	if err != nil {
		return err
	}
	cfg, err := s.config(*fanout, *q)
	if err != nil {
		return err
	}
	if cfg.Topology, err = gossipkit.ParseTopology(*topoFlag); err != nil {
		return err
	}
	if cfg.Shards = *shards; cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	campaign := gossipkit.Campaign{Scenarios: scenarios, Config: cfg}
	var opts []gossipkit.Option
	if *curves != "" {
		opts = append(opts, gossipkit.WithProbe(gossipkit.ProbeOptions{}))
	}
	result, err := s.sweep(ctx, campaign, []dim{{len(scenarios), "scenarios"}}, opts...)
	if err != nil || *curves == "" {
		return err
	}
	csv, err := result.(*gossipkit.ScenarioSweepResult).CurvesCSV()
	if err != nil {
		return err
	}
	fmt.Print(csv)
	return nil
}

// grid sweeps the (scenario × q × fanout) plane and emits the full grid.
func grid(ctx context.Context, args []string) error {
	s := newShared("gossipscenario grid", 5, "replications per grid cell", "fanout distribution",
		"output format: csv or json", "csv", "json")
	var (
		scenarioList = scenarioFlags(s.fs)
		qsFlag       = s.fs.String("qs", "0.6,0.8,1.0", "comma-separated nonfailed ratios")
		fanFlag      = s.fs.String("fanouts", "3,5,8", "comma-separated mean fanouts")
	)
	if err := s.parse(args); err != nil {
		return err
	}
	scenarios, err := scenarioList()
	if err != nil {
		return err
	}
	qs, err := parseList("-qs", *qsFlag, func(e string) (float64, error) { return parseFloat("-qs", e) })
	if err != nil {
		return err
	}
	fanouts, err := parseList("-fanouts", *fanFlag, func(e string) (gossipkit.Distribution, error) {
		f, err := parseFloat("-fanouts", e)
		if err != nil {
			return nil, err
		}
		return gossipkit.ParseFanout(*s.distKind, f)
	})
	if err != nil {
		return err
	}
	// Every cell overrides the base q and fanout; the base only validates.
	cfg, err := s.config(5, 1)
	if err != nil {
		return err
	}
	campaign := gossipkit.Campaign{Scenarios: scenarios, Config: cfg, Qs: qs, Fanouts: fanouts}
	_, err = s.sweep(ctx, campaign, []dim{{len(scenarios), "scenarios"}, {len(qs), "qs"}, {len(fanouts), "fanouts"}})
	return err
}

// compare runs the (protocol × scenario) comparison grid: every selected
// campaign against every selected protocol row on the shared DES substrate,
// with byte-identical campaign randomness per (scenario, seed) cell
// whatever the protocol.
func compare(ctx context.Context, args []string) error {
	s := newShared("gossipscenario compare", 5, "replications per (protocol, scenario) cell",
		"fanout distribution (paper row)", "output format: csv, json, ascii", "csv", "json", "ascii")
	var (
		names     = s.fs.String("scenarios", "", "comma-separated bundled scenario names (default: whole suite)")
		protoList = s.fs.String("protocols", "", "comma-separated protocol rows (default: all seven)")
		fanout    = s.fs.Float64("fanout", 5, "mean fanout")
		q         = s.fs.Float64("q", 1, "static nonfailed ratio")
		rounds    = s.fs.Int("rounds", 10, "round budget for round-based baselines")
		topoList  = s.fs.String("topologies", "", "comma-separated overlay topologies; non-empty grows a third grid axis (e.g. uniform,kout:8,wan:4)")
	)
	if err := s.parse(args); err != nil {
		return err
	}
	scenarios := gossipkit.DefaultScenarioSuite()
	if *names != "" {
		var err error
		if scenarios, err = parseList("-scenarios", *names, bundledScenario); err != nil {
			return err
		}
	}
	cfg, err := s.config(*fanout, *q)
	if err != nil {
		return err
	}
	spec := gossipkit.Campaign{Scenarios: scenarios, Config: cfg}
	if *topoList != "" {
		if spec.Topologies, err = parseList("-topologies", *topoList, gossipkit.ParseTopology); err != nil {
			return err
		}
	}
	rows := "paper,pbcast,lpbcast,anti-entropy,rdg,lrg,flooding"
	if *protoList != "" {
		rows = *protoList
	}
	// pbcast, lpbcast, rdg and lrg take an integer per-round fanout where
	// the paper row draws from a distribution of that mean (anti-entropy
	// and flooding take none); a fractional -fanout cannot be honored
	// exactly on those rows, so round it and say so rather than silently
	// comparing protocols at different fanouts.
	baseFanout, takesFanout := int(math.Round(*fanout)), false
	specs, err := parseList("-protocols", rows, func(row string) (gossipkit.ProtocolSpec, error) {
		takesFanout = takesFanout || slices.Contains([]string{"pbcast", "lpbcast", "rdg", "lrg"}, row)
		return baselineSpec(row, *s.n, baseFanout, *rounds, *q, *s.views)
	})
	if err != nil {
		return err
	}
	if takesFanout {
		if baseFanout < 1 {
			return fmt.Errorf("-fanout %g: baseline protocol rows need a fanout >= 1", *fanout)
		}
		if float64(baseFanout) != *fanout {
			fmt.Fprintf(os.Stderr, "note: baseline rows use integer fanout %d (paper row keeps mean %g)\n",
				baseFanout, *fanout)
		}
	}
	for _, p := range specs {
		if p == nil {
			spec.Paper = true
		} else {
			spec.Protocols = append(spec.Protocols, p)
		}
	}
	protocols := len(spec.Protocols)
	if spec.Paper {
		protocols++
	}
	_, err = s.sweep(ctx, spec, []dim{{protocols, "protocols"}, {len(scenarios), "scenarios"},
		{max(len(spec.Topologies), 1), "topologies"}})
	return err
}

// baselineSpec builds one comparison row's protocol parameters from the
// shared CLI knobs (fanout already validated >= 1 for the rows that take
// one); a nil spec with nil error means the paper row.
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

// parseList parses a comma-separated flag value entry by entry, rejecting
// an empty entry (as in "a,,b") or a repeated one (as in "a,a", which
// would run the same row twice) before anything runs.
func parseList[T any](flagName, list string, parse func(string) (T, error)) ([]T, error) {
	entries := strings.Split(list, ",")
	out := make([]T, len(entries))
	for i, e := range entries {
		if e = strings.TrimSpace(e); e == "" {
			return nil, fmt.Errorf("empty entry in %s %q", flagName, list)
		}
		if slices.ContainsFunc(entries[:i], func(prev string) bool { return strings.TrimSpace(prev) == e }) {
			return nil, fmt.Errorf("repeated entry %q in %s %q", e, flagName, list)
		}
		var err error
		if out[i], err = parse(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseFloat parses one entry of a list of floats.
func parseFloat(flagName, entry string) (float64, error) {
	v, err := strconv.ParseFloat(entry, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s entry %q: %w", flagName, entry, err)
	}
	return v, nil
}
