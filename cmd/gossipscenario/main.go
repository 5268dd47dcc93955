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
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"gossipkit"
	"gossipkit/internal/cli"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt) // the process ends with run
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// usage lists the subcommands; each one's -h lists its flags.
const usage = `usage:
  gossipscenario list                     show the bundled scenario suite
  gossipscenario run   [flags]            run each selected scenario, per-run reports
  gossipscenario sweep [flags]            replicate scenarios x seeds on a worker pool
  gossipscenario grid  [flags]            sweep the (scenario x q x fanout) grid, CSV/JSON
  gossipscenario compare [flags]          run campaigns against every protocol baseline

Run 'gossipscenario <command> -h' for the command's flags.
`

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	// sub is one subcommand: bind registers its flags into a fresh o, and
	// do runs it once they parse. An unknown -format is rejected before
	// anything runs, as the output switch sits after the sweep.
	sub := func(bind func(o *options) *flag.FlagSet, do func(context.Context, *options) error) func([]string) int {
		return func(args []string) int {
			o := &options{stdout: stdout, stderr: stderr}
			return cli.Run(bind(o), args, func() error {
				if o.formats != nil && !slices.Contains(o.formats, o.format) {
					return fmt.Errorf("unknown format %q (want %s)", o.format, strings.Join(o.formats, ", "))
				}
				return do(ctx, o)
			})
		}
	}
	return cli.Subcommands(args, stderr, usage, map[string]func([]string) int{
		"list":    sub(func(o *options) *flag.FlagSet { return cli.NewFlagSet("gossipscenario list", stderr) }, list),
		"run":     sub(campaignFlags("gossipscenario run", 1), campaign),
		"sweep":   sub(campaignFlags("gossipscenario sweep", 10), campaign),
		"grid":    sub(gridFlags, grid),
		"compare": sub(compareFlags, compare),
	})
}

func list(_ context.Context, o *options) error {
	for _, s := range gossipkit.DefaultScenarioSuite() {
		fmt.Fprintf(o.stdout, "%-18s %2d steps  %s\n", s.Name, len(s.Steps), s.Description)
	}
	return nil
}

// options is one subcommand's command line: the flags every subcommand
// takes, registered by shared with the subcommand's own defaults and help
// text, the flags that are its own, and the -format values it accepts
// (the first is the default).
type options struct {
	stdout, stderr io.Writer
	formats        []string

	n, views, seeds, workers int
	distKind, format         string
	seed                     uint64
	progress                 bool

	fanout, q                        float64 // run, sweep, compare
	suite, scenario, spec            string  // run, sweep, grid
	curves, topology                 string  // run, sweep
	shards                           int     // run, sweep
	qs, fanouts                      string  // grid
	scenarios, protocols, topologies string  // compare
	rounds                           int     // compare
}

// shared registers the flags every subcommand takes on a new flag set.
func (o *options) shared(name string, seeds int, seedsHelp, distHelp, formatHelp string, formats ...string) *flag.FlagSet {
	fs := cli.NewFlagSet(name, o.stderr)
	o.formats = formats
	fs.IntVar(&o.n, "n", 1000, "group size")
	fs.StringVar(&o.distKind, "dist", "poisson", distHelp)
	fs.IntVar(&o.views, "views", 2, "SCAMP partial-view extra copies (0 = full view); a run builds them in 0.12 s at -n 10000, 8-10 s at -n 100000 (compare's lpbcast and rdg rows share one build per scenario and seed)")
	fs.Uint64Var(&o.seed, "seed", 42, "base random seed")
	fs.IntVar(&o.seeds, "seeds", seeds, seedsHelp)
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&o.format, "format", formats[0], formatHelp)
	fs.BoolVar(&o.progress, "progress", false, "stream per-cell progress to stderr")
	return fs
}

// dim is one axis of a subcommand's grid: its length and its name on the
// stderr summary line.
type dim struct {
	n    int
	name string
}

// replicate runs every cell of spec's grid (axes dims) for -seeds seeds,
// streams per-cell progress to stderr under -progress, prints the
// aggregate on stdout in -format and returns it.
func (o *options) replicate(ctx context.Context, spec gossipkit.Engine, dims []dim, opts ...gossipkit.Option) (any, error) {
	dims = append(dims, dim{o.seeds, "seeds"})
	cells, axes := 1, make([]string, len(dims))
	for i, d := range dims {
		cells *= d.n
		axes[i] = fmt.Sprintf("%d %s", d.n, d.name)
	}
	opts = append(opts, gossipkit.WithSeed(o.seed), gossipkit.WithWorkers(o.workers))
	if o.progress {
		opts = append(opts, gossipkit.WithObserver(func(r gossipkit.Report) {
			det := r.Detail.(gossipkit.ScenarioReport)
			fmt.Fprintf(o.stderr, "  cell %d/%d %-18s seed=%d reliability=%.4f spread=%.1fms\n",
				r.Run+1, cells, det.Scenario, det.Seed, r.Reliability, r.SpreadMs)
		}))
	}
	start := time.Now()
	out, err := gossipkit.RunMany(ctx, spec, o.seeds, opts...)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	w := o.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(o.stderr, "ran %s = %d executions in %v (%.1f runs/sec, %d workers)\n",
		strings.Join(axes, " x "), cells, elapsed.Round(time.Millisecond),
		float64(cells)/elapsed.Seconds(), w)

	switch o.format {
	case "json":
		enc, err := json.MarshalIndent(out.Aggregate, "", "  ")
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(o.stdout, string(enc))
	case "csv":
		fmt.Fprint(o.stdout, out.Aggregate.(interface{ CSV() string }).CSV())
	case "ascii":
		fmt.Fprint(o.stdout, out.Aggregate.(interface{ Table() string }).Table())
	}
	return out.Aggregate, nil
}

// config is the run configuration the common flags describe at mean
// fanout fanout and nonfailed ratio q.
func (o *options) config(fanout, q float64) (gossipkit.ScenarioRunConfig, error) {
	d, err := gossipkit.ParseFanout(o.distKind, fanout)
	return gossipkit.ScenarioRunConfig{
		Params:            gossipkit.Params{N: o.n, Fanout: d, AliveRatio: q},
		PartialViewCopies: o.views,
	}, err
}

// scenarioFlags registers -suite, -scenario and -spec (run, sweep, grid).
func (o *options) scenarioFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.suite, "suite", "", "run the bundled suite (\"default\")")
	fs.StringVar(&o.scenario, "scenario", "", "run one bundled scenario by name")
	fs.StringVar(&o.spec, "spec", "", "run a scenario from a JSON spec file")
}

// scenarioList resolves the one campaign choice -suite, -scenario and
// -spec make.
func (o *options) scenarioList() ([]*gossipkit.Scenario, error) {
	if len(slices.DeleteFunc([]string{o.suite, o.scenario, o.spec}, func(s string) bool { return s == "" })) > 1 {
		return nil, fmt.Errorf("choose one of -suite, -scenario, -spec")
	}
	switch {
	case o.scenario != "":
		s, err := bundledScenario(o.scenario)
		if err != nil {
			return nil, err
		}
		return []*gossipkit.Scenario{s}, nil
	case o.spec != "":
		data, err := os.ReadFile(o.spec)
		if err != nil {
			return nil, err
		}
		s, err := gossipkit.ParseScenario(data)
		if err != nil {
			return nil, err
		}
		return []*gossipkit.Scenario{s}, nil
	case o.suite == "" || o.suite == "default":
		return gossipkit.DefaultScenarioSuite(), nil
	default:
		return nil, fmt.Errorf("unknown suite %q (only \"default\" is bundled)", o.suite)
	}
}

// campaignFlags registers the flags of run (1 seed by default) or sweep
// (10).
func campaignFlags(name string, seeds int) func(o *options) *flag.FlagSet {
	return func(o *options) *flag.FlagSet {
		fs := o.shared(name, seeds, "replications per scenario", "fanout distribution",
			"output format: json, csv, ascii", "json", "csv", "ascii")
		o.scenarioFlags(fs)
		fs.Float64Var(&o.fanout, "fanout", 5, "mean fanout")
		fs.Float64Var(&o.q, "q", 1, "static nonfailed ratio")
		fs.StringVar(&o.curves, "curves", "", "also emit merged per-scenario telemetry curves: csv")
		fs.IntVar(&o.shards, "shards", 1, "shard kernels per execution (conservative-PDES; 1 = one shard (default), 0 = one per core: GOMAXPROCS, so results differ between hosts with different core counts, since burst-loss state is cloned per shard and timed actions fire at window barriers; pass an explicit count to reproduce a run elsewhere)")
		fs.StringVar(&o.topology, "topology", "uniform", "gossip overlay: uniform, kout[:K], ba[:K], wan:ZONES[:K]")
		return fs
	}
}

// campaign runs each selected scenario for -seeds seeds (run, sweep).
func campaign(ctx context.Context, o *options) error {
	if o.curves != "" && o.curves != "csv" {
		return fmt.Errorf("unknown -curves format %q (only csv)", o.curves)
	}
	scenarios, err := o.scenarioList()
	if err != nil {
		return err
	}
	cfg, err := o.config(o.fanout, o.q)
	if err != nil {
		return err
	}
	if cfg.Topology, err = gossipkit.ParseTopology(o.topology); err != nil {
		return err
	}
	if cfg.Shards = o.shards; cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	spec := gossipkit.Campaign{Scenarios: scenarios, Config: cfg}
	var opts []gossipkit.Option
	if o.curves != "" {
		opts = append(opts, gossipkit.WithProbe(gossipkit.ProbeOptions{}))
	}
	result, err := o.replicate(ctx, spec, []dim{{len(scenarios), "scenarios"}}, opts...)
	if err != nil || o.curves == "" {
		return err
	}
	csv, err := result.(*gossipkit.ScenarioSweepResult).CurvesCSV()
	if err != nil {
		return err
	}
	fmt.Fprint(o.stdout, csv)
	return nil
}

func gridFlags(o *options) *flag.FlagSet {
	fs := o.shared("gossipscenario grid", 5, "replications per grid cell", "fanout distribution",
		"output format: csv or json", "csv", "json")
	o.scenarioFlags(fs)
	fs.StringVar(&o.qs, "qs", "0.6,0.8,1.0", "comma-separated nonfailed ratios")
	fs.StringVar(&o.fanouts, "fanouts", "3,5,8", "comma-separated mean fanouts")
	return fs
}

// grid sweeps the (scenario × q × fanout) plane and emits the full grid.
func grid(ctx context.Context, o *options) error {
	scenarios, err := o.scenarioList()
	if err != nil {
		return err
	}
	qs, err := parseList("-qs", o.qs, func(e string) (float64, error) { return parseFloat("-qs", e) })
	if err != nil {
		return err
	}
	fanouts, err := parseList("-fanouts", o.fanouts, func(e string) (gossipkit.Distribution, error) {
		f, err := parseFloat("-fanouts", e)
		if err != nil {
			return nil, err
		}
		return gossipkit.ParseFanout(o.distKind, f)
	})
	if err != nil {
		return err
	}
	// Every cell overrides the base q and fanout; the base only validates.
	cfg, err := o.config(5, 1)
	if err != nil {
		return err
	}
	spec := gossipkit.Campaign{Scenarios: scenarios, Config: cfg, Qs: qs, Fanouts: fanouts}
	_, err = o.replicate(ctx, spec, []dim{{len(scenarios), "scenarios"}, {len(qs), "qs"}, {len(fanouts), "fanouts"}})
	return err
}

func compareFlags(o *options) *flag.FlagSet {
	fs := o.shared("gossipscenario compare", 5, "replications per (protocol, scenario) cell",
		"fanout distribution (paper row)", "output format: csv, json, ascii", "csv", "json", "ascii")
	fs.StringVar(&o.scenarios, "scenarios", "", "comma-separated bundled scenario names (default: whole suite)")
	fs.StringVar(&o.protocols, "protocols", "", "comma-separated protocol rows (default: all seven)")
	fs.Float64Var(&o.fanout, "fanout", 5, "mean fanout")
	fs.Float64Var(&o.q, "q", 1, "static nonfailed ratio")
	fs.IntVar(&o.rounds, "rounds", 10, "round budget for round-based baselines")
	fs.StringVar(&o.topologies, "topologies", "", "comma-separated overlay topologies; non-empty grows a third grid axis (e.g. uniform,kout:8,wan:4)")
	return fs
}

// compare runs the (protocol × scenario) comparison grid: every selected
// campaign against every selected protocol row on the shared DES substrate,
// with byte-identical campaign randomness per (scenario, seed) cell
// whatever the protocol.
func compare(ctx context.Context, o *options) error {
	scenarios := gossipkit.DefaultScenarioSuite()
	if o.scenarios != "" {
		var err error
		if scenarios, err = parseList("-scenarios", o.scenarios, bundledScenario); err != nil {
			return err
		}
	}
	cfg, err := o.config(o.fanout, o.q)
	if err != nil {
		return err
	}
	spec := gossipkit.Campaign{Scenarios: scenarios, Config: cfg}
	if o.topologies != "" {
		if spec.Topologies, err = parseList("-topologies", o.topologies, gossipkit.ParseTopology); err != nil {
			return err
		}
	}
	rows := "paper,pbcast,lpbcast,anti-entropy,rdg,lrg,flooding"
	if o.protocols != "" {
		rows = o.protocols
	}
	// pbcast, lpbcast, rdg and lrg take an integer per-round fanout where
	// the paper row draws from a distribution of that mean (anti-entropy
	// and flooding take none); a fractional -fanout cannot be honored
	// exactly on those rows, so round it and say so rather than silently
	// comparing protocols at different fanouts.
	baseFanout, takesFanout := int(math.Round(o.fanout)), false
	specs, err := parseList("-protocols", rows, func(row string) (gossipkit.ProtocolSpec, error) {
		takesFanout = takesFanout || slices.Contains([]string{"pbcast", "lpbcast", "rdg", "lrg"}, row)
		return baselineSpec(row, o.n, baseFanout, o.rounds, o.q, o.views)
	})
	if err != nil {
		return err
	}
	if takesFanout {
		if baseFanout < 1 {
			return fmt.Errorf("-fanout %g: baseline protocol rows need a fanout >= 1", o.fanout)
		}
		if float64(baseFanout) != o.fanout {
			fmt.Fprintf(o.stderr, "note: baseline rows use integer fanout %d (paper row keeps mean %g)\n",
				baseFanout, o.fanout)
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
	_, err = o.replicate(ctx, spec, []dim{{protocols, "protocols"}, {len(scenarios), "scenarios"},
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
