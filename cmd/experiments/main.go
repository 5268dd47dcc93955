// Command experiments regenerates every figure of the paper (Figs. 2–7)
// plus the ablation and extension studies registered with them in
// internal/experiment (-list prints every id), writing CSVs and ASCII charts.
//
// Usage:
//
//	experiments -list
//	experiments -run fig4a -out results
//	experiments -all -scale 1.0 -out results
//	experiments -all -scale 0.2        # quick pass, reduced replications
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"gossipkit/internal/cli"
	"gossipkit/internal/experiment"
)

// checkFlags rejects the numeric flags no experiment can honour — a -scale
// that is NaN, infinite, non-positive or above experiment.MaxScale, a chart
// without area — before any experiment starts.
func checkFlags(scale float64, width, height int) error {
	if !(scale > 0 && scale <= experiment.MaxScale) {
		return fmt.Errorf("invalid -scale %g: want a number in (0, %g]", scale, experiment.MaxScale)
	}
	if width <= 0 || height <= 0 {
		return fmt.Errorf("invalid chart size -width %d -height %d: both must be positive", width, height)
	}
	return nil
}

func main() {
	// Interrupt (Ctrl-C) cancels the sweep worker pools mid-figure.
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt) // the process ends with run
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// options is the experiments command line.
type options struct {
	list, all     bool
	runID, out    string
	seed          uint64
	scale         float64
	width, height int
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := cli.NewFlagSet("experiments", stderr)
	fs.BoolVar(&o.list, "list", false, "list available experiments")
	fs.StringVar(&o.runID, "run", "", "run a single experiment by id")
	fs.BoolVar(&o.all, "all", false, "run every experiment")
	fs.StringVar(&o.out, "out", "results", "output directory for CSVs and charts")
	fs.Uint64Var(&o.seed, "seed", 2008, "random seed")
	fs.Float64Var(&o.scale, "scale", 1.0, "replication scale (1.0 = paper's counts)")
	fs.IntVar(&o.width, "width", 72, "ASCII chart width")
	fs.IntVar(&o.height, "height", 20, "ASCII chart height")
	return cli.Run(fs, args, func() error { return experiments(ctx, o, stdout) })
}

func experiments(ctx context.Context, o options, stdout io.Writer) error {
	if err := checkFlags(o.scale, o.width, o.height); err != nil {
		return err
	}
	var ids []string
	switch {
	case o.list:
		for _, e := range experiment.All() {
			fmt.Fprintf(stdout, "%-24s %-14s %s\n", e.ID, e.Paper, e.Description)
		}
		return nil
	case o.runID != "":
		ids = []string{o.runID}
	case o.all:
		for _, e := range experiment.All() {
			ids = append(ids, e.ID)
		}
	default:
		return cli.UsageError("choose -list, -run ID or -all")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	cfg := experiment.Config{Seed: o.seed, Scale: o.scale, Ctx: ctx}
	for _, id := range ids {
		e, err := experiment.ByID(id)
		if err != nil {
			return err
		}
		start := time.Now()
		fig, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s failed: %w", id, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		csvPath := filepath.Join(o.out, id+".csv")
		if err := os.WriteFile(csvPath, []byte(fig.CSV()), 0o644); err != nil {
			return err
		}
		ascii := fig.ASCII(o.width, o.height)
		if err := os.WriteFile(filepath.Join(o.out, id+".txt"), []byte(ascii), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "=== %s (%s, %v) -> %s\n%s\n", id, e.Paper, elapsed, csvPath, ascii)
	}
	return nil
}
