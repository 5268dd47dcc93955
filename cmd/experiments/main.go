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
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"gossipkit/internal/experiment"
	"gossipkit/internal/obs"
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
	var (
		list   = flag.Bool("list", false, "list available experiments")
		runID  = flag.String("run", "", "run a single experiment by id")
		all    = flag.Bool("all", false, "run every experiment")
		out    = flag.String("out", "results", "output directory for CSVs and charts")
		seed   = flag.Uint64("seed", 2008, "random seed")
		scale  = flag.Float64("scale", 1.0, "replication scale (1.0 = paper's counts)")
		width  = flag.Int("width", 72, "ASCII chart width")
		height = flag.Int("height", 20, "ASCII chart height")
		pprof  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if flag.NArg() > 0 { // flag.Parse stops at it, dropping every later flag
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := checkFlags(*scale, *width, *height); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *pprof != "" {
		addr, err := obs.StartPprof(*pprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "experiments: pprof on http://%s/debug/pprof/\n", addr)
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-24s %-14s %s\n", e.ID, e.Paper, e.Description)
		}
		return
	}
	// Interrupt (Ctrl-C) cancels the sweep worker pools mid-figure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := experiment.Config{Seed: *seed, Scale: *scale, Ctx: ctx}
	var ids []string
	switch {
	case *runID != "":
		ids = []string{*runID}
	case *all:
		for _, e := range experiment.All() {
			ids = append(ids, e.ID)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	for _, id := range ids {
		e, err := experiment.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		start := time.Now()
		fig, err := e.Run(cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "experiments: interrupted")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		csvPath := filepath.Join(*out, id+".csv")
		if err := os.WriteFile(csvPath, []byte(fig.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		ascii := fig.ASCII(*width, *height)
		txtPath := filepath.Join(*out, id+".txt")
		if err := os.WriteFile(txtPath, []byte(ascii), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%s, %v) -> %s\n%s\n", id, e.Paper, elapsed, csvPath, ascii)
	}
}
