// Command gossipmodel evaluates the paper's analytic fault-tolerance model
// without any simulation: critical points (Eq. 10), reliability S(z, q)
// (Eq. 11), design fanouts (Eq. 12), and required executions (Eq. 6) — all
// through the Analytic engine of the unified gossipkit.Run API.
//
// Usage:
//
//	gossipmodel reliability -fanout 4.0 -q 0.9
//	gossipmodel design -target 0.999 -q 0.8
//	gossipmodel table -q 0.2,0.4,0.6,0.8,1.0
//	gossipmodel executions -fanout 4.0 -q 0.9 -success 0.999
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gossipkit"
)

// modelN is the nominal group size handed to the Analytic engine: the
// generating-function model is size-free (Eq. 11 depends only on P and q),
// so any valid n evaluates the same curve.
const modelN = 1000

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "reliability":
		err = cmdReliability(args)
	case "design":
		err = cmdDesign(args)
	case "table":
		err = cmdTable(args)
	case "executions":
		err = cmdExecutions(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipmodel:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gossipmodel <command> [flags]

commands:
  reliability  -fanout Z -q Q           reliability S solving Eq. 11
  design       -target S -q Q           mean fanout z from Eq. 12
  table        -q Q1,Q2,...             z-vs-S design table (paper Fig. 2)
  executions   -fanout Z -q Q -success P  minimum executions t from Eq. 6`)
}

// predict evaluates Eq. 11 for Poisson mean fanout z at nonfailed ratio q
// via the Analytic engine. z is flag input, so it goes through ParseFanout
// rather than gossipkit.Poisson, which panics on invalid means.
func predict(z, q float64) (gossipkit.Prediction, error) {
	f, err := gossipkit.ParseFanout("poisson", z)
	if err != nil {
		return gossipkit.Prediction{}, err
	}
	out, err := gossipkit.Run(context.Background(), gossipkit.Analytic{
		Params: gossipkit.Params{N: modelN, Fanout: f, AliveRatio: q},
	})
	if err != nil {
		return gossipkit.Prediction{}, err
	}
	return out.Aggregate.(gossipkit.Prediction), nil
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
		fmt.Fprintf(os.Stderr, "gossipmodel: pprof on http://%s/debug/pprof/\n", bound)
		return nil
	}
}

// parseFlags parses a subcommand's flags. Like a malformed flag, which
// exits 2 under flag.ExitOnError, a leftover argument exits 2 here: flag
// parsing stops at it, so every flag after it would be dropped silently.
func parseFlags(fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args) // flag.ExitOnError: Parse exits rather than return an error
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "gossipmodel %s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		os.Exit(2)
	}
}

func cmdReliability(args []string) error {
	fs := flag.NewFlagSet("reliability", flag.ExitOnError)
	fanout := fs.Float64("fanout", 4.0, "mean fanout z")
	q := fs.Float64("q", 0.9, "nonfailed member ratio")
	pprof := pprofFlag(fs)
	parseFlags(fs, args)
	if err := pprof(); err != nil {
		return err
	}
	pred, err := predict(*fanout, *q)
	if err != nil {
		return err
	}
	fmt.Printf("S(z=%.3f, q=%.3f) = %.6f    q_c = 1/z = %.4f\n", *fanout, *q, pred.Reliability, pred.CriticalRatio)
	if pred.Reliability == 0 {
		fmt.Println("subcritical: q <= 1/z, reliability collapses (Eq. 10)")
	}
	return nil
}

func cmdDesign(args []string) error {
	fs := flag.NewFlagSet("design", flag.ExitOnError)
	target := fs.Float64("target", 0.999, "required reliability S")
	q := fs.Float64("q", 0.9, "nonfailed member ratio")
	pprof := pprofFlag(fs)
	parseFlags(fs, args)
	if err := pprof(); err != nil {
		return err
	}
	z, err := gossipkit.FanoutForReliability(*target, *q)
	if err != nil {
		return err
	}
	fmt.Printf("mean fanout z for S=%.4f at q=%.3f: %.4f   (Eq. 12; requires q > 1/z = %.4f)\n",
		*target, *q, z, 1/z)
	return nil
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	qlist := fs.String("q", "0.2,0.4,0.6,0.8,1.0", "comma-separated q values")
	pprof := pprofFlag(fs)
	parseFlags(fs, args)
	if err := pprof(); err != nil {
		return err
	}
	var qs []float64
	for _, tok := range strings.Split(*qlist, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad q value %q: %w", tok, err)
		}
		// Every q is checked before the header prints (0.5 is a valid S, so
		// only q can fail here): a bad one used to leave half a table.
		if _, err := gossipkit.FanoutForReliability(0.5, v); err != nil {
			return err
		}
		qs = append(qs, v)
	}
	fmt.Printf("%-8s", "S")
	for _, q := range qs {
		fmt.Printf("  z(q=%.1f)", q)
	}
	fmt.Println()
	for _, s := range []float64{0.1111, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999} {
		fmt.Printf("%-8.4f", s)
		for _, q := range qs {
			z, err := gossipkit.FanoutForReliability(s, q)
			if err != nil {
				return err
			}
			fmt.Printf("  %8.3f", z)
		}
		fmt.Println()
	}
	return nil
}

func cmdExecutions(args []string) error {
	fs := flag.NewFlagSet("executions", flag.ExitOnError)
	fanout := fs.Float64("fanout", 4.0, "mean fanout z")
	q := fs.Float64("q", 0.9, "nonfailed member ratio")
	success := fs.Float64("success", 0.999, "required success probability p_s")
	pprof := pprofFlag(fs)
	parseFlags(fs, args)
	if err := pprof(); err != nil {
		return err
	}
	pred, err := predict(*fanout, *q)
	if err != nil {
		return err
	}
	if pred.Reliability == 0 {
		return fmt.Errorf("subcritical configuration (q <= 1/z): no number of executions suffices")
	}
	p := gossipkit.Params{N: modelN, Fanout: gossipkit.Poisson(*fanout), AliveRatio: *q}
	t, err := gossipkit.ExecutionsForSuccess(p, *success)
	if err != nil {
		return err
	}
	fmt.Printf("per-execution reliability S = %.4f\n", pred.Reliability)
	fmt.Printf("minimum executions for p_s=%.4f: t = %d   (Eq. 6)\n", *success, t)
	fmt.Printf("achieved: 1-(1-S)^t = %.6f\n", gossipkit.SuccessAfter(pred.Reliability, t))
	return nil
}
