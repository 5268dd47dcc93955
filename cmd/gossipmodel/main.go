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
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"gossipkit"
	"gossipkit/internal/cli"
)

// modelN is the nominal group size handed to the Analytic engine: the
// generating-function model is size-free (Eq. 11 depends only on P and q),
// so any valid n evaluates the same curve.
const modelN = 1000

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt) // the process ends with run
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: gossipmodel <command> [flags]

commands:
  reliability  -fanout Z -q Q           reliability S solving Eq. 11
  design       -target S -q Q           mean fanout z from Eq. 12
  table        -q Q1,Q2,...             z-vs-S design table (paper Fig. 2)
  executions   -fanout Z -q Q -success P  minimum executions t from Eq. 6
`

// options is the union of the subcommands' flags.
type options struct {
	fanout, q, target, success float64
	qs                         string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	// sub is one subcommand: its flags, bound into o, and its work.
	sub := func(name string, bind func(*flag.FlagSet), do func(context.Context, options, io.Writer) error) func([]string) int {
		return func(args []string) int {
			fs := cli.NewFlagSet("gossipmodel "+name, stderr)
			bind(fs)
			return cli.Run(fs, args, func() error { return do(ctx, o, stdout) })
		}
	}
	fanoutQ := func(fs *flag.FlagSet) {
		fs.Float64Var(&o.fanout, "fanout", 4.0, "mean fanout z")
		fs.Float64Var(&o.q, "q", 0.9, "nonfailed member ratio")
	}
	return cli.Subcommands(args, stderr, usage, map[string]func([]string) int{
		"reliability": sub("reliability", fanoutQ, reliability),
		"design": sub("design", func(fs *flag.FlagSet) {
			fs.Float64Var(&o.target, "target", 0.999, "required reliability S")
			fs.Float64Var(&o.q, "q", 0.9, "nonfailed member ratio")
		}, design),
		"table": sub("table", func(fs *flag.FlagSet) {
			fs.StringVar(&o.qs, "q", "0.2,0.4,0.6,0.8,1.0", "comma-separated q values")
		}, table),
		"executions": sub("executions", func(fs *flag.FlagSet) {
			fanoutQ(fs)
			fs.Float64Var(&o.success, "success", 0.999, "required success probability p_s")
		}, executions),
	})
}

// predict evaluates Eq. 11 for Poisson mean fanout z at nonfailed ratio q
// via the Analytic engine. z is flag input, so it goes through ParseFanout
// rather than gossipkit.Poisson, which panics on invalid means.
func predict(ctx context.Context, z, q float64) (gossipkit.Prediction, error) {
	f, err := gossipkit.ParseFanout("poisson", z)
	if err != nil {
		return gossipkit.Prediction{}, err
	}
	out, err := gossipkit.Run(ctx, gossipkit.Analytic{
		Params: gossipkit.Params{N: modelN, Fanout: f, AliveRatio: q},
	})
	if err != nil {
		return gossipkit.Prediction{}, err
	}
	return out.Aggregate.(gossipkit.Prediction), nil
}

func reliability(ctx context.Context, o options, stdout io.Writer) error {
	pred, err := predict(ctx, o.fanout, o.q)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "S(z=%.3f, q=%.3f) = %.6f    q_c = 1/z = %.4f\n", o.fanout, o.q, pred.Reliability, pred.CriticalRatio)
	if pred.Reliability == 0 {
		fmt.Fprintln(stdout, "subcritical: q <= 1/z, reliability collapses (Eq. 10)")
	}
	return nil
}

func design(_ context.Context, o options, stdout io.Writer) error {
	z, err := gossipkit.FanoutForReliability(o.target, o.q)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mean fanout z for S=%.4f at q=%.3f: %.4f   (Eq. 12; requires q > 1/z = %.4f)\n",
		o.target, o.q, z, 1/z)
	return nil
}

func table(_ context.Context, o options, stdout io.Writer) error {
	var qs []float64
	for _, tok := range strings.Split(o.qs, ",") {
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
	fmt.Fprintf(stdout, "%-8s", "S")
	for _, q := range qs {
		fmt.Fprintf(stdout, "  z(q=%.1f)", q)
	}
	fmt.Fprintln(stdout)
	for _, s := range []float64{0.1111, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999} {
		fmt.Fprintf(stdout, "%-8.4f", s)
		for _, q := range qs {
			z, err := gossipkit.FanoutForReliability(s, q)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %8.3f", z)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func executions(ctx context.Context, o options, stdout io.Writer) error {
	pred, err := predict(ctx, o.fanout, o.q)
	if err != nil {
		return err
	}
	if pred.Reliability == 0 {
		return fmt.Errorf("subcritical configuration (q <= 1/z): no number of executions suffices")
	}
	p := gossipkit.Params{N: modelN, Fanout: gossipkit.Poisson(o.fanout), AliveRatio: o.q}
	t, err := gossipkit.ExecutionsForSuccess(p, o.success)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "per-execution reliability S = %.4f\n", pred.Reliability)
	fmt.Fprintf(stdout, "minimum executions for p_s=%.4f: t = %d   (Eq. 6)\n", o.success, t)
	fmt.Fprintf(stdout, "achieved: 1-(1-S)^t = %.6f\n", gossipkit.SuccessAfter(pred.Reliability, t))
	return nil
}
