package main

import (
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gossipkit"
)

// TestNegativeLatencyRejected: -latency below zero used to skip the network
// execution and exit 0. It reaches the engine, which rejects it.
func TestNegativeLatencyRejected(t *testing.T) {
	err := run(context.Background(), 100, "poisson", 4, 0.9, 2, 42, -5*time.Millisecond, 0,
		false, false, "", 1, gossipkit.Topology{})
	if !errors.Is(err, gossipkit.ErrInvalidParams) {
		t.Errorf("-latency -5ms: error %v, want ErrInvalidParams", err)
	}
}

// TestBadFlagsFailBeforeOutput: a flag the facade rejects used to be
// rejected only after the analytic model and both Monte-Carlo sweeps had run
// and printed their report (-runs 0 after the analytic section). Every flag
// is now checked first: the error comes with nothing on stdout. The rows
// cover each engine the command dry-runs as the first to reject; the
// analytic row never printed first, as that engine runs first.
func TestBadFlagsFailBeforeOutput(t *testing.T) {
	for _, c := range []struct {
		name    string // the flags, then the engine that rejects them
		q       float64
		runs    int
		latency time.Duration
		loss    float64
		topo    string
	}{
		{"-q 1.5: analytic", 1.5, 2, 0, 0, "uniform"},
		{"-runs 0: montecarlo", 0.9, 0, 0, 0, "uniform"},
		{"-latency 5ms -topology wan:200: montecarlo", 0.9, 2, 5 * time.Millisecond, 0, "wan:200"},
		{"-latency -1ms: network", 0.9, 2, -time.Millisecond, 0, "uniform"},
		{"-loss 2: network", 0.9, 2, 0, 2, "uniform"},
		{"-loss NaN: network", 0.9, 2, 0, math.NaN(), "uniform"},
	} {
		topo, err := gossipkit.ParseTopology(c.topo)
		if err != nil {
			t.Fatal(err)
		}
		out, err := stdoutOf(t, func() error {
			return run(context.Background(), 100, "poisson", 4, c.q, c.runs, 42, c.latency, c.loss,
				false, false, "", 1, topo)
		})
		if !errors.Is(err, gossipkit.ErrInvalidParams) {
			t.Errorf("%s: error %v, want ErrInvalidParams", c.name, err)
		}
		if out != "" {
			t.Errorf("%s: rejected after printing:\n%s", c.name, out)
		}
	}
}

// stdoutOf runs f with os.Stdout sent to a file and returns what f wrote.
func stdoutOf(t *testing.T, f func() error) (string, error) {
	t.Helper()
	file, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = file
	ferr := f()
	os.Stdout = saved
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}

// mainArgs, set in a re-executed test binary, is the space-separated
// command line its TestStrayArgumentRejected hands to main.
const mainArgs = "GOSSIPKIT_MAIN_ARGS"

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "-runs 2 stray -n 100" ran at the default -n 1000 and
// exited 0. A leftover argument now exits 2 before anything runs, with an
// empty stdout and one stderr line naming it. main exits the process, so
// it runs in a re-executed test binary.
func TestStrayArgumentRejected(t *testing.T) {
	if args, ok := os.LookupEnv(mainArgs); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrayArgumentRejected$", "-test.count=1")
	cmd.Env = append(os.Environ(), mainArgs+"=-runs 2 stray -n 100")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout.Len() > 0 ||
		stderr.String() != "gossipsim: unexpected argument \"stray\"\n" {
		t.Errorf("gossipsim -runs 2 stray -n 100: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
}
