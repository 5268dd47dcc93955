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

// TestHostileLossRejected: every non-zero -loss reaches the facade's check,
// so a negative, NaN or out-of-range probability is an invalid-parameters
// error rather than a silently loss-free run.
func TestHostileLossRejected(t *testing.T) {
	for _, loss := range []float64{-3, math.NaN(), 7} {
		o := smallOptions()
		o.loss = loss
		if err := run(context.Background(), o); !errors.Is(err, gossipkit.ErrInvalidParams) {
			t.Errorf("-loss %g: error %v, want ErrInvalidParams", loss, err)
		}
	}
}

// TestHostileLatencyRejected: -latency-hi below -latency-lo used to run as
// the constant -latency-lo network, and a negative -latency-lo ran; both are
// invalid-parameters errors before the first execution.
func TestHostileLatencyRejected(t *testing.T) {
	for _, lat := range [][2]time.Duration{
		{5 * time.Millisecond, time.Millisecond},
		{-2 * time.Millisecond, 5 * time.Millisecond},
	} {
		o := smallOptions()
		o.latLo, o.latHi = lat[0], lat[1]
		if err := run(context.Background(), o); !errors.Is(err, gossipkit.ErrInvalidParams) {
			t.Errorf("-latency-lo %v -latency-hi %v: error %v, want ErrInvalidParams", lat[0], lat[1], err)
		}
	}
}

// smallOptions is a valid 64-member, one-run command line.
func smallOptions() options {
	return options{
		n: 64, rate: 100, duration: 50 * time.Millisecond,
		distKind: "fixed", fanout: 3, q: 1,
		buffer: 16, eviction: "fifo", discipline: "push", active: 8,
		runs: 1, seed: 42, latLo: time.Millisecond, latHi: 5 * time.Millisecond,
		shards: 1, topoFlag: "uniform",
	}
}

// TestBadFlagsFailBeforeOutput: a config error used to surface after the
// CSV header had gone to stdout. Every rate's cell is now checked before the
// header: the error comes with nothing on stdout.
func TestBadFlagsFailBeforeOutput(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*options)
	}{
		{"-buffer -1", func(o *options) { o.buffer = -1 }},
		{"-loss 7", func(o *options) { o.loss = 7 }},
		{"-runs 0", func(o *options) { o.runs = 0 }},
		{"-rates 100,400 -q 2", func(o *options) { o.rates, o.q = "100,400", 2 }},
		{"-rates 1:10:1099511627776", func(o *options) { o.rates = "1:10:1099511627776" }},
		{"-rates 5:5:3", func(o *options) { o.rates = "5:5:3" }},
		{"-rates 1:1.001:5", func(o *options) { o.rates = "1:1.001:5" }},
		{"-rates 100,100", func(o *options) { o.rates = "100,100" }},
		{"-rate -5", func(o *options) { o.rate = -5 }},
	} {
		o := smallOptions()
		c.edit(&o)
		out, err := stdoutOf(t, func() error { return run(context.Background(), o) })
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
// argument, so "-rate 100 -runs 1 stray -n 64" ran at the default -n 256
// and exited 0. A leftover argument now exits 2 before anything runs, with
// an empty stdout and one stderr line naming it. main exits the process,
// so it runs in a re-executed test binary.
func TestStrayArgumentRejected(t *testing.T) {
	if args, ok := os.LookupEnv(mainArgs); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrayArgumentRejected$", "-test.count=1")
	cmd.Env = append(os.Environ(), mainArgs+"=-rate 100 -runs 1 stray -n 64")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout.Len() > 0 ||
		stderr.String() != "gossipstream: unexpected argument \"stray\"\n" {
		t.Errorf("gossipstream -rate 100 -runs 1 stray -n 64: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
}
