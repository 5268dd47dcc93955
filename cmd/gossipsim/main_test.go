package main

import (
	"context"
	"strings"
	"testing"

	"gossipkit"
	"gossipkit/internal/cli/clitest"
)

func TestExitContract(t *testing.T) {
	clitest.ExitContract(t, "gossipsim", run, strings.Fields("-n 100 -runs 2"), strings.Fields("-n 100 -runs 2 -q 1.5"))
}

// TestNegativeLatencyRejected: -latency below zero used to skip the network
// execution and exit 0. It reaches the engine, which rejects it.
func TestNegativeLatencyRejected(t *testing.T) {
	status, _, stderr := clitest.Run(context.Background(), run, strings.Fields("-n 100 -runs 2 -latency -5ms")...)
	if status != 1 || !strings.Contains(stderr, gossipkit.ErrInvalidParams.Error()) {
		t.Errorf("-latency -5ms: exit %d, stderr %q; want 1 and invalid parameters", status, stderr)
	}
}

// TestBadFlagsFailBeforeOutput: a flag the facade rejects used to be
// rejected only after the analytic model and both Monte-Carlo sweeps had run
// and printed their report (-runs 0 after the analytic section). Every flag
// is now checked first: the error comes with nothing on stdout. The rows
// cover each engine the command dry-runs as the first to reject; the
// analytic row never printed first, as that engine runs first. A trace file
// that cannot be created used to fail only after the whole report.
func TestBadFlagsFailBeforeOutput(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-q 1.5", "invalid parameters"},                         // analytic
		{"-runs 0", "invalid parameters"},                        // montecarlo
		{"-latency 5ms -topology wan:200", "invalid parameters"}, // montecarlo
		{"-latency -1ms", "invalid parameters"},                  // network
		{"-loss 2", "invalid parameters"},                        // network
		{"-loss NaN", "invalid parameters"},                      // network
		{"-latency 1ms -trace " + t.TempDir() + "/missing/x.json", "no such file or directory"},
	} {
		args := append(strings.Fields("-n 100 -runs 2"), strings.Fields(c.args)...)
		status, stdout, stderr := clitest.Run(context.Background(), run, args...)
		if status != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, stderr %q; want 1 and %q", c.args, status, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%s: rejected after printing:\n%s", c.args, stdout)
		}
	}
}

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "-runs 2 stray -n 100" ran at the default -n 1000 and
// exited 0. A leftover argument now exits 2 before anything runs, with an
// empty stdout and one stderr line naming it.
func TestStrayArgumentRejected(t *testing.T) {
	status, stdout, stderr := clitest.Run(context.Background(), run, strings.Fields("-runs 2 stray -n 100")...)
	if status != 2 || stdout != "" || stderr != "gossipsim: unexpected argument \"stray\"\n" {
		t.Errorf("gossipsim -runs 2 stray -n 100: exit %d\nstdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
}
