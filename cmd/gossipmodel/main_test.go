package main

import (
	"context"
	"strings"
	"testing"

	"gossipkit/internal/cli/clitest"
)

func TestExitContract(t *testing.T) {
	clitest.ExitContract(t, "gossipmodel", run, []string{"reliability"}, strings.Fields("reliability -q 1.5"))
}

// TestSubcommandRequired: a missing or unknown subcommand prints the usage
// and exits 2; asking for help prints it and exits 0.
func TestSubcommandRequired(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
	}{{nil, 2}, {[]string{"nonesuch"}, 2}, {[]string{"-h"}, 0}, {[]string{"help"}, 0}} {
		status, stdout, stderr := clitest.Run(context.Background(), run, c.args...)
		if status != c.status || stdout != "" || stderr != usage {
			t.Errorf("gossipmodel %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", c.args, status, c.status, stdout, stderr)
		}
	}
}

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "reliability -fanout 4 stray -q 0.3" printed S at the
// default -q 0.9 and exited 0. A leftover argument now exits 2 before
// anything runs, with an empty stdout and one stderr line naming it.
func TestStrayArgumentRejected(t *testing.T) {
	status, stdout, stderr := clitest.Run(context.Background(), run, strings.Fields("reliability -fanout 4 stray -q 0.3")...)
	if status != 2 || stdout != "" || stderr != "gossipmodel: unexpected argument \"stray\"\n" {
		t.Errorf("gossipmodel reliability -fanout 4 stray -q 0.3: exit %d\nstdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
}
