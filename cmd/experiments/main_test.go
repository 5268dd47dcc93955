package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"gossipkit/internal/cli/clitest"
)

// TestCheckFlags: a replication scale that is not a positive finite number
// within MaxScale, or a chart without area, is refused before any
// experiment runs (these used to run silently, at a platform-dependent
// replication count).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		scale         float64
		width, height int
		ok            bool
	}{
		{1, 72, 20, true},
		{0.2, 1, 1, true},
		{1e6, 72, 20, true},
		{math.NaN(), 72, 20, false},
		{math.Inf(1), 72, 20, false},
		{math.Inf(-1), 72, 20, false},
		{1e18, 72, 20, false},
		{0, 72, 20, false},
		{-1, 72, 20, false},
		{1, 0, 20, false},
		{1, 72, -3, false},
	} {
		if err := checkFlags(c.scale, c.width, c.height); (err == nil) != c.ok {
			t.Errorf("checkFlags(%g, %d, %d) = %v, want ok=%v", c.scale, c.width, c.height, err, c.ok)
		}
	}
}

func TestExitContract(t *testing.T) {
	out := t.TempDir()
	clitest.ExitContract(t, "experiments", run, strings.Fields("-run fig4a -scale 0.05 -out "+out),
		strings.Fields("-run fig4a -scale NaN -out "+out))
}

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "-list stray" listed the experiments and exited 0. A
// leftover argument now exits 2 before anything runs, with an empty stdout
// and one stderr line naming it.
func TestStrayArgumentRejected(t *testing.T) {
	status, stdout, stderr := clitest.Run(context.Background(), run, "-list", "stray")
	if status != 2 || stdout != "" || stderr != "experiments: unexpected argument \"stray\"\n" {
		t.Errorf("experiments -list stray: exit %d\nstdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
}
