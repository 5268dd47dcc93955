package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// mainArgs, set in a re-executed test binary, is the space-separated
// command line its TestStrayArgumentRejected hands to main.
const mainArgs = "GOSSIPKIT_MAIN_ARGS"

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "-list stray" listed the experiments and exited 0. A
// leftover argument now exits 2 before anything runs, with an empty stdout
// and one stderr line naming it. main exits the process, so it runs in a
// re-executed test binary.
func TestStrayArgumentRejected(t *testing.T) {
	if args, ok := os.LookupEnv(mainArgs); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrayArgumentRejected$", "-test.count=1")
	cmd.Env = append(os.Environ(), mainArgs+"=-list stray")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout.Len() > 0 ||
		stderr.String() != "experiments: unexpected argument \"stray\"\n" {
		t.Errorf("experiments -list stray: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
}
