package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgs, set in a re-executed test binary, is the space-separated
// command line its TestStrayArgumentRejected hands to main.
const mainArgs = "GOSSIPKIT_MAIN_ARGS"

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "reliability -fanout 4 stray -q 0.3" printed S at the
// default -q 0.9 and exited 0. A leftover argument now exits 2 before
// anything runs, with an empty stdout and one stderr line naming it. main
// exits the process, so it runs in a re-executed test binary.
func TestStrayArgumentRejected(t *testing.T) {
	if args, ok := os.LookupEnv(mainArgs); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrayArgumentRejected$", "-test.count=1")
	cmd.Env = append(os.Environ(), mainArgs+"=reliability -fanout 4 stray -q 0.3")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout.Len() > 0 ||
		stderr.String() != "gossipmodel reliability: unexpected argument \"stray\"\n" {
		t.Errorf("gossipmodel reliability -fanout 4 stray -q 0.3: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
}
