// Package clitest drives a command's run function in-process and checks it
// against internal/cli's exit-status contract. Only the tests under cmd/
// import it.
package clitest

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// RunFunc is the shape of every command's run.
type RunFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) int

// Run runs the command line on ctx and returns its exit status and what it
// wrote to stdout and stderr.
func Run(ctx context.Context, run RunFunc, args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(ctx, args, &out, &errb)
	return status, out.String(), errb.String()
}

// ExitContract checks the contract's five outcomes on the command name.
// valid is a cheap command line that runs an engine: with -h appended it
// exits 0, with an unknown flag or a leftover argument 2, and on a
// canceled context 130. invalid holds a value that parses but is rejected:
// it exits 1. Each prints one stderr line or the usage, and only the
// canceled run may have begun its stdout.
func ExitContract(t *testing.T, name string, run RunFunc, valid, invalid []string) {
	t.Helper()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	with := func(arg string) []string { return append(append([]string(nil), valid...), arg) }
	for _, c := range []struct {
		ctx    context.Context
		args   []string
		status int
		stderr string // the one line's prefix, or "" for the usage
	}{
		{context.Background(), with("-h"), 0, ""},
		{context.Background(), with("-no-such-flag"), 2, ""},
		{context.Background(), with("stray"), 2, name + `: unexpected argument "stray"`},
		{context.Background(), invalid, 1, name + ": "},
		{canceled, valid, 130, name + ": interrupted"},
	} {
		status, stdout, stderr := Run(c.ctx, run, c.args...)
		ok := status == c.status && (stdout == "" || c.status == 130)
		if c.stderr == "" {
			ok = ok && strings.Contains(stderr, "Usage of "+name)
		} else {
			ok = ok && strings.HasPrefix(stderr, c.stderr) && strings.Count(stderr, "\n") == 1
		}
		if !ok {
			t.Errorf("%s %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
				name, strings.Join(c.args, " "), status, c.status, stdout, stderr)
		}
	}
}
