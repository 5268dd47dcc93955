package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipkit"
)

// subcommands runs run, sweep, grid and compare on a small crash-wave
// campaign with extra appended to each command line.
func subcommands(extra ...string) map[string]error {
	ctx := context.Background()
	return map[string]error{
		"run":     run(ctx, append([]string{"-scenario", "crash-wave", "-n", "200"}, extra...), false),
		"sweep":   run(ctx, append([]string{"-scenario", "crash-wave", "-n", "200", "-seeds", "2"}, extra...), true),
		"grid":    grid(ctx, append([]string{"-scenario", "crash-wave", "-n", "200", "-seeds", "1", "-qs", "1", "-fanouts", "5"}, extra...)),
		"compare": compare(ctx, append([]string{"-scenarios", "crash-wave", "-n", "200", "-protocols", "paper,pbcast", "-seeds", "1"}, extra...)),
	}
}

// subcommand runs one of run, sweep, grid and compare with args.
func subcommand(name string, args []string) error {
	ctx := context.Background()
	switch name {
	case "run":
		return run(ctx, args, false)
	case "sweep":
		return run(ctx, args, true)
	case "grid":
		return grid(ctx, args)
	default:
		return compare(ctx, args)
	}
}

// capture runs f with os.Stdout and os.Stderr sent to files and returns
// what f wrote to each.
func capture(t *testing.T, f func() error) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	files := [2]*os.File{}
	for i := range files {
		if files[i], err = os.Create(filepath.Join(dir, fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	ferr := f()
	os.Stdout, os.Stderr = savedOut, savedErr
	var out [2]string
	for i, file := range files {
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(file.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return out[0], out[1], ferr
}

// TestSubcommandGoldens pins every subcommand's stdout, byte for byte, in
// each format it accepts: sweep with and without curves, the grid with a
// q = 0 cell, and the comparison grid with and without a topology axis.
// The files were captured from the CLI before sweep, grid and compare
// became one axis product, and must not be regenerated to make a change
// pass. Each case runs at one and three workers against the same file.
func TestSubcommandGoldens(t *testing.T) {
	cases := []struct{ golden, cmd, args string }{
		{"run-json", "run", "-format json"},
		{"sweep-json", "sweep", "-format json"},
		{"sweep-csv", "sweep", "-format csv"},
		{"sweep-ascii", "sweep", "-format ascii"},
		{"sweep-curves", "sweep", "-format csv -curves csv"},
		{"grid-csv", "grid", "-qs 0,1 -fanouts 3,5 -format csv"},
		{"grid-json", "grid", "-qs 0,1 -fanouts 3,5 -format json"},
		{"compare-csv", "compare", "-scenarios crash-wave,partition-heal -format csv"},
		{"compare-json", "compare", "-scenarios crash-wave,partition-heal -format json"},
		{"compare-ascii", "compare", "-scenarios crash-wave,partition-heal -format ascii"},
		{"compare-topo-csv", "compare", "-scenarios crash-wave -topologies uniform,kout:4 -format csv"},
		{"compare-topo-json", "compare", "-scenarios crash-wave -topologies uniform,kout:4 -format json"},
		{"compare-topo-ascii", "compare", "-scenarios crash-wave -topologies uniform,kout:4 -format ascii"},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "3"} {
			args := append(strings.Fields("-n 150 -seeds 2 -seed 42 -workers "+workers), strings.Fields(c.args)...)
			got, _, err := capture(t, func() error { return subcommand(c.cmd, args) })
			if err != nil {
				t.Fatalf("%s %s: %v", c.cmd, strings.Join(args, " "), err)
			}
			if got != string(want) {
				t.Errorf("%s at -workers %s moved from testdata/%s.golden:\n got:\n%s\nwant:\n%s",
					c.cmd, workers, c.golden, got, want)
			}
		}
	}
}

// TestNegativeViewsRejected: -views below zero used to skip the SCAMP build
// and run every subcommand on the full view, exit 0. It is an
// invalid-parameters error on all four.
func TestNegativeViewsRejected(t *testing.T) {
	for name, err := range subcommands("-views", "-3") {
		if !errors.Is(err, gossipkit.ErrInvalidParams) {
			t.Errorf("%s -views -3: error %v, want ErrInvalidParams", name, err)
		}
	}
}

// TestHugeViewsRejected: -views at or above -n used to size a view arena
// the process could not allocate, and both lines below died with "fatal
// error: runtime: out of memory". They fail with one invalid-parameters
// line (main prints the error) and print nothing.
func TestHugeViewsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-scenario", "crash-wave", "-n", "200", "-views", "1000000000"},
		{"compare", "-n", "200", "-views", "1000000000"},
		{"compare", "-n", "200", "-views", "200", "-protocols", "lpbcast,rdg"},
	} {
		stdout, stderr, err := capture(t, func() error { return subcommand(args[0], args[1:]) })
		if !errors.Is(err, gossipkit.ErrInvalidParams) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error %v, want one line of ErrInvalidParams", strings.Join(args, " "), err)
		}
		if stdout != "" || stderr != "" {
			t.Errorf("%s printed before failing:\n%s%s", strings.Join(args, " "), stderr, stdout)
		}
	}
}

// TestBadFormatFailsBeforeRunning: an unknown -format used to run the whole
// sweep and only then fail at the output switch. It fails before the first
// execution: no "ran N scenarios" throughput line reaches stderr.
func TestBadFormatFailsBeforeRunning(t *testing.T) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	errs := subcommands("-format", "xml")
	os.Stderr = saved
	for name, err := range errs {
		if err == nil || !strings.Contains(err.Error(), `unknown format "xml"`) {
			t.Errorf("%s -format xml: error %v, want unknown format", name, err)
		}
	}
	if err := stderr.Close(); err != nil {
		t.Fatal(err)
	}
	logged, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(logged), "ran ") {
		t.Errorf("-format xml ran before failing; stderr:\n%s", logged)
	}
}

// TestEmptyListEntryRejected: an empty entry in a comma-separated flag
// ("uniform,,kout:4") is one error before anything runs, and so is a
// repeated one ("pbcast,pbcast"). The topology list used to parse the first
// as uniform and run a duplicate uniform row; a repeated entry ran its row
// twice, under one label, and so did two spellings of one label ("1,1.0").
func TestEmptyListEntryRejected(t *testing.T) {
	cases := []struct{ cmd, flag, list, want string }{
		{"grid", "-qs", "0.8,,1", "empty entry"},
		{"grid", "-qs", "", "empty entry"},
		{"grid", "-fanouts", "3, ,5", "empty entry"},
		{"compare", "-topologies", "uniform,,kout:4", "empty entry"},
		{"compare", "-protocols", "paper,,pbcast", "empty entry"},
		{"compare", "-scenarios", "crash-wave,", "empty entry"},
		{"grid", "-qs", "0.5,0.5", `repeated entry "0.5"`},
		{"compare", "-topologies", "uniform,uniform", `repeated entry "uniform"`},
		{"compare", "-protocols", "pbcast,pbcast,paper,paper", `repeated entry "pbcast"`},
		{"compare", "-scenarios", "baseline, baseline", `repeated entry "baseline"`},
		// Spellings that differ as strings but not as labels: the campaign
		// rejects them, naming the axis rather than the flag.
		{"grid", "-qs", "1,1.0", `repeated q "1"`},
		{"grid", "-fanouts", "5,5.0", `repeated fanout "Poisson(5)"`},
		{"compare", "-topologies", "kout:8,kout:08", `repeated topology "kout:8"`},
	}
	for _, c := range cases {
		stdout, stderr, err := capture(t, func() error {
			return subcommand(c.cmd, []string{"-n", "100", "-seeds", "1", c.flag, c.list})
		})
		want := c.want + " in " + c.flag
		if errors.Is(err, gossipkit.ErrInvalidParams) {
			want = c.want
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s %s %q: error %v, want %q in %s", c.cmd, c.flag, c.list, err, c.want, c.flag)
		}
		if stdout != "" || strings.Contains(stderr, "ran ") {
			t.Errorf("%s %s %q ran before failing:\n%s%s", c.cmd, c.flag, c.list, stderr, stdout)
		}
	}
}

// TestFanoutCheckOnlyForFanoutRows: only pbcast, lpbcast, rdg and lrg take
// an integer fanout, so only a grid with one of them rejects -fanout < 0.5
// or notes the rounding. The paper, anti-entropy and flooding rows used to
// fail on -fanout 0.4 too, and a paper-only grid printed the note.
func TestFanoutCheckOnlyForFanoutRows(t *testing.T) {
	cases := []struct {
		protocols, fanout string
		fails, notes      bool
	}{
		{"paper", "0.4", false, false},
		{"flooding", "0.4", false, false},
		{"anti-entropy", "0.4", false, false},
		{"paper,flooding", "4.5", false, false},
		{"pbcast", "0.4", true, false},
		{"paper,lrg", "4.5", false, true},
	}
	for _, c := range cases {
		_, stderr, err := capture(t, func() error {
			return compare(context.Background(), []string{"-scenarios", "crash-wave", "-n", "100", "-seeds", "1",
				"-protocols", c.protocols, "-fanout", c.fanout})
		})
		if failed := err != nil; failed != c.fails ||
			(failed && !strings.Contains(err.Error(), "need a fanout >= 1")) {
			t.Errorf("-protocols %s -fanout %s: error %v, want failure %v", c.protocols, c.fanout, err, c.fails)
		}
		if notes := strings.Contains(stderr, "note: baseline rows use integer fanout"); notes != c.notes {
			t.Errorf("-protocols %s -fanout %s: rounding note printed %v, want %v", c.protocols, c.fanout, notes, c.notes)
		}
	}
}

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "run -n 50 stray -seeds 3" ran one seed at -n 1000, and
// "list stray" ignored the argument; both exited 0. Every subcommand now
// returns a usageError (main exits 2 on it) naming the argument before
// anything runs, with nothing on stdout or stderr.
func TestStrayArgumentRejected(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-n", "50", "stray", "-seeds", "3"},
		{"sweep", "-n", "50", "stray"},
		{"grid", "-n", "50", "stray"},
		{"compare", "-n", "50", "stray"},
		{"list", "stray"},
	} {
		stdout, stderr, err := capture(t, func() error {
			if args[0] == "list" {
				return list(args[1:])
			}
			return subcommand(args[0], args[1:])
		})
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), `"stray"`) ||
			stdout != "" || stderr != "" {
			t.Errorf("%s: err %v\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), err, stdout, stderr)
		}
	}
}
