package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipkit"
	"gossipkit/internal/cli/clitest"
)

// scenario runs the command line args on a background context.
func scenario(args ...string) (status int, stdout, stderr string) {
	return clitest.Run(context.Background(), run, args...)
}

// subcommands is run, sweep, grid and compare on a small crash-wave
// campaign, each a command line to append to.
var subcommands = []string{
	"run -scenario crash-wave -n 200",
	"sweep -scenario crash-wave -n 200 -seeds 2",
	"grid -scenario crash-wave -n 200 -seeds 1 -qs 1 -fanouts 5",
	"compare -scenarios crash-wave -n 200 -protocols paper,pbcast -seeds 1",
}

func TestExitContract(t *testing.T) {
	clitest.ExitContract(t, "gossipscenario", run, strings.Fields(subcommands[0]), strings.Fields(subcommands[0]+" -views -3"))
}

// TestSubcommandRequired: a missing or unknown subcommand prints the usage
// and exits 2; asking for help prints it and exits 0.
func TestSubcommandRequired(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
	}{{nil, 2}, {[]string{"nonesuch"}, 2}, {[]string{"-h"}, 0}, {[]string{"help"}, 0}} {
		status, stdout, stderr := scenario(c.args...)
		if status != c.status || stdout != "" || stderr != usage {
			t.Errorf("gossipscenario %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", c.args, status, c.status, stdout, stderr)
		}
	}
}

// TestSubcommandGoldens pins every subcommand's stdout, byte for byte, in
// each format it accepts: sweep with and without curves, the grid with a
// q = 0 cell, and the comparison grid with and without a topology axis.
// The files were captured from the CLI before sweep, grid and compare
// became one axis product, and re-captured once when the paper
// algorithm's draws became keyed by member (no protocol row moved); they
// must not be regenerated to make a change pass. Each case runs at one
// and three workers against the same file.
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
			args := strings.Fields(c.cmd + " -n 150 -seeds 2 -seed 42 -workers " + workers + " " + c.args)
			status, got, stderr := scenario(args...)
			if status != 0 {
				t.Fatalf("%s: exit %d\n%s", strings.Join(args, " "), status, stderr)
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
	for _, args := range subcommands {
		if status, _, stderr := scenario(strings.Fields(args + " -views -3")...); status != 1 ||
			!strings.Contains(stderr, gossipkit.ErrInvalidParams.Error()) {
			t.Errorf("%s -views -3: exit %d, stderr %q; want 1 and invalid parameters", args, status, stderr)
		}
	}
}

// TestHugeViewsRejected: -views at or above -n used to size a view arena
// the process could not allocate, and both lines below died with "fatal
// error: runtime: out of memory". They fail with one invalid-parameters
// line and print nothing else.
func TestHugeViewsRejected(t *testing.T) {
	for _, args := range []string{
		"run -scenario crash-wave -n 200 -views 1000000000",
		"compare -n 200 -views 1000000000",
		"compare -n 200 -views 200 -protocols lpbcast,rdg",
	} {
		status, stdout, stderr := scenario(strings.Fields(args)...)
		if status != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 ||
			!strings.HasPrefix(stderr, "gossipscenario: "+gossipkit.ErrInvalidParams.Error()) {
			t.Errorf("%s: exit %d, want 1 and one line of invalid parameters\nstdout:\n%s\nstderr:\n%s", args, status, stdout, stderr)
		}
	}
}

// TestBadFormatFailsBeforeRunning: an unknown -format used to run the whole
// sweep and only then fail at the output switch. It fails before the first
// execution: no "ran N scenarios" throughput line reaches stderr.
func TestBadFormatFailsBeforeRunning(t *testing.T) {
	for _, args := range subcommands {
		status, _, stderr := scenario(strings.Fields(args + " -format xml")...)
		if status != 1 || strings.Count(stderr, "\n") != 1 ||
			!strings.HasPrefix(stderr, `gossipscenario: unknown format "xml"`) {
			t.Errorf("%s -format xml: exit %d, stderr %q; want 1 and unknown format", args, status, stderr)
		}
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
		status, stdout, stderr := scenario(c.cmd, "-n", "100", "-seeds", "1", c.flag, c.list)
		want := c.want + " in " + c.flag
		if strings.Contains(stderr, gossipkit.ErrInvalidParams.Error()) {
			want = c.want
		}
		if status != 1 || !strings.Contains(stderr, want) {
			t.Errorf("%s %s %q: exit %d, stderr %q; want %q in %s", c.cmd, c.flag, c.list, status, stderr, c.want, c.flag)
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
		status, _, stderr := scenario("compare", "-scenarios", "crash-wave", "-n", "100", "-seeds", "1",
			"-protocols", c.protocols, "-fanout", c.fanout)
		if failed := status != 0; failed != c.fails ||
			(failed && !strings.Contains(stderr, "need a fanout >= 1")) {
			t.Errorf("-protocols %s -fanout %s: exit %d, stderr %q; want failure %v", c.protocols, c.fanout, status, stderr, c.fails)
		}
		if notes := strings.Contains(stderr, "note: baseline rows use integer fanout"); notes != c.notes {
			t.Errorf("-protocols %s -fanout %s: rounding note printed %v, want %v", c.protocols, c.fanout, notes, c.notes)
		}
	}
}

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "run -n 50 stray -seeds 3" ran one seed at -n 1000, and
// "list stray" ignored the argument; both exited 0. Every subcommand now
// exits 2 before anything runs, with an empty stdout and one stderr line
// naming the argument.
func TestStrayArgumentRejected(t *testing.T) {
	for _, args := range []string{
		"run -n 50 stray -seeds 3",
		"sweep -n 50 stray",
		"grid -n 50 stray",
		"compare -n 50 stray",
		"list stray",
	} {
		status, stdout, stderr := scenario(strings.Fields(args)...)
		if status != 2 || stdout != "" || stderr != "gossipscenario: unexpected argument \"stray\"\n" {
			t.Errorf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", args, status, stdout, stderr)
		}
	}
}
