package main

import (
	"context"
	"errors"
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
