package main

import (
	"context"
	"errors"
	"testing"

	"gossipkit"
)

// TestNegativeViewsRejected: -views below zero used to skip the SCAMP build
// and run every subcommand on the full view, exit 0. It is an
// invalid-parameters error on all four.
func TestNegativeViewsRejected(t *testing.T) {
	ctx := context.Background()
	base := []string{"-n", "200", "-views", "-3"}
	for name, err := range map[string]error{
		"run":     run(ctx, append([]string{"-scenario", "crash-wave"}, base...), false),
		"sweep":   run(ctx, append([]string{"-scenario", "crash-wave", "-seeds", "2"}, base...), true),
		"grid":    grid(ctx, append([]string{"-scenario", "crash-wave", "-seeds", "1", "-qs", "1", "-fanouts", "5"}, base...)),
		"compare": compare(ctx, append([]string{"-scenarios", "crash-wave", "-protocols", "paper,pbcast", "-seeds", "1"}, base...)),
	} {
		if !errors.Is(err, gossipkit.ErrInvalidParams) {
			t.Errorf("%s -views -3: error %v, want ErrInvalidParams", name, err)
		}
	}
}
