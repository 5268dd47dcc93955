package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"gossipkit"
)

// TestNegativeLatencyRejected: -latency below zero used to skip the network
// execution and exit 0. It reaches the engine, which rejects it.
func TestNegativeLatencyRejected(t *testing.T) {
	err := run(context.Background(), 100, "poisson", 4, 0.9, 2, 42, -5*time.Millisecond, 0,
		false, false, "", 1, gossipkit.Topology{})
	if !errors.Is(err, gossipkit.ErrInvalidParams) {
		t.Errorf("-latency -5ms: error %v, want ErrInvalidParams", err)
	}
}
