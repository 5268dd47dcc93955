package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"gossipkit"
)

// TestHostileLossRejected: every non-zero -loss reaches the facade's check,
// so a negative, NaN or out-of-range probability is an invalid-parameters
// error rather than a silently loss-free run.
func TestHostileLossRejected(t *testing.T) {
	for _, loss := range []float64{-3, math.NaN(), 7} {
		err := run(context.Background(), options{
			n: 64, rate: 100, duration: 50 * time.Millisecond,
			distKind: "fixed", fanout: 3, q: 1,
			buffer: 16, eviction: "fifo", discipline: "push", active: 8,
			runs: 1, seed: 42, latLo: time.Millisecond, latHi: 5 * time.Millisecond,
			loss: loss, shards: 1, topoFlag: "uniform",
		})
		if !errors.Is(err, gossipkit.ErrInvalidParams) {
			t.Errorf("-loss %g: error %v, want ErrInvalidParams", loss, err)
		}
	}
}
