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
		o := smallOptions()
		o.loss = loss
		if err := run(context.Background(), o); !errors.Is(err, gossipkit.ErrInvalidParams) {
			t.Errorf("-loss %g: error %v, want ErrInvalidParams", loss, err)
		}
	}
}

// TestHostileLatencyRejected: -latency-hi below -latency-lo used to run as
// the constant -latency-lo network, and a negative -latency-lo ran; both are
// invalid-parameters errors before the first execution.
func TestHostileLatencyRejected(t *testing.T) {
	for _, lat := range [][2]time.Duration{
		{5 * time.Millisecond, time.Millisecond},
		{-2 * time.Millisecond, 5 * time.Millisecond},
	} {
		o := smallOptions()
		o.latLo, o.latHi = lat[0], lat[1]
		if err := run(context.Background(), o); !errors.Is(err, gossipkit.ErrInvalidParams) {
			t.Errorf("-latency-lo %v -latency-hi %v: error %v, want ErrInvalidParams", lat[0], lat[1], err)
		}
	}
}

// smallOptions is a valid 64-member, one-run command line.
func smallOptions() options {
	return options{
		n: 64, rate: 100, duration: 50 * time.Millisecond,
		distKind: "fixed", fanout: 3, q: 1,
		buffer: 16, eviction: "fifo", discipline: "push", active: 8,
		runs: 1, seed: 42, latLo: time.Millisecond, latHi: 5 * time.Millisecond,
		shards: 1, topoFlag: "uniform",
	}
}
