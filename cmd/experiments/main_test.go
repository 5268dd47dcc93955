package main

import (
	"math"
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
