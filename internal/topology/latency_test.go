package topology

import (
	"testing"
	"time"

	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// ZoneLatency must plug into the simnet latency seam, and its positive
// floor is what keeps the calendar queue and PDES lookahead viable.
var (
	_ simnet.LatencyModel = ZoneLatency{}
	_ interface {
		LatencyBound() (time.Duration, bool)
	} = ZoneLatency{}
	_ interface {
		LatencyFloor() (time.Duration, bool)
	} = ZoneLatency{}
)

func TestZoneLatencyBands(t *testing.T) {
	const (
		n     = 100
		zones = 4
		local = time.Millisecond
		step  = 10 * time.Millisecond
	)
	zl := NewZoneLatency(n, zones, local, step)
	r := xrand.New(5)

	ringDist := func(a, b int) int {
		d := a - b
		if d < 0 {
			d = -d
		}
		if zones-d < d {
			d = zones - d
		}
		return d
	}
	for i := 0; i < 2000; i++ {
		from := simnet.NodeID(r.Intn(n))
		to := simnet.NodeID(r.Intn(n))
		za, zb := zl.zone(from), zl.zone(to)
		lo := local + time.Duration(ringDist(za, zb))*step
		hi := 2 * lo
		d := zl.Latency(r, from, to)
		if d < lo || d > hi {
			t.Fatalf("latency %v for zones (%d,%d) outside [%v, %v]", d, za, zb, lo, hi)
		}
	}

	// The bound is the farthest ring pair's hi, the floor the local lo;
	// both must report ok so the kernel can size windows.
	bound, ok := zl.LatencyBound()
	if !ok {
		t.Fatal("LatencyBound not ok")
	}
	wantBound := 2 * (local + time.Duration(zones/2)*step)
	if bound != wantBound {
		t.Fatalf("LatencyBound %v, want %v", bound, wantBound)
	}
	floor, ok := zl.LatencyFloor()
	if !ok {
		t.Fatal("LatencyFloor not ok")
	}
	if floor != local {
		t.Fatalf("LatencyFloor %v, want %v", floor, local)
	}
	if floor <= 0 {
		t.Fatal("LatencyFloor must stay positive for PDES lookahead")
	}
}

func TestZoneLatencyDeterministic(t *testing.T) {
	zl := NewZoneLatency(60, 3, time.Millisecond, 5*time.Millisecond)
	a, b := xrand.New(9), xrand.New(9)
	for i := 0; i < 500; i++ {
		from := simnet.NodeID(i % 60)
		to := simnet.NodeID((i * 7) % 60)
		if da, db := zl.Latency(a, from, to), zl.Latency(b, from, to); da != db {
			t.Fatalf("draw %d: %v != %v", i, da, db)
		}
	}
}
