package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// TestDriveReportsOpenLedger: a run that drains while the fabric still
// counts a message in flight — here the kernel is emptied behind the
// fabric's back — does not come back as a result; Drive names what is
// still open.
func TestDriveReportsOpenLedger(t *testing.T) {
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}}
	run := NewNetArena().Begin(8, cfg, xrand.New(1), ShardOptions{Shards: 1})
	run.Reset(0, func(int) {})
	if err := run.Drive(); err != nil {
		t.Fatalf("an idle run drained with %v", err)
	}
	run.Net.Shard(0).Send(0, 1, nil)
	run.Kernels[0].Reset()
	err := run.Drive()
	if !errors.Is(err, ErrOpenLedger) || !strings.Contains(err.Error(), "1 messages in flight") {
		t.Fatalf("Drive returned %v, want ErrOpenLedger with 1 message in flight", err)
	}
}

// TestRunLayoutAllocs: a run lays its streams out in the arena — each
// shard's run stream (Begin) and network stream (Reset) is split into a
// value the shard state owns — so a warm n = 1000 execution makes at most
// 11, 42 and 68 allocations at 1, 2 and 4 shards (go1.24 on amd64; the
// shard group's goroutines and channels are most of them). Allocating
// those streams per run costs 1, 4 and 8 more.
func TestRunLayoutAllocs(t *testing.T) {
	for _, c := range []struct {
		shards int
		max    float64
	}{{1, 11}, {2, 42}, {4, 68}} {
		arena := NewNetArena()
		p, cfg, r := shardedTestParams(1000), shardedTestConfig(), xrand.New(1)
		run := func() {
			if _, err := ExecuteOnNetworkSharded(p, cfg, r, nil, arena, nil, ShardOptions{Shards: c.shards}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got > c.max {
			t.Errorf("shards=%d: %.1f allocations per warm run, want <= %.0f", c.shards, got, c.max)
		}
	}
}
