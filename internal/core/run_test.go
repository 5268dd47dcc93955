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
