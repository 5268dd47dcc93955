package gossipkit

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gossipkit/internal/golden"
	"gossipkit/internal/simnet"
)

func shardedNetSpec() Network {
	return Network{
		Params: Params{N: 300, Fanout: Poisson(6), AliveRatio: 0.95, Source: 2},
		Net: NetConfig{
			Latency: simnet.UniformLatency{Lo: 2 * time.Millisecond, Hi: 9 * time.Millisecond},
		},
	}
}

// TestWithShardsDeterministicAndPinned: sharded runs are reproducible,
// compose with WithProbe and RunMany, and report what the one-shard
// default reports, but for the probe's Metrics, the fabric's and the
// queue's accounting counters and the latency mean and m2 that the shard
// merge reassociates.
func TestWithShardsDeterministicAndPinned(t *testing.T) {
	spec := shardedNetSpec()
	base, err := Run(context.Background(), spec, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), spec, WithSeed(5), WithShards(2), WithProbe(ProbeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec, WithSeed(5), WithShards(2), WithProbe(ProbeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded run not deterministic:\n a %+v\n b %+v", a, b)
	}
	ra := a.Reports[0]
	golden.Equal(t, "shards=2", ra, base.Reports[0], "Metrics", "Detail.DeliveryLatency.mean",
		"Detail.DeliveryLatency.m2", "Detail.Net.BoxedSends", "Detail.Net.Settled", "Detail.Queue")
	if ra.Metrics == nil || ra.Metrics.Totals.Sent == 0 {
		t.Errorf("sharded probe metrics missing: %+v", ra.Metrics)
	}

	many, err := RunMany(context.Background(), spec, 4, WithSeed(5), WithShards(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if many.Runs != 4 || many.Reliability.Mean == 0 {
		t.Errorf("sharded RunMany outcome %+v", many)
	}
}

func TestWithShardProgress(t *testing.T) {
	var calls int
	var lastEvents uint64
	var lastNow time.Duration
	_, err := Run(context.Background(), shardedNetSpec(), WithSeed(3), WithShards(4),
		WithShardProgress(func(events uint64, now time.Duration) {
			calls++
			if events < lastEvents || now < lastNow {
				t.Fatalf("progress went backwards: events %d->%d now %v->%v", lastEvents, events, lastNow, now)
			}
			lastEvents, lastNow = events, now
		}))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || lastEvents == 0 {
		t.Fatalf("shard progress never fired (calls=%d events=%d)", calls, lastEvents)
	}
}

// TestDefaultIsOneShard pins that every way of not asking for shards means
// one shard: WithShards absent, WithShards(1), and ScenarioRunConfig.Shards
// 0 and 1 give byte-equal reports on the Network, Stream and Campaign
// engines. GOMAXPROCS is raised to 4 so that a zero read as "one shard
// per core" anywhere below the facade would run on four shards and move
// every report — as the explicit four-shard run
// of each engine shows. On the Campaign engine WithShards(4) and
// Config.Shards: 4 are the same request; asking for both with different
// counts is an error.
func TestDefaultIsOneShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	crashWave, ok := ScenarioByName("crash-wave")
	if !ok {
		t.Fatal("crash-wave missing from the bundled suite")
	}
	campaign := func(shards int) Campaign {
		return Campaign{
			Scenarios: []*Scenario{crashWave},
			Config: ScenarioRunConfig{
				Params: Params{N: 300, Fanout: Poisson(6), AliveRatio: 1},
				Shards: shards,
			},
		}
	}
	stream := Stream{Config: testStreamConfig(), Net: testStreamNet()}
	fours := map[string][]Report{}

	for _, tc := range []struct {
		name   string
		engine func(configShards int) Engine
		four   []Option // how this engine is asked for four shards, beyond configShards
	}{
		{"network", func(int) Engine { return shardedNetSpec() }, []Option{WithShards(4)}},
		{"stream", func(int) Engine { return stream }, []Option{WithShards(4)}},
		{"campaign", func(shards int) Engine { return campaign(shards) }, nil},
		{"campaign-option", func(int) Engine { return campaign(0) }, []Option{WithShards(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(configShards int, opts ...Option) []Report {
				out, err := Run(context.Background(), tc.engine(configShards), append(opts, WithSeed(11))...)
				if err != nil {
					t.Fatal(err)
				}
				return out.Reports
			}
			base := run(0)
			if got := run(0, WithShards(1)); !reflect.DeepEqual(got, base) {
				t.Errorf("WithShards(1) diverged from the option-absent run:\n got %+v\nwant %+v", got, base)
			}
			if got := run(1); !reflect.DeepEqual(got, base) {
				t.Errorf("Shards: 1 diverged from Shards: 0:\n got %+v\nwant %+v", got, base)
			}
			four := run(4, tc.four...)
			if reflect.DeepEqual(four, base) {
				t.Error("a four-shard run reproduced the default: this test cannot see a leaked zero")
			}
			fours[tc.name] = four
		})
	}
	if !reflect.DeepEqual(fours["campaign-option"], fours["campaign"]) {
		t.Errorf("Campaign under WithShards(4) diverged from Config.Shards: 4:\n got %+v\nwant %+v",
			fours["campaign-option"], fours["campaign"])
	}
	if _, err := Run(context.Background(), campaign(2), WithShards(4)); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("WithShards(4) on Config.Shards: 2: got %v, want ErrInvalidParams", err)
	}
}

// TestCancelledShardedSweepLeavesNoGoroutines: a sharded sweep cancelled
// mid-flight — replication workers each driving a three-shard run, so
// window workers are live inside pool workers — returns ErrCanceled and
// takes every goroutine it started down with it.
func TestCancelledShardedSweepLeavesNoGoroutines(t *testing.T) {
	sc := testStreamConfig()
	sc.N, sc.Discipline, sc.Batch = 256, StreamPushPull, true
	net := shardedNetSpec()
	net.Params.N = 3000
	for _, eng := range []Engine{net, Stream{Config: sc, Net: testStreamNet()}} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunMany(ctx, eng, 200, WithShards(3), WithWorkers(4),
			WithObserver(func(r Report) {
				if r.Run == 2 {
					cancel()
				}
			}))
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err %v, want ErrCanceled", eng.Name(), err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before the sweep, %d two seconds after its cancellation", eng.Name(), before, after)
		}
	}
}
