package stream

import (
	"fmt"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/golden"
	"gossipkit/internal/membership"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// paperFields is what a one-message stream and the paper's run both
// report.
type paperFields struct {
	AliveCount, Delivered    int
	MessagesSent, Duplicates int64
	DeliveryLatency          stats.Running
	Net                      struct{ Sent, Delivered, DroppedLoss, DroppedCrash int64 }
}

func streamFields(res Result) paperFields {
	f := paperFields{AliveCount: res.AliveCount, Delivered: res.Delivered,
		MessagesSent: res.MessagesSent, Duplicates: res.Duplicates, DeliveryLatency: res.DeliveryLatency}
	f.Net.Sent, f.Net.Delivered, f.Net.DroppedLoss, f.Net.DroppedCrash =
		res.Net.Sent, res.Net.Delivered, res.Net.DroppedLoss, res.Net.DroppedCrash
	return f
}

func paperRunFields(res core.NetResult) paperFields {
	f := paperFields{AliveCount: res.AliveCount, Delivered: res.Delivered,
		MessagesSent: int64(res.MessagesSent), Duplicates: int64(res.Duplicates), DeliveryLatency: res.DeliveryLatency}
	f.Net.Sent, f.Net.Delivered, f.Net.DroppedLoss, f.Net.DroppedCrash =
		res.Net.Sent, res.Net.Delivered, res.Net.DroppedLoss, res.Net.DroppedCrash
	return f
}

// TestStreamEagerIsPaper holds a one-message eager or flood stream to the
// paper's executor per seed, over core's TestShardInvariance grid at k ∈
// {1, 2, 3}: both take the key root, then the mask (member 0, the source,
// protected) off the run stream, and forward through core.Forwarder, eager
// at the stream's fanout and flood at Fixed(n−1). The stream publishes its
// one message at a Poisson instant instead of t = 0, which shifts every
// arrival but no latency. DeliveryLatency's mean and m2 are compared at
// k = 1 only: more shards merge them in another association.
//
// -short runs seeds 1–2. Flood over the full view at n = 2000 sends n²
// copies a run, about 3.6 M: under the race detector that case runs one
// network (uniform latency, Bernoulli loss) at seed 1 only, about 6 s
// instead of 13 minutes.
func TestStreamEagerIsPaper(t *testing.T) {
	lats := []struct {
		name string
		m    simnet.LatencyModel
	}{
		{"constant", simnet.ConstantLatency{D: 3 * time.Millisecond}},
		{"uniform", simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}},
		{"exponential", simnet.ExponentialLatency{Floor: time.Millisecond, Mean: 2 * time.Millisecond}},
	}
	losses := []simnet.LossModel{simnet.NoLoss{}, simnet.BernoulliLoss{P: 0.1},
		simnet.NewGilbertElliott(0.05, 0.3, 0.01, 0.6)}
	// One message, published for sure (a Poisson window of 10⁶ arrivals),
	// and buffered long past the spread: the spread must end inside the
	// active window, which the paper's SpreadTime checks below.
	const activeRounds = 64
	seeds := uint64(5)
	if testing.Short() {
		seeds = 2
	}
	arena, paperArena := NewArena(), core.NewNetArena()
	for _, n := range []int{17, 2000} {
		kout, err := topology.Spec{Kind: topology.KOut, K: 6}.Build(n, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		views := []struct {
			name string
			view membership.View
		}{{"full", nil}, {"kout", kout}, {"partial", membership.NewPartialViews(n, 2, xrand.New(98))}}
		for _, v := range views {
			for _, d := range []Discipline{DisciplineEager, DisciplineFlood} {
				cfg := Config{N: n, Rate: 1e6, Duration: time.Second, MaxMessages: 1, Sources: 1,
					Fanout: dist.NewPoisson(4), AliveRatio: 0.9, Discipline: d, ActiveRounds: activeRounds, View: v.view}
				p := core.Params{N: n, Fanout: cfg.Fanout, AliveRatio: cfg.AliveRatio, MaskKind: core.Bernoulli, View: v.view}
				if d == DisciplineFlood {
					p.Fanout = dist.NewFixed(n - 1)
				}
				squared := d == DisciplineFlood && v.view == nil && n == 2000
				for seed := uint64(1); seed <= seeds; seed++ {
					for li, loss := range losses {
						for _, lat := range lats {
							if underRace && squared && (seed > 1 || li != 1 || lat.name != "uniform") {
								continue
							}
							netCfg := simnet.Config{Latency: lat.m, Loss: loss}
							key := fmt.Sprintf("%s n=%d %s seed %d %T %s", d, n, v.name, seed, loss, lat.name)
							paper, err := core.ExecuteOnNetworkSharded(p, netCfg, xrand.New(seed), nil, paperArena, nil,
								core.ShardOptions{Shards: 1})
							if err != nil {
								t.Fatal(err)
							}
							if window := activeRounds * netCfg.RoundInterval(0); paper.SpreadTime >= window {
								t.Fatalf("%s: the spread (%v) outlasts the active window (%v)", key, paper.SpreadTime, window)
							}
							want := paperRunFields(paper)
							for k := 1; k <= 3; k++ {
								res, err := RunSharded(cfg, netCfg, xrand.New(seed), nil, arena, nil, core.ShardOptions{Shards: k})
								if err != nil {
									t.Fatal(err)
								}
								if res.Published != 1 {
									t.Fatalf("%s shards=%d: %d messages published, want 1", key, k, res.Published)
								}
								var except []string
								if k > 1 {
									except = []string{"DeliveryLatency.mean", "DeliveryLatency.m2"}
								}
								golden.Equal(t, fmt.Sprintf("%s shards=%d", key, k), streamFields(res), want, except...)
							}
						}
					}
				}
			}
		}
	}
}
