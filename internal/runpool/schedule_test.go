package runpool_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"gossipkit"
	"gossipkit/internal/runpool"
	"gossipkit/internal/simnet"
)

// TestScheduleInvariance runs four facade engines that sit on
// runpool.Replicate — the giant-component Monte Carlo, a DES Network over
// a k-out overlay built per replication, a DES Network on exponential
// latency with loss (the bench sweep's heavy-tailed cells, where the
// executor settles sends to failed or already-reached members and draws
// their loss), and a comparison Campaign whose
// lpbcast and RDG rows share SCAMP builds through the sweep's view memo,
// so which run builds and which one hits varies with the schedule — at
// one, two and three workers, with items claimed in ascending, reversed
// and shuffled order. Every Outcome must equal the one-worker ascending
// run exactly.
func TestScheduleInvariance(t *testing.T) {
	scenario, ok := gossipkit.ScenarioByName("crash-wave")
	if !ok {
		t.Fatal("no bundled crash-wave scenario")
	}
	specs := []struct {
		name string
		spec gossipkit.Engine
		runs int
		opts []gossipkit.Option
	}{
		{"montecarlo", gossipkit.MonteCarlo{Params: gossipkit.Params{N: 300, Fanout: gossipkit.Poisson(3), AliveRatio: 0.8}}, 12, nil},
		{"network-kout", gossipkit.Network{
			Params: gossipkit.Params{N: 200, Fanout: gossipkit.Poisson(4), AliveRatio: 0.9},
			Net:    gossipkit.NetConfig{Latency: gossipkit.UniformLatency(time.Millisecond, 5*time.Millisecond)},
		}, 9, []gossipkit.Option{gossipkit.WithTopology(gossipkit.KOutTopology(4))}},
		{"network-exp-loss", gossipkit.Network{
			Params: gossipkit.Params{N: 500, Fanout: gossipkit.Poisson(5), AliveRatio: 0.7},
			Net: gossipkit.NetConfig{
				Latency: simnet.ExponentialLatency{Floor: time.Millisecond, Mean: 3 * time.Millisecond},
				Loss:    gossipkit.BernoulliLoss(0.05),
			},
		}, 9, nil},
		{"campaign", gossipkit.Campaign{
			Scenarios: []*gossipkit.Scenario{scenario},
			Protocols: []gossipkit.ProtocolSpec{
				gossipkit.LpbcastParams{N: 60, Fanout: 3, Rounds: 6, BufferSize: 8, Events: 2, AliveRatio: 1, ViewCopies: 2},
				gossipkit.RDGParams{N: 60, Fanout: 3, PushRounds: 6, RecoveryRounds: 3, AliveRatio: 1, ViewCopies: 2, PayloadProb: 0.8},
			},
			Config: gossipkit.ScenarioRunConfig{Params: gossipkit.Params{N: 60, Fanout: gossipkit.Poisson(4), AliveRatio: 1}},
		}, 3, nil},
	}
	for _, s := range specs {
		var want *gossipkit.Outcome
		for _, o := range runpool.ClaimOrders {
			for _, workers := range []int{1, 2, 3} {
				restore := runpool.SetClaimOrder(o.Order)
				opts := append([]gossipkit.Option{gossipkit.WithSeed(2008), gossipkit.WithWorkers(workers)}, s.opts...)
				out, err := gossipkit.RunMany(context.Background(), s.spec, s.runs, opts...)
				restore()
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", s.name, o.Name, workers, err)
				}
				if want == nil {
					want = out
					continue
				}
				if !reflect.DeepEqual(out, want) {
					t.Errorf("%s: %s claims on %d workers changed the outcome:\n got  %+v\n want %+v", s.name, o.Name, workers, out, want)
				}
			}
		}
	}
}
