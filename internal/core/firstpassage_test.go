package core

import (
	"container/heap"
	"fmt"
	"testing"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/failure"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// arrival is one copy of m reaching member to at virtual time at.
type arrival struct {
	at sim.Time
	to int
}

type arrivals []arrival

func (h arrivals) Len() int           { return len(h) }
func (h arrivals) Less(i, j int) bool { return h[i].at < h[j].at }
func (h arrivals) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *arrivals) Push(x any)        { *h = append(*h, x.(arrival)) }
func (h *arrivals) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// passage is what the first-passage oracle predicts for one execution.
type passage struct {
	Result
	spread time.Duration
	first  []sim.Time // first receipt per member, -1 if never reached
}

// firstPassage computes a DES run of the paper's algorithm without an
// event queue. Member u's fanout, targets, losses and the delay of each
// copy come from u's own keyed streams (KeyRoot), the same whenever u is
// reached, so the run is a fixed weighted digraph and a member's first
// receipt is its shortest distance from the source (Dijkstra). The network
// draws a copy's loss from u's stream, then, if it survives, its delay —
// also for a copy to a failed member. lossP is a BernoulliLoss's P, 0 for
// NoLoss (which draws nothing).
func firstPassage(p Params, lat simnet.LatencyModel, lossP float64, seed uint64) passage {
	r := xrand.New(seed)
	keys := KeyRoot(r)
	var mask failure.Mask
	p.drawMaskInto(&mask, r)
	view := p.view()
	out := passage{first: make([]sim.Time, p.N)}
	out.AliveCount = mask.AliveCount()
	for i := range out.first {
		out.first[i] = -1
	}
	h := &arrivals{{0, p.Source}}
	copies := 0 // copies that reach a live member, first receipts included
	var draws, delays xrand.RNG
	var targets []int
	for h.Len() > 0 {
		a := heap.Pop(h).(arrival)
		u := a.to
		if out.first[u] >= 0 {
			continue
		}
		out.first[u] = a.at
		out.Delivered++
		out.spread = max(out.spread, a.at.Duration())
		keys.SplitInto(&draws, uint64(u))
		keys.SplitInto(&delays, uint64(u)|latencyKey)
		targets = view.SampleTargets(targets, u, p.Fanout.Sample(&draws), &draws)
		out.MessagesSent += len(targets)
		for _, v := range targets {
			alive := mask.Alive(v)
			if !alive {
				out.WastedOnFailed++
			}
			if lossP > 0 && draws.Bool(lossP) {
				continue
			}
			d := max(lat.Latency(&delays, simnet.NodeID(u), simnet.NodeID(v)), 0)
			if alive {
				copies++
				heap.Push(h, arrival{a.at.Add(d), v})
			}
		}
	}
	out.Duplicates = copies - (out.Delivered - 1)
	return out
}

// TestDESIsFirstPassage holds the DES executor to the first-passage
// oracle over TestShardInvariance's grid. The probe-off run settles the
// copies whose arrival is decided at send time (SendBefore); it must
// still count what the oracle counts and end when the oracle's last member
// is reached. The probed run queues every copy; the first delivery to each
// member in its trace must come when the oracle says. On one shard, the
// probed run fires exactly Settled more kernel events than the bare one,
// and under a constant delay, where no copy overtakes an earlier one, the
// bare run fires first receipts only: Queue.Fired = Delivered − 1.
func TestDESIsFirstPassage(t *testing.T) {
	lats := []struct {
		name string
		m    simnet.LatencyModel
	}{
		{"constant", simnet.ConstantLatency{D: 3 * time.Millisecond}},
		{"uniform", simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}},
		{"exponential", simnet.ExponentialLatency{Floor: time.Millisecond, Mean: 2 * time.Millisecond}},
	}
	arena := NewNetArena()
	var settled int64
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
			for seed := uint64(1); seed <= 5; seed++ {
				p := Params{N: n, Fanout: dist.NewPoisson(4), AliveRatio: 0.9, Source: 1, View: v.view}
				for _, lossP := range []float64{0, 0.1} {
					cfg := simnet.Config{Loss: simnet.NoLoss{}}
					if lossP > 0 {
						cfg.Loss = simnet.BernoulliLoss{P: lossP}
					}
					for _, lat := range lats {
						cfg.Latency = lat.m
						want := firstPassage(p, lat.m, lossP, seed)
						for _, k := range []int{1, 3} {
							key := fmt.Sprintf("n=%d %s seed %d loss %g %s shards=%d", n, v.name, seed, lossP, lat.name, k)
							bare, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(seed), nil, arena, nil, ShardOptions{Shards: k})
							if err != nil {
								t.Fatal(err)
							}
							settled += bare.Net.Settled
							if _, constant := lat.m.(simnet.ConstantLatency); constant && k == 1 && bare.Queue.Fired != uint64(bare.Delivered-1) {
								t.Errorf("%s: fired %d events for %d first receipts", key, bare.Queue.Fired, bare.Delivered-1)
							}
							got := bare.Result
							got.Reliability, got.Rounds = 0, 0 // the oracle computes neither
							if got != want.Result || bare.SpreadTime != want.spread {
								t.Errorf("%s: DES %+v spread %v, first passage %+v spread %v",
									key, got, bare.SpreadTime, want.Result, want.spread)
							}

							probe := obs.New(obs.Options{TraceCapacity: 1 << 16})
							probed, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(seed), nil, arena, probe, ShardOptions{Shards: k})
							if err != nil {
								t.Fatal(err)
							}
							if k == 1 && probed.Queue.Fired != bare.Queue.Fired+uint64(bare.Net.Settled) {
								t.Errorf("%s: probed run fired %d events, bare %d + Settled %d",
									key, probed.Queue.Fired, bare.Queue.Fired, bare.Net.Settled)
							}
							if probed.Net.Settled != 0 {
								t.Errorf("%s: probed run settled %d sends, want none", key, probed.Net.Settled)
							}
							m := probe.Metrics()
							if m.TraceDropped != 0 {
								t.Fatalf("%s: trace ring dropped %d events", key, m.TraceDropped)
							}
							first := make([]sim.Time, n)
							for i := range first {
								first[i] = -1
							}
							first[p.Source] = 0
							for _, e := range m.Trace {
								if e.Kind == simnet.EventDelivered && first[e.To] < 0 {
									first[e.To] = e.At
								}
							}
							for id := range first {
								if first[id] != want.first[id] {
									t.Errorf("%s: member %d first receipt %d, first passage %d", key, id, first[id], want.first[id])
									break
								}
							}
						}
					}
				}
			}
		}
	}
	if settled == 0 {
		t.Error("no run settled a send: the settle path went untested")
	}
}
