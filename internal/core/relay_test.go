package core_test

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/protocols"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// TestShardedRelayExhaustive checks the properties of the crash-fault
// reliable-broadcast model (SNIPPETS.md, Veil's bcastFolklore) on every
// DES front end that forwards to the whole group, exhaustively at n = 6:
// the paper's algorithm at fanout n−1 on one, two and three shards and the
// flooding baseline on the protocol runtime, under 1–5 ms latency without
// loss, for each of the 2⁶ crash subsets (the source included) injected
// through the NetRun seam before the first delivery (t = 0) and
// mid-flight (t = 3 ms). At quiescence:
//
//   - Relay: if any member still up holds m, every member still up does.
//   - Correctness: if the source stayed up, every member still up holds m.
//   - Exactly-once, as a conservation identity: every wire delivery is a
//     first receipt or a counted duplicate, and there is no receipt
//     without a send — Net.Delivered = (Delivered − 1) + Duplicates, the
//     source's own copy being the one that never crossed the wire.
func TestShardedRelayExhaustive(t *testing.T) {
	const n = 6
	netCfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}}
	type frontEnd struct {
		name string
		run  func(r *xrand.RNG, inject func(*core.NetRun)) (core.NetResult, error)
	}
	arena := core.NewNetArena()
	ends := []frontEnd{{"flooding", func(r *xrand.RNG, inject func(*core.NetRun)) (core.NetResult, error) {
		out, err := protocols.RunOnDES(protocols.FloodingParams{N: n, AliveRatio: 1},
			protocols.DESConfig{Net: netCfg}, r, inject, arena)
		return out.NetResult, err
	}}}
	for _, k := range []int{1, 2, 3} {
		ends = append(ends, frontEnd{fmt.Sprintf("paper/shards=%d", k), func(r *xrand.RNG, inject func(*core.NetRun)) (core.NetResult, error) {
			p := core.Params{N: n, Fanout: dist.NewFixed(n - 1), AliveRatio: 1}
			return core.ExecuteOnNetworkSharded(p, netCfg, r, inject, arena, nil, core.ShardOptions{Shards: k})
		}})
	}
	for _, fe := range ends {
		for _, at := range []time.Duration{0, 3 * time.Millisecond} {
			for crashed := uint(0); crashed < 1<<n; crashed++ {
				for seed := uint64(1); seed <= 3; seed++ {
					res, err := fe.run(xrand.New(seed), func(nr *core.NetRun) {
						nr.Kernel.At(sim.Time(at), func() {
							for id := 0; id < n; id++ {
								if crashed>>id&1 == 1 {
									nr.Net.Crash(simnet.NodeID(id))
								}
							}
						})
					})
					label := fmt.Sprintf("%s crash %06b at %v seed %d", fe.name, crashed, at, seed)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if up := n - bits.OnesCount(crashed); res.UpAtEnd != up {
						t.Fatalf("%s: %d members up at the end, want %d", label, res.UpAtEnd, up)
					}
					if res.DeliveredUp != 0 && res.DeliveredUp != res.UpAtEnd {
						t.Errorf("%s: relay: %d of %d up members hold m", label, res.DeliveredUp, res.UpAtEnd)
					}
					if crashed&1 == 0 && res.DeliveredUp != res.UpAtEnd {
						t.Errorf("%s: correctness: source up, yet %d of %d up members hold m", label, res.DeliveredUp, res.UpAtEnd)
					}
					if got, want := res.Net.Delivered, int64(res.Delivered-1+res.Duplicates); got != want {
						t.Errorf("%s: exactly-once: %d wire deliveries, %d first receipts + duplicates", label, got, want)
					}
				}
			}
		}
	}
}
