package protocols

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// TestDESFaultsDegradeBaselines: the point of the substrate refactor — the
// network's failure machinery now applies to the baselines. Loss thins a
// fixed-round pbcast spread; a crash wave mid-run removes deliveries
// flooding would otherwise make.
func TestDESFaultsDegradeBaselines(t *testing.T) {
	p := PbcastParams{N: 800, Fanout: 2, Rounds: 5, AliveRatio: 1}
	clean, err := RunOnDES(p, DESConfig{}, xrand.New(7), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := RunOnDES(p, DESConfig{Net: simnet.Config{Loss: simnet.BernoulliLoss{P: 0.5}}},
		xrand.New(7), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Reliability >= clean.Reliability {
		t.Errorf("50%% loss did not degrade pbcast: %.4f clean vs %.4f lossy",
			clean.Reliability, lossy.Reliability)
	}
	if lossy.Net.DroppedLoss == 0 {
		t.Error("loss model never fired")
	}

	// A mid-run crash of half the group (injected through the NetRun seam,
	// exactly as scenario campaigns do) must strand survivors' deliveries.
	fl := FloodingParams{N: 400, AliveRatio: 1}
	crashed, err := RunOnDES(fl, DESConfig{Net: simnet.Config{Latency: simnet.ConstantLatency{D: 2 * time.Millisecond}}},
		xrand.New(3), func(nr *core.NetRun) {
			nr.Kernel.At(1e6, func() { // 1ms: after the source blast, before delivery
				for id := 200; id < 400; id++ {
					nr.Net.Crash(simnet.NodeID(id))
				}
			})
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.UpAtEnd != 200 {
		t.Fatalf("up at end %d, want 200", crashed.UpAtEnd)
	}
	if crashed.Delivered >= 400 || crashed.SurvivorReliability != 1 {
		t.Errorf("crash wave: delivered %d, survivor reliability %.4f",
			crashed.Delivered, crashed.SurvivorReliability)
	}
	if crashed.Net.DroppedCrash == 0 {
		t.Error("no deliveries were dropped at crashed members")
	}
}

// TestDESPartitionBlocksAntiEntropy: a partition installed mid-run stops
// cross-side exchanges until the protocol quiesces; healing is out of
// scope here (the scenario engine tests it end to end).
func TestDESPartitionBlocksAntiEntropy(t *testing.T) {
	p := AntiEntropyParams{N: 200, Rounds: 0, Mode: PushPull, AliveRatio: 1}
	out, err := RunOnDES(p, DESConfig{}, xrand.New(5), func(nr *core.NetRun) {
		// Isolate the top half (source 0 is in the bottom) from t=0.
		nr.Net.SetPartition(simnet.SplitPartition(func(id simnet.NodeID) bool {
			return int(id) >= 100
		}))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered > 100 {
		t.Errorf("partitioned anti-entropy delivered %d members, want <= 100", out.Delivered)
	}
	if out.Net.DroppedPart == 0 {
		t.Error("partition never dropped a message")
	}
}

// TestAntiEntropyReachesEveryCorrectMember is the external oracle for the
// until-quiescent mode (Rounds: 0): Doerr et al. prove fault-tolerant
// push-pull informs every correct member in O(log n) rounds, and push and
// pull alone do so too once the lone-source and lone-straggler phases are
// waited out. Every mode, at every alive ratio and size, on every seed, must
// deliver to all alive members within c·log₂ n rounds plus the patience a
// run is allowed to idle (aePatience). c = 6 is 1.5× the slowest run
// measured (push and pull at q = 0.5: mean 3·log₂ n, maximum 4·log₂ n).
func TestAntiEntropyReachesEveryCorrectMember(t *testing.T) {
	const c = 6
	seeds := uint64(100)
	if testing.Short() {
		seeds = 20
	}
	for _, mode := range []Mode{Push, Pull, PushPull} {
		for _, q := range []float64{1, 0.7, 0.5} {
			for _, n := range []int{256, 4096} {
				t.Run(fmt.Sprintf("%v/q=%g/n=%d", mode, q, n), func(t *testing.T) {
					t.Parallel()
					bound := c*bits.Len(uint(n-1)) + aePatience(n)
					p := AntiEntropyParams{N: n, Rounds: 0, Mode: mode, AliveRatio: q}
					arena := core.NewNetArena()
					for seed := uint64(0); seed < seeds; seed++ {
						out, err := RunOnDES(p, DESConfig{}, xrand.New(seed), nil, arena)
						if err != nil {
							t.Fatal(err)
						}
						if out.Reliability != 1 {
							t.Errorf("seed %d: reached %d of %d alive members in %d rounds",
								seed, out.Delivered, out.AliveCount, out.Rounds)
						}
						if out.Rounds > bound {
							t.Errorf("seed %d: %d rounds, want <= %d", seed, out.Rounds, bound)
						}
					}
				})
			}
		}
	}
}

// TestDESPublishSeam: the NetRun publish hook (flash crowds, re-gossip
// waves) reaches every machine.
func TestDESPublishSeam(t *testing.T) {
	for _, tc := range desEquivCases() {
		t.Run(tc.name, func(t *testing.T) {
			published := 0
			out, err := RunOnDES(tc.spec, DESConfig{}, xrand.New(11), func(nr *core.NetRun) {
				nr.Kernel.At(0, func() {
					for id := 1; id < 20; id++ {
						if nr.Net.Up(simnet.NodeID(id)) && nr.Restartable(id) {
							nr.Publish(id)
							published++
						}
					}
				})
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if published == 0 {
				t.Skip("no publishable members under this mask")
			}
			if out.Delivered < published {
				t.Errorf("delivered %d < %d published members", out.Delivered, published)
			}
		})
	}
}

// TestDESArenaNeutral: recycling one arena across heterogeneous protocol
// runs is result-neutral (the same guarantee core's sweeps rely on).
func TestDESArenaNeutral(t *testing.T) {
	arena := core.NewNetArena()
	for _, tc := range desEquivCases() {
		fresh, err := RunOnDES(tc.spec, DESConfig{}, xrand.New(31), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := RunOnDES(tc.spec, DESConfig{}, xrand.New(31), nil, arena)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.NetResult != pooled.NetResult {
			t.Errorf("%s: pooled run diverged from fresh run", tc.name)
		}
	}
}

// BenchmarkProtocolOnDES is the CI smoke benchmark for the protocol-on-DES
// hot path with a warm arena: the five specs of the bench's compare grid at
// n=10³ — one `go test -bench` shows the spread across protocols that
// `protocols.*_us_per_run` reports, which is SCAMP random-walk hops: lpbcast
// and RDG build and shuffle fresh partial views every run, the others
// build none — plus pbcast at n=10⁴. The arena carries no view memo, so
// every run builds, as every run outside a comparison sweep does (inside
// one, the sweep's memo spares the RDG row the lpbcast row's builds). The
// lpbcast and RDG subs fail above maxMallocs warm mallocs per run: they
// measure 12,834 (one snapshot and one box per forward, two buffer growths
// per member) and 47, and made 63,760 and 32,791 when views, shuffle
// picks, samples, the per-member seen-maps and the per-target payloads
// were all heap objects.
func BenchmarkProtocolOnDES(b *testing.B) {
	const n = 1000
	for _, bc := range []struct {
		name       string
		spec       Spec
		maxMallocs uint64 // 0: not gated
	}{
		{"pbcast/n=1000", PbcastParams{N: n, Fanout: 4, Rounds: 10, AliveRatio: 1}, 0},
		{"lpbcast/n=1000", LpbcastParams{N: n, Fanout: 4, Rounds: 10, BufferSize: 8, Events: 3, AliveRatio: 1, ViewCopies: 2}, 16000},
		{"antientropy/n=1000", AntiEntropyParams{N: n, Rounds: 10, Mode: PushPull, AliveRatio: 1}, 0},
		{"rdg/n=1000", RDGParams{N: n, Fanout: 4, PushRounds: 10, RecoveryRounds: 5, AliveRatio: 1, ViewCopies: 2, PayloadProb: 0.8}, 70},
		{"lrg/n=1000", LRGParams{N: n, Degree: 6, GossipProb: 0.8, RepairRounds: 5, AliveRatio: 1}, 0},
		{"pbcast/n=10000", PbcastParams{N: 10 * n, Fanout: 4, Rounds: 12, AliveRatio: 0.9}, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			arena := core.NewNetArena()
			r := xrand.New(1)
			run := func() int {
				out, err := RunOnDES(bc.spec, DESConfig{}, r, nil, arena)
				if err != nil {
					b.Fatal(err)
				}
				return out.MessagesSent
			}
			run() // warm the arena
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			msgs := 0
			for i := 0; i < b.N; i++ {
				msgs += run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/sec")
			perRun := (after.Mallocs - before.Mallocs) / uint64(b.N)
			if bc.maxMallocs > 0 && perRun > bc.maxMallocs {
				b.Fatalf("%d mallocs per warm run, gate %d", perRun, bc.maxMallocs)
			}
		})
	}
}
