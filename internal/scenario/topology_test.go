package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/golden"
	"gossipkit/internal/topology"
)

// topoRunConfig is the shared base config of the topology pinning suite:
// small enough that 25-seed matrices stay fast, big enough that overlay
// structure matters.
func topoRunConfig() RunConfig {
	return RunConfig{
		Params: core.Params{N: 250, Fanout: dist.NewPoisson(5), AliveRatio: 1},
	}
}

func topoScenario(t *testing.T) *Scenario {
	t.Helper()
	s, ok := ByName("crash-wave")
	if !ok {
		t.Fatal("bundled crash-wave scenario missing")
	}
	return s
}

func reportJSON(t *testing.T, rep RunReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTopologyUniformByteIdentical: the zero (uniform) topology spec is
// byte-identical to a config that never mentions topology — same reports,
// same JSON, no corrected_prediction field — across a 25-seed matrix. This
// is the facade-wide no-regression guarantee: all pre-topology goldens
// hold because the uniform path is literally untouched.
func TestTopologyUniformByteIdentical(t *testing.T) {
	s := topoScenario(t)
	for seed := uint64(0); seed < 25; seed++ {
		base := topoRunConfig()
		rep, err := Run(s, base, seed)
		if err != nil {
			t.Fatal(err)
		}
		withSpec := topoRunConfig()
		withSpec.Topology = topology.Spec{} // explicit uniform
		rep2, err := Run(s, withSpec, seed)
		if err != nil {
			t.Fatal(err)
		}
		a, b := reportJSON(t, rep), reportJSON(t, rep2)
		if a != b {
			t.Fatalf("seed %d: uniform topology diverged from the no-topology path\n got: %s\nwant: %s", seed, b, a)
		}
		if strings.Contains(a, "corrected_prediction") {
			t.Fatalf("seed %d: uniform report leaks corrected_prediction: %s", seed, a)
		}
	}
}

// TestTopologyPinnedAcrossRepeats: a fixed (topology, seed) pair is
// byte-identical across repeated runs, for every overlay family, across a
// 25-seed matrix — the overlay is generated from a non-consuming split of
// the run stream, so nothing about run order or reuse can perturb it.
func TestTopologyPinnedAcrossRepeats(t *testing.T) {
	s := topoScenario(t)
	for _, spec := range []string{"kout:6", "ba:3", "wan:4"} {
		topo, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 25; seed++ {
			cfg := topoRunConfig()
			cfg.Topology = topo
			first, err := Run(s, cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec, seed, err)
			}
			again, err := Run(s, cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec, seed, err)
			}
			if a, b := reportJSON(t, first), reportJSON(t, again); a != b {
				t.Fatalf("%s seed %d: repeat diverged\n got: %s\nwant: %s", spec, seed, b, a)
			}
			if first.CorrectedPrediction <= 0 || first.CorrectedPrediction > 1 {
				t.Fatalf("%s seed %d: corrected prediction %g outside (0,1]", spec, seed, first.CorrectedPrediction)
			}
		}
	}
}

// TestTopologyPinnedAcrossWorkers: the sweep aggregate over a 25-seed
// matrix is byte-identical for any worker count, for every overlay family.
func TestTopologyPinnedAcrossWorkers(t *testing.T) {
	s := topoScenario(t)
	for _, spec := range []string{"kout:6", "wan:4"} {
		topo, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		run := topoRunConfig()
		run.Topology = topo
		var first string
		for _, workers := range []int{1, 4} {
			res, err := sweepView([]*Scenario{s}, Axes{
				Run: run, Seeds: 25, BaseSeed: 2008, Workers: workers,
			}, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec, workers, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if first == "" {
				first = string(b)
			} else if string(b) != first {
				t.Fatalf("%s: workers=%d sweep diverged from workers=1", spec, workers)
			}
		}
	}
}

// TestTopologyPinnedAcrossShards pins the shard-count contract with an
// overlay in play: a fixed (topology, seed, shards) run is byte-identical
// on repeat, and shards=2 gives shards=1's report run for run but for the
// last bits of the latency mean — overlay, campaign and predictions
// included.
func TestTopologyPinnedAcrossShards(t *testing.T) {
	s := topoScenario(t)
	for _, spec := range []string{"kout:6", "wan:4"} {
		topo, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 25; seed++ {
			var reps [2]RunReport
			for i, shards := range []int{1, 2} {
				cfg := topoRunConfig()
				cfg.Topology = topo
				cfg.Shards = shards
				rep, err := Run(s, cfg, seed)
				if err != nil {
					t.Fatalf("%s seed %d shards=%d: %v", spec, seed, shards, err)
				}
				again, err := Run(s, cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := reportJSON(t, rep), reportJSON(t, again); a != b {
					t.Fatalf("%s seed %d shards=%d: repeat diverged", spec, seed, shards)
				}
				reps[i] = rep
			}
			if cp := reps[0].CorrectedPrediction; cp <= 0 || cp > 1 {
				t.Fatalf("%s seed %d: corrected prediction %g outside (0,1]", spec, seed, cp)
			}
			golden.Equal(t, fmt.Sprintf("%s seed %d shards=2", spec, seed), reps[1], reps[0], "Latency.MeanMs")
		}
	}
}

// TestTopologyKOutConvergesToUniform: at k = n−1 the k-out overlay is the
// complete digraph, so its measured reliability over a 25-seed matrix must
// match the uniform full-view baseline within statistical tolerance (the
// RNG streams differ — only the distribution is pinned).
func TestTopologyKOutConvergesToUniform(t *testing.T) {
	s := topoScenario(t)
	run := topoRunConfig()
	n := run.Params.N

	// The per-seed reliability under the crash wave is noisy (stddev ~0.1),
	// so the convergence comparison runs a wider 100-seed matrix: the
	// standard error of each mean is ~0.01, making 0.04 a ~3σ gate.
	mean := func(topo topology.Spec) float64 {
		cfg := run
		cfg.Topology = topo
		res, err := sweepView([]*Scenario{s}, Axes{Run: cfg, Seeds: 100, BaseSeed: 7}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Scenarios[0].Reliability.Mean
	}
	uniform := mean(topology.Spec{})
	full := mean(topology.Spec{Kind: topology.KOut, K: n - 1})
	if diff := math.Abs(full - uniform); diff > 0.04 {
		t.Fatalf("k-out at k=n-1 reliability %.4f vs uniform %.4f (|diff| %.4f > 0.04)", full, uniform, diff)
	}
	// Sanity on the other end: a sparse overlay under the crash wave must
	// not beat the full view (it can only lose arcs).
	sparse := mean(topology.Spec{Kind: topology.KOut, K: 3})
	if sparse > uniform+0.04 {
		t.Fatalf("k-out at k=3 reliability %.4f implausibly above uniform %.4f", sparse, uniform)
	}
}
