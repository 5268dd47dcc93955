package graph

import (
	"fmt"
	"testing"

	"gossipkit/internal/dist"
	"gossipkit/internal/xrand"
)

// refOutComponentReach is what OutComponentReach fuses: the oracle's giant
// out-component plus a separate breadth-first reach from src.
func refOutComponentReach(g *refDigraph, probes []int, src int) (giant, reach int) {
	return refLargestOutComponent(g, nil, probes), newRefBFS(g.N()).Reachable(g, src, nil)
}

// holdReachToReference checks OutComponentReach on a fresh and on a pooled
// Searcher against the oracle, and against the two separate searches it
// replaces.
func holdReachToReference(t *testing.T, name string, tw twin, s *Searcher, probes []int, src int) (giant, reach int) {
	t.Helper()
	wantG, wantR := refOutComponentReach(tw.ref, probes, src)
	if g, r := new(Searcher).OutComponentReach(tw.g, probes, src); g != wantG || r != wantR {
		t.Fatalf("%s: OutComponentReach = (%d, %d), reference (%d, %d)", name, g, r, wantG, wantR)
	}
	if g, r := s.OutComponentReach(tw.g, probes, src); g != wantG || r != wantR {
		t.Fatalf("%s: pooled OutComponentReach = (%d, %d), reference (%d, %d)", name, g, r, wantG, wantR)
	}
	if g, r := s.LargestOutComponent(tw.g, nil, probes), s.Reachable(tw.g, src, nil); g != wantG || r != wantR {
		t.Fatalf("%s: separate searches = (%d, %d), reference (%d, %d)", name, g, r, wantG, wantR)
	}
	return wantG, wantR
}

// TestOutComponentReachMatchesReference holds the fused search to the
// adjacency-list oracle on 10,200 gossip graphs drawn the way a
// giant-component replication draws them — members alive with probability
// q, each alive member sending to Poisson(f) distinct others, arcs kept
// between alive members only, the source alive and first among 64 probes —
// at n ∈ {17, 200, 5000}, q ∈ {0.05, 0.1, 0.3, 0.5, 1} and f on both sides
// of the critical fanout 1/q, so both the SCC path and the subcritical
// probe fallback run.
func TestOutComponentReachMatchesReference(t *testing.T) {
	graphs := map[int]int{17: 300, 200: 200, 5000: 10}
	s := new(Searcher)
	var targets []int
	total := 0
	for _, n := range []int{17, 200, 5000} {
		for _, q := range []float64{0.05, 0.1, 0.3, 0.5, 1} {
			for _, fq := range []float64{0.5, 0.9, 1.1, 2} {
				f := dist.NewPoisson(fq / q)
				r := xrand.New(uint64(n)*1000 + uint64(q*100)*10 + uint64(fq*10))
				for k := 0; k < graphs[n]; k++ {
					src := r.Intn(n)
					alive := make([]bool, n)
					for u := range alive {
						alive[u] = u == src || r.Bool(q)
					}
					tw := newTwin(n)
					for u := 0; u < n; u++ {
						if !alive[u] {
							continue
						}
						targets = r.SampleExcluding(targets, n, f.Sample(r), u)
						for _, v := range targets {
							if alive[v] {
								tw.addArc(u, v)
							}
						}
					}
					probes := []int{src}
					for len(probes) < 64 {
						if c := r.Intn(n); alive[c] {
							probes = append(probes, c)
						}
					}
					holdReachToReference(t, fmt.Sprintf("n=%d q=%g f=%g graph %d", n, q, fq/q, k), tw, s, probes, src)
					total++
				}
			}
		}
	}
	if total < 10_000 {
		t.Fatalf("compared %d graphs, want at least 10,000", total)
	}
}

// TestOutComponentReachCases covers the shapes the fused search branches
// on, each with its expected (giant, reach) as well as the oracle's.
func TestOutComponentReachCases(t *testing.T) {
	build := func(n int, arcs ...[2]int) twin {
		tw := newTwin(n)
		for _, a := range arcs {
			tw.addArc(a[0], a[1])
		}
		return tw
	}
	// Two 3-cycles of equal size, the first feeding the second: Tarjan
	// emits {3, 4, 5} first, so it is the largest SCC and the giant is 3.
	twoEqual := build(7, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{2, 3},
		[2]int{3, 4}, [2]int{4, 5}, [2]int{5, 3})
	// A 4-cycle giant with a tail 4 → 5 → 6, a 2-cycle {7, 8} feeding it
	// and a sink 9 that nothing reaches.
	tail := build(10, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0}, [2]int{3, 4},
		[2]int{4, 5}, [2]int{5, 6}, [2]int{7, 8}, [2]int{8, 7}, [2]int{8, 0})
	// A DAG: every SCC trivial, so the probes decide.
	dag := build(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{4, 3})
	cases := []struct {
		name         string
		tw           twin
		probes       []int
		src          int
		giant, reach int
	}{
		{"equal largest SCCs, source in the unchosen one", twoEqual, []int{0}, 0, 3, 6},
		{"equal largest SCCs, source in the chosen one", twoEqual, []int{0}, 4, 3, 3},
		{"source is an isolated sink", twoEqual, []int{6}, 6, 3, 1},
		{"source is a sink below the giant", tail, []int{6}, 6, 7, 1},
		{"source is a sink nothing reaches", tail, []int{9}, 9, 7, 1},
		{"source in a smaller SCC", tail, []int{7}, 7, 7, 9},
		{"source in out(C), not in C", tail, []int{4}, 4, 7, 3},
		{"source in C", tail, []int{2}, 2, 7, 7},
		{"subcritical, source first among the probes", dag, []int{4, 0, 5}, 4, 4, 2},
		{"subcritical, source not a probe", dag, []int{0}, 1, 4, 3},
		{"subcritical, source a sink", dag, []int{5, 1}, 3, 3, 1},
		{"subcritical, no valid probe", dag, []int{-1, 6}, 2, 1, 2},
		{"no arcs", build(5), []int{2, 0}, 2, 1, 1},
		{"no arcs, no probes", build(5), nil, 4, 1, 1},
	}
	s := new(Searcher)
	for _, c := range cases {
		g, r := holdReachToReference(t, c.name, c.tw, s, c.probes, c.src)
		if g != c.giant || r != c.reach {
			t.Errorf("%s: (giant, reach) = (%d, %d), want (%d, %d)", c.name, g, r, c.giant, c.reach)
		}
	}
}
