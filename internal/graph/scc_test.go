package graph

import (
	"math"
	"testing"

	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/xrand"
)

// LargestSCC is the representative and size of the largest strongly
// connected component of g over active nodes, as the searches find it.
func (s *Searcher) LargestSCC(g *Digraph, active []bool) (rep, size int) {
	rep, size, _ = s.tarjan(g, active, -1)
	return rep, size
}

func TestLargestSCCSimple(t *testing.T) {
	// 0→1→2→0 is a 3-cycle; 3→4 is acyclic.
	g := NewDigraph(5)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 0)
	g.AddArc(3, 4)
	rep, size := new(Searcher).LargestSCC(g, nil)
	if size != 3 {
		t.Fatalf("largest SCC size = %d, want 3", size)
	}
	if rep < 0 || rep > 2 {
		t.Fatalf("rep %d not in the cycle", rep)
	}
}

func TestLargestSCCAllSingletons(t *testing.T) {
	g := NewDigraph(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 3)
	_, size := new(Searcher).LargestSCC(g, nil)
	if size != 1 {
		t.Errorf("DAG largest SCC = %d, want 1", size)
	}
}

func TestLargestSCCEmptyAndMasked(t *testing.T) {
	g := NewDigraph(0)
	rep, size := new(Searcher).LargestSCC(g, nil)
	if rep != -1 || size != 0 {
		t.Errorf("empty graph: rep=%d size=%d", rep, size)
	}
	g2 := NewDigraph(3)
	g2.AddArc(0, 1)
	g2.AddArc(1, 0)
	// Masking out node 1 breaks the 2-cycle.
	_, size = new(Searcher).LargestSCC(g2, []bool{true, false, true})
	if size != 1 {
		t.Errorf("masked SCC size = %d, want 1", size)
	}
}

func TestLargestSCCTwoCycles(t *testing.T) {
	g := NewDigraph(7)
	// 2-cycle {0,1} and 4-cycle {2,3,4,5}; 6 isolated.
	g.AddArc(0, 1)
	g.AddArc(1, 0)
	g.AddArc(2, 3)
	g.AddArc(3, 4)
	g.AddArc(4, 5)
	g.AddArc(5, 2)
	rep, size := new(Searcher).LargestSCC(g, nil)
	if size != 4 || rep < 2 || rep > 5 {
		t.Errorf("rep=%d size=%d, want size 4 in {2..5}", rep, size)
	}
}

func TestLargestSCCDeepPathNoOverflow(t *testing.T) {
	// A long path plus back edge forms one huge SCC; the iterative
	// Tarjan must handle depth 200k without stack overflow.
	const n = 200000
	g := NewDigraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddArc(i, i+1)
	}
	g.AddArc(n-1, 0)
	_, size := new(Searcher).LargestSCC(g, nil)
	if size != n {
		t.Errorf("giant cycle SCC = %d, want %d", size, n)
	}
}

func TestFiltered(t *testing.T) {
	g := NewDigraph(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 3)
	var f Digraph
	g.filterInto(&f, []bool{true, true, false, true})
	if f.Arcs() != 1 || f.N() != 4 {
		t.Errorf("filtered arcs = %d over %d nodes, want 1 (0→1) over 4", f.Arcs(), f.N())
	}
}

func TestLargestOutComponentDAG(t *testing.T) {
	// Star out of node 0: out-component from any probe containing 0
	// covers everything.
	g := NewDigraph(5)
	for i := 1; i < 5; i++ {
		g.AddArc(0, i)
	}
	got := LargestOutComponent(g, nil, []int{0})
	if got != 5 {
		t.Errorf("out-component = %d, want 5", got)
	}
	// Probing only a leaf finds just itself.
	got = LargestOutComponent(g, nil, []int{3})
	if got != 1 {
		t.Errorf("leaf probe = %d, want 1", got)
	}
}

func TestLargestOutComponentUsesSCC(t *testing.T) {
	// Cycle {0,1,2} feeding into 3→4: out-component = 5, regardless of
	// probes.
	g := NewDigraph(6)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 0)
	g.AddArc(2, 3)
	g.AddArc(3, 4)
	// node 5 isolated
	got := LargestOutComponent(g, nil, []int{5})
	if got != 5 {
		t.Errorf("out-component = %d, want 5", got)
	}
}

func TestGiantOutComponentMatchesEq11(t *testing.T) {
	// The bridge test for the figure semantics: the giant out-component
	// of a directed gossip graph with Poisson(z) fanout over alive
	// fraction q must match S = 1 − e^{−zqS}.
	const n = 20000
	z, q := 4.0, 0.9
	r := xrand.New(5)
	p := dist.NewPoisson(z)
	active := make([]bool, n)
	alive := 0
	for i := range active {
		if r.Bool(q) {
			active[i] = true
			alive++
		}
	}
	g := NewDigraph(n)
	buf := make([]int, 0, 16)
	for u := 0; u < n; u++ {
		if !active[u] {
			continue
		}
		f := p.Sample(r)
		buf = r.SampleExcluding(buf, n, f, u)
		for _, v := range buf {
			if active[v] {
				g.AddArc(u, v)
			}
		}
	}
	probes := make([]int, 64)
	for i := range probes {
		probes[i] = r.Intn(n)
	}
	giant := LargestOutComponent(g, nil, probes)
	got := float64(giant) / float64(alive)
	want, err := genfunc.PoissonReliability(z, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.01 {
		t.Errorf("giant out-component %.4f, Eq.11 %.4f", got, want)
	}
}

func BenchmarkLargestSCCGossip5000(b *testing.B) {
	r := xrand.New(1)
	g := GossipGraph(5000, dist.NewPoisson(4), r)
	s := new(Searcher) // pooled, as the Monte-Carlo loop holds it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LargestSCC(g, nil)
	}
}
