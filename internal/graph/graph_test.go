package graph

import (
	"math"
	"testing"
	"testing/quick"

	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/xrand"
)

func path(n int) *Digraph {
	g := NewDigraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddArc(i, i+1)
	}
	return g
}

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(3)
	if g.N() != 3 || g.Arcs() != 0 {
		t.Fatalf("fresh graph: N=%d arcs=%d", g.N(), g.Arcs())
	}
	g.AddArc(0, 1)
	g.AddArc(0, 2)
	g.AddArc(1, 2)
	if g.Arcs() != 3 {
		t.Errorf("arcs = %d, want 3", g.Arcs())
	}
	if len(g.Out(0)) != 2 || len(g.Out(2)) != 0 {
		t.Errorf("out-degrees wrong: %d %d", len(g.Out(0)), len(g.Out(2)))
	}
	if len(g.Out(1)) != 1 || g.Out(1)[0] != 2 {
		t.Errorf("Out(1) = %v", g.Out(1))
	}
}

func TestNewDigraphNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDigraph(-1)
}

func TestBFSPath(t *testing.T) {
	g := path(10)
	b := new(Searcher)
	if got := b.Reachable(g, 0, nil); got != 10 {
		t.Errorf("reach from head = %d, want 10", got)
	}
	if got := b.Reachable(g, 5, nil); got != 5 {
		t.Errorf("reach from middle = %d, want 5", got)
	}
	if got := b.Reachable(g, 9, nil); got != 1 {
		t.Errorf("reach from tail = %d, want 1", got)
	}
}

func TestBFSReuseAcrossRuns(t *testing.T) {
	g := path(100)
	b := new(Searcher)
	// Interleave searches; epochs must isolate them.
	for i := 0; i < 50; i++ {
		if got := b.Reachable(g, i, nil); got != 100-i {
			t.Fatalf("run %d: reach = %d, want %d", i, got, 100-i)
		}
	}
}

func TestBFSVisitCallback(t *testing.T) {
	g := NewDigraph(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	// node 3 unreachable
	b := new(Searcher)
	var seen []int
	b.Reachable(g, 0, func(n int) { seen = append(seen, n) })
	if len(seen) != 3 {
		t.Fatalf("visited %v", seen)
	}
	if seen[0] != 0 {
		t.Errorf("BFS must visit source first: %v", seen)
	}
}

func TestBFSCycle(t *testing.T) {
	g := NewDigraph(3)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 0)
	b := new(Searcher)
	if got := b.Reachable(g, 0, nil); got != 3 {
		t.Errorf("cycle reach = %d", got)
	}
}

func TestBFSSelfLoopAndParallel(t *testing.T) {
	g := NewDigraph(2)
	g.AddArc(0, 0)
	g.AddArc(0, 1)
	g.AddArc(0, 1)
	b := new(Searcher)
	if got := b.Reachable(g, 0, nil); got != 2 {
		t.Errorf("reach = %d, want 2", got)
	}
}

func TestBFSSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var b BFS
	b.fit(3)
	b.Reachable(NewDigraph(4), 0, nil)
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Components() != 5 {
		t.Fatalf("fresh components = %d", uf.Components())
	}
	if !uf.Union(0, 1) {
		t.Error("first union reported no-op")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union reported merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 2)
	if uf.Components() != 2 {
		t.Errorf("components = %d, want 2", uf.Components())
	}
	if !uf.Connected(1, 3) {
		t.Error("1 and 3 should be connected")
	}
	if uf.Connected(0, 4) {
		t.Error("0 and 4 should not be connected")
	}
	if uf.ComponentSize(3) != 4 {
		t.Errorf("component size = %d, want 4", uf.ComponentSize(3))
	}
	size, rep := uf.LargestComponent()
	if size != 4 || !uf.Connected(rep, 0) {
		t.Errorf("largest = (%d, %d)", size, rep)
	}
}

func TestUnionFindQuickProperty(t *testing.T) {
	// Union-find connectivity must match a naive label array.
	f := func(ops []uint16) bool {
		const n = 32
		uf := NewUnionFind(n)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		for _, op := range ops {
			x, y := int(op>>8)%n, int(op&0xff)%n
			uf.Union(x, y)
			lx, ly := labels[x], labels[y]
			if lx != ly {
				for i := range labels {
					if labels[i] == ly {
						labels[i] = lx
					}
				}
			}
		}
		comps := map[int]int{}
		for i := 0; i < n; i++ {
			comps[labels[i]]++
			for j := 0; j < n; j++ {
				if (labels[i] == labels[j]) != uf.Connected(i, j) {
					return false
				}
			}
		}
		if uf.Components() != len(comps) {
			return false
		}
		for i := 0; i < n; i++ {
			if uf.ComponentSize(i) != comps[labels[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUndirectedComponentsSimple(t *testing.T) {
	g := NewDigraph(6)
	g.AddArc(0, 1) // directed arc counts as undirected edge
	g.AddArc(2, 1)
	g.AddArc(3, 4)
	// node 5 isolated
	st := UndirectedComponents(g, nil)
	if st.Count != 3 {
		t.Errorf("components = %d, want 3", st.Count)
	}
	if st.Largest != 3 || st.SecondLargest != 2 {
		t.Errorf("largest/second = %d/%d, want 3/2", st.Largest, st.SecondLargest)
	}
	// Mean experienced size: (3*3 + 2*2 + 1*1)/6 = 14/6.
	if math.Abs(st.MeanSize-14.0/6) > 1e-12 {
		t.Errorf("mean size = %g, want %g", st.MeanSize, 14.0/6)
	}
}

func TestUndirectedComponentsWithMask(t *testing.T) {
	g := NewDigraph(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 3)
	active := []bool{true, false, true, true}
	st := UndirectedComponents(g, active)
	if st.Nodes != 3 {
		t.Errorf("active nodes = %d", st.Nodes)
	}
	// Removing node 1 disconnects 0 from {2,3}.
	if st.Count != 2 || st.Largest != 2 {
		t.Errorf("count=%d largest=%d, want 2/2", st.Count, st.Largest)
	}
}

func TestUndirectedComponentsEmpty(t *testing.T) {
	g := NewDigraph(3)
	st := UndirectedComponents(g, []bool{false, false, false})
	if st.Nodes != 0 || st.Count != 0 || st.Largest != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestGossipGraphDegrees(t *testing.T) {
	r := xrand.New(101)
	n := 2000
	p := dist.NewPoisson(4)
	g := GossipGraph(n, p, r)
	// Mean out-degree must approximate the fanout mean.
	mean := float64(g.Arcs()) / float64(n)
	if math.Abs(mean-4) > 0.2 {
		t.Errorf("mean out-degree %.3f, want ~4", mean)
	}
	// No self-targets, no duplicate targets per node.
	for u := 0; u < n; u++ {
		seen := map[int32]bool{}
		for _, v := range g.Out(u) {
			if int(v) == u {
				t.Fatalf("self arc at %d", u)
			}
			if seen[v] {
				t.Fatalf("duplicate target %d from %d", v, u)
			}
			seen[v] = true
		}
	}
}

func TestGossipGraphFixedFanout(t *testing.T) {
	r := xrand.New(7)
	g := GossipGraph(50, dist.NewFixed(3), r)
	for u := 0; u < 50; u++ {
		if len(g.Out(u)) != 3 {
			t.Fatalf("node %d out-degree %d, want 3", u, len(g.Out(u)))
		}
	}
}

func TestGossipGraphFanoutExceedsGroup(t *testing.T) {
	r := xrand.New(9)
	g := GossipGraph(5, dist.NewFixed(100), r)
	for u := 0; u < 5; u++ {
		if len(g.Out(u)) != 4 {
			t.Fatalf("node %d out-degree %d, want 4 (all others)", u, len(g.Out(u)))
		}
	}
}

func TestConfigurationModelDegreesPreserved(t *testing.T) {
	r := xrand.New(11)
	degrees := []int{3, 2, 2, 1, 0, 4}
	g := ConfigurationModel(degrees, r)
	// Total degree is even (12) → arcs = 12 (each edge stored twice).
	if g.Arcs() != 12 {
		t.Errorf("arcs = %d, want 12", g.Arcs())
	}
	for i, d := range degrees {
		if len(g.Out(i)) != d {
			t.Errorf("node %d degree %d, want %d", i, len(g.Out(i)), d)
		}
	}
}

func TestConfigurationModelOddTotal(t *testing.T) {
	r := xrand.New(13)
	g := ConfigurationModel([]int{1, 1, 1}, r)
	// One stub dropped: exactly one edge = two arcs.
	if g.Arcs() != 2 {
		t.Errorf("arcs = %d, want 2", g.Arcs())
	}
}

func TestConfigurationModelGiantMatchesTheory(t *testing.T) {
	// The empirical giant component of a Poisson configuration model must
	// match the generating-function prediction. This is the key bridge
	// between internal/graph and internal/genfunc.
	const n = 30000
	z := 3.0
	r := xrand.New(17)
	p := dist.NewPoisson(z)
	degrees := drawDegrees(n, p, r)
	g := ConfigurationModel(degrees, r)
	st := UndirectedComponents(g, nil)
	want, err := genfunc.New(p).Reliability(1)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(st.Largest) / float64(n)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("giant fraction %.4f, theory %.4f", got, want)
	}
	// Second-largest must be far smaller (paper's phase-transition point:
	// other components are O(n^{2/3}) at most).
	if st.SecondLargest > st.Largest/10 {
		t.Errorf("second largest %d vs largest %d", st.SecondLargest, st.Largest)
	}
}

func TestConfigurationModelSitePercolation(t *testing.T) {
	// Deleting each node independently with prob 1-q must reproduce the
	// Callaway site-percolation reliability (normalized by alive nodes).
	const n = 30000
	z, q := 4.0, 0.6
	r := xrand.New(19)
	p := dist.NewPoisson(z)
	g := ConfigurationModel(drawDegrees(n, p, r), r)
	active := make([]bool, n)
	alive := 0
	for i := range active {
		if r.Bool(q) {
			active[i] = true
			alive++
		}
	}
	st := UndirectedComponents(g, active)
	want, err := genfunc.New(p).Reliability(q)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(st.Largest) / float64(alive)
	if math.Abs(got-want) > 0.015 {
		t.Errorf("site-percolated giant %.4f, theory %.4f", got, want)
	}
}

func TestDegreeSequenceLengthAndLaw(t *testing.T) {
	// A configuration model realizes its degree sequence exactly when the
	// stub total is even: every node keeps all its stubs as out-arcs.
	r := xrand.New(29)
	g := ConfigurationModel(drawDegrees(100, dist.NewFixed(7), r), r)
	if g.N() != 100 {
		t.Fatalf("nodes %d", g.N())
	}
	for u := 0; u < g.N(); u++ {
		if d := len(g.Out(u)); d != 7 {
			t.Fatalf("node %d has degree %d in a Fixed(7) configuration model", u, d)
		}
	}
}

func BenchmarkGossipGraph1000(b *testing.B) {
	r := xrand.New(1)
	p := dist.NewPoisson(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = GossipGraph(1000, p, r)
	}
}

func BenchmarkBFSReach5000(b *testing.B) {
	r := xrand.New(1)
	g := GossipGraph(5000, dist.NewPoisson(4), r)
	bfs := new(Searcher)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bfs.Reachable(g, 0, nil)
	}
}

func BenchmarkUndirectedComponents(b *testing.B) {
	r := xrand.New(1)
	g := GossipGraph(5000, dist.NewPoisson(4), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = UndirectedComponents(g, nil)
	}
}

// TestGossipGraphExactDegrees pins GossipGraph's degree semantics: targets
// come from SampleExcluding (without replacement, remapped around u), so
// node u's out-neighborhood has no duplicates, never contains u, and
// len(Out(u)) is exactly min(f_u, n−1) for the fanout draw f_u — no
// dedup pass needed by any consumer. The fanout draws are replayed on an
// identical stream to recover each f_u.
func TestGossipGraphExactDegrees(t *testing.T) {
	for _, n := range []int{2, 5, 50, 400} {
		for seed := uint64(0); seed < 25; seed++ {
			p := dist.NewPoisson(4.0)
			g := GossipGraph(n, p, xrand.New(seed))

			// Replay the generator's stream to recover the f_u sequence:
			// GossipGraph draws Sample then SampleExcluding per node, in
			// node order, on the one stream.
			replay := xrand.New(seed)
			buf := make([]int, 0, 16)
			for u := 0; u < n; u++ {
				f := p.Sample(replay)
				buf = replay.SampleExcluding(buf, n, f, u)
				if want := min(f, n-1); len(g.Out(u)) != want {
					t.Fatalf("n=%d seed=%d: len(Out(%d)) = %d, want min(f=%d, n-1) = %d",
						n, seed, u, len(g.Out(u)), f, want)
				}
				seen := make(map[int32]bool)
				for _, v := range g.Out(u) {
					if int(v) == u {
						t.Fatalf("n=%d seed=%d: node %d targets itself", n, seed, u)
					}
					if v < 0 || int(v) >= n {
						t.Fatalf("n=%d seed=%d: node %d targets out-of-range %d", n, seed, u, v)
					}
					if seen[v] {
						t.Fatalf("n=%d seed=%d: node %d targets %d twice", n, seed, u, v)
					}
					seen[v] = true
				}
			}
		}
	}
}
