package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gossipkit/internal/dist"
	"gossipkit/internal/xrand"
)

// twin builds the same arc sequence into the CSR Digraph and the
// adjacency-list oracle.
type twin struct {
	g   *Digraph
	ref *refDigraph
}

func newTwin(n int) twin { return twin{NewDigraph(n), newRefDigraph(n)} }

func (tw twin) addArc(u, v int) {
	tw.g.AddArc(u, v)
	tw.ref.AddArc(u, v)
}

// masks returns the active sets a comparison runs under: all nodes (nil),
// two partial masks and the empty one.
func masks(n int) [][]bool {
	thirds, odd, none := make([]bool, n), make([]bool, n), make([]bool, n)
	for i := range thirds {
		thirds[i] = i%3 != 1
		odd[i] = i%2 == 1
	}
	return [][]bool{nil, thirds, odd, none}
}

// holdToReference checks everything a caller can observe of tw.g against
// the oracle: adjacency order, both counts, SCC representative and size,
// the giant out-component (the probe fallback included), BFS visit order,
// the fused giant-and-reach search and the undirected statistics — through
// the package-level functions and through s, a Searcher the caller keeps
// across graphs of different sizes.
func holdToReference(t testing.TB, name string, tw twin, s *Searcher) {
	t.Helper()
	g, ref := tw.g, tw.ref
	n := ref.N()
	if g.N() != n || g.Arcs() != ref.Arcs() {
		t.Fatalf("%s: N=%d arcs=%d, reference N=%d arcs=%d", name, g.N(), g.Arcs(), n, ref.Arcs())
	}
	for u := 0; u < n; u++ {
		if !slices.Equal(g.Out(u), ref.Out(u)) {
			t.Fatalf("%s: Out(%d) = %v, reference %v", name, u, g.Out(u), ref.Out(u))
		}
	}
	probes := []int{-1, 0, n / 2, n - 1, n, n / 3}
	for mi, active := range masks(n) {
		wantRep, wantSize := refLargestSCC(ref, active)
		if rep, size := new(Searcher).LargestSCC(g, active); rep != wantRep || size != wantSize {
			t.Fatalf("%s mask %d: LargestSCC = (%d, %d), reference (%d, %d)", name, mi, rep, size, wantRep, wantSize)
		}
		if rep, size := s.LargestSCC(g, active); rep != wantRep || size != wantSize {
			t.Fatalf("%s mask %d: pooled LargestSCC = (%d, %d), reference (%d, %d)", name, mi, rep, size, wantRep, wantSize)
		}
		for _, pr := range [][]int{nil, probes} {
			want := refLargestOutComponent(ref, active, pr)
			if got := LargestOutComponent(g, active, pr); got != want {
				t.Fatalf("%s mask %d probes %v: LargestOutComponent = %d, reference %d", name, mi, pr, got, want)
			}
			if got := s.LargestOutComponent(g, active, pr); got != want {
				t.Fatalf("%s mask %d probes %v: pooled LargestOutComponent = %d, reference %d", name, mi, pr, got, want)
			}
		}
		if got, want := UndirectedComponents(g, active), refUndirectedComponents(ref, active); got != want {
			t.Fatalf("%s mask %d: UndirectedComponents = %+v, reference %+v", name, mi, got, want)
		}
	}
	if n == 0 {
		return
	}
	rb := newRefBFS(n)
	for _, src := range []int{0, n / 2, n - 1} {
		var got, want []int
		wantCount := rb.Reachable(ref, src, func(v int) { want = append(want, v) })
		if c := s.Reachable(g, src, func(v int) { got = append(got, v) }); c != wantCount || !slices.Equal(got, want) {
			t.Fatalf("%s: BFS from %d visited %v (%d), reference %v (%d)", name, src, got, c, want, wantCount)
		}
		wantG := refLargestOutComponent(ref, nil, probes)
		if gc, rc := s.OutComponentReach(g, probes, src); gc != wantG || rc != wantCount {
			t.Fatalf("%s: OutComponentReach from %d = (%d, %d), reference (%d, %d)", name, src, gc, rc, wantG, wantCount)
		}
	}
}

// gossipTwin is GossipGraph(n, p, seed) beside the oracle built by
// replaying the generator's stream: Sample then SampleExcluding per node,
// in node order.
func gossipTwin(n int, p dist.Distribution, seed uint64) twin {
	tw := twin{GossipGraph(n, p, xrand.New(seed)), newRefDigraph(n)}
	r := xrand.New(seed)
	var buf []int
	for u := 0; u < n; u++ {
		buf = r.SampleExcluding(buf, n, p.Sample(r), u)
		for _, v := range buf {
			tw.ref.AddArc(u, v)
		}
	}
	return tw
}

// configurationTwin is ConfigurationModel(degrees, seed) beside the oracle
// built from the same shuffled stub pairing — arcs arrive in stub order, so
// this is the freeze that has to sort.
func configurationTwin(degrees []int, seed uint64) twin {
	tw := twin{ConfigurationModel(degrees, xrand.New(seed)), newRefDigraph(len(degrees))}
	var stubs []int
	for i, d := range degrees {
		for j := 0; j < d; j++ {
			stubs = append(stubs, i)
		}
	}
	stubs = stubs[:len(stubs)&^1]
	xrand.New(seed).Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		tw.ref.AddArc(stubs[i], stubs[i+1])
		tw.ref.AddArc(stubs[i+1], stubs[i])
	}
	return tw
}

// TestDigraphMatchesReference holds the flat arc list, its freeze and the
// pooled Searcher to the adjacency-list code they replaced, with one
// Searcher carried through every graph so sizes grow and shrink under it.
func TestDigraphMatchesReference(t *testing.T) {
	s := new(Searcher)
	laws := []dist.Distribution{dist.NewPoisson(0.5), dist.NewPoisson(1), dist.NewPoisson(2.5), dist.NewPoisson(7), dist.NewFixed(0), dist.NewFixed(2)}
	for i, n := range []int{5000, 1, 1000, 2, 17, 3} { // not monotone: the Searcher must shrink and regrow
		for j, p := range laws {
			seed := uint64(10*i + j + 1)
			holdToReference(t, fmt.Sprintf("GossipGraph(n=%d, %s, seed %d)", n, p.Name(), seed), gossipTwin(n, p, seed), s)
		}
	}
	for seed, degrees := range [][]int{
		{},
		{0},
		{3, 1},
		{1, 2, 3, 2, 1, 3},
		drawDegrees(17, dist.NewPoisson(2), xrand.New(1)),
		drawDegrees(1000, dist.NewPoisson(0.8), xrand.New(2)),
		drawDegrees(1000, dist.NewFixed(8), xrand.New(3)),
	} {
		holdToReference(t, fmt.Sprintf("ConfigurationModel(n=%d, seed %d)", len(degrees), seed), configurationTwin(degrees, uint64(seed)), s)
	}

	// Hand-built multigraphs: self-loops, parallel arcs, sources out of
	// order, and a DAG whose largest SCC is trivial (the probe fallback).
	multi := newTwin(5)
	for _, a := range [][2]int{{3, 3}, {0, 1}, {3, 0}, {0, 1}, {1, 0}, {4, 4}, {0, 3}, {2, 2}, {2, 2}, {1, 4}} {
		multi.addArc(a[0], a[1])
	}
	holdToReference(t, "multigraph", multi, s)
	dag := newTwin(7)
	for _, a := range [][2]int{{6, 5}, {0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 5}, {2, 5}} {
		dag.addArc(a[0], a[1])
	}
	holdToReference(t, "dag", dag, s)

	// A frozen graph takes more arcs and freezes again; a Reset graph is a
	// new graph on the old storage.
	multi.addArc(4, 0)
	multi.addArc(0, 2)
	holdToReference(t, "multigraph after more arcs", multi, s)
	multi.g.Reset(3)
	multi.ref = newRefDigraph(3)
	multi.addArc(2, 1)
	multi.addArc(1, 2)
	holdToReference(t, "multigraph after Reset", multi, s)
}

// FuzzDigraphVsReference feeds arbitrary arc sequences into one Digraph —
// compared, extended after the freeze, Reset to other sizes — and one
// Searcher, against the oracle rebuilt beside them.
func FuzzDigraphVsReference(f *testing.F) {
	f.Add([]byte{4, 1, 0, 1, 1, 2, 3, 9, 1, 3, 0, 0, 2, 1, 1, 0})
	f.Add([]byte{1, 1, 0, 0, 0, 60, 1, 59, 3, 1, 3, 59, 9, 1, 3, 3})
	f.Add([]byte{30, 1, 29, 28, 1, 28, 27, 1, 27, 29, 1, 5, 5, 0, 2, 1, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		size := func(b byte) int { return int(b) % 65 } // 0..64 nodes
		if len(data) == 0 {
			return
		}
		tw := newTwin(size(data[0]))
		s := new(Searcher)
		step := 0
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			step++
			switch op, a, b := data[0], int(data[1]), int(data[2]); {
			case op%16 == 0:
				holdToReference(t, fmt.Sprintf("step %d before Reset", step), tw, s)
				tw.g.Reset(size(data[1]))
				tw.ref = newRefDigraph(size(data[1]))
			case op%16 == 9:
				holdToReference(t, fmt.Sprintf("step %d mid-build", step), tw, s)
			case tw.ref.N() > 0:
				tw.addArc(a%tw.ref.N(), b%tw.ref.N())
			}
		}
		holdToReference(t, "end", tw, s)
	})
}

// TestAddArcRejectsOutOfRange: an endpoint outside the graph is refused at
// insertion, by a message naming the arc and the graph.
func TestAddArcRejectsOutOfRange(t *testing.T) {
	for _, arc := range [][2]int{{0, 3}, {3, 0}, {0, -1}, {-1, 0}, {0, 1 << 32}} {
		func() {
			defer func() {
				want := fmt.Sprintf("graph: arc %d→%d outside a graph of 3 nodes", arc[0], arc[1])
				if got := recover(); got != want {
					t.Errorf("AddArc(%d, %d): panic %v, want %q", arc[0], arc[1], got, want)
				}
			}()
			g := NewDigraph(3)
			g.AddArc(arc[0], arc[1])
			new(Searcher).Reachable(g, 0, nil)
		}()
	}
}

// TestBFSEpochWrap forces the search counter to its edge: the marks are
// cleared and the epoch restarts, so marks left by the searches before the
// wrap cannot pass for visits.
func TestBFSEpochWrap(t *testing.T) {
	g := NewDigraph(4) // 0→1→2→0, 3 apart
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 0)
	var b BFS
	b.fit(4)
	if got := b.Reachable(g, 0, nil); got != 3 { // marks 0,1,2 with epoch 1
		t.Fatalf("reach = %d, want 3", got)
	}
	b.epoch = math.MaxInt32
	for i, src := range []int{1, 3, 2} {
		want := 3
		if src == 3 {
			want = 1
		}
		if got := b.Reachable(g, src, nil); got != want {
			t.Errorf("search %d after the wrap: reach from %d = %d, want %d", i+1, src, got, want)
		}
		if b.epoch != int32(i+1) {
			t.Errorf("search %d after the wrap: epoch %d, want %d", i+1, b.epoch, i+1)
		}
	}
}
