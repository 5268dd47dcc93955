package graph

import (
	"math"
	"testing"

	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/xrand"
)

// TestMeanComponentSizeMatchesEq2 bridges the paper's Eq. 2 to an
// empirical measurement: in the subcritical regime, the mean size of the
// component containing a random occupied node of a site-percolated
// configuration-model graph must equal ⟨s⟩/q = 1 + q·G0'(1)/(1 − q·G1'(1))
// (the paper's ⟨s⟩ averages over ALL nodes, occupied or not, hence the /q).
func TestMeanComponentSizeMatchesEq2(t *testing.T) {
	cases := []struct {
		z, q float64
	}{
		{2.0, 0.30}, // qz = 0.6
		{4.0, 0.15}, // qz = 0.6
		{1.5, 0.40}, // qz = 0.6
		{2.0, 0.15}, // qz = 0.3, deep subcritical
	}
	for _, c := range cases {
		p := dist.NewPoisson(c.z)
		m := genfunc.New(p)
		want, err := m.MeanComponentSize(c.q)
		if err != nil {
			t.Fatal(err)
		}
		wantOccupied := want / c.q

		const n = 60000
		r := xrand.New(uint64(1000 * c.z * (1 + c.q)))
		g := ConfigurationModel(drawDegrees(n, p, r), r)
		active := make([]bool, n)
		for i := range active {
			active[i] = r.Bool(c.q)
		}
		st := UndirectedComponents(g, active)
		if math.Abs(st.MeanSize-wantOccupied)/wantOccupied > 0.06 {
			t.Errorf("z=%g q=%g: empirical mean size %.4f, Eq.2/q = %.4f",
				c.z, c.q, st.MeanSize, wantOccupied)
		}
	}
}

// TestMeanComponentSizeGrowsTowardCritical verifies the divergence that
// defines the phase transition (paper §3): approaching q_c from below the
// empirical mean component size blows up.
func TestMeanComponentSizeGrowsTowardCritical(t *testing.T) {
	const n = 60000
	z := 2.5
	p := dist.NewPoisson(z)
	qc := 1 / z
	prev := 0.0
	for _, frac := range []float64{0.4, 0.7, 0.9} {
		q := qc * frac
		r := xrand.New(uint64(77 + 1000*frac))
		g := ConfigurationModel(drawDegrees(n, p, r), r)
		active := make([]bool, n)
		for i := range active {
			active[i] = r.Bool(q)
		}
		st := UndirectedComponents(g, active)
		if st.MeanSize <= prev {
			t.Errorf("mean size not growing toward qc: %.3f at q=%.3f (prev %.3f)",
				st.MeanSize, q, prev)
		}
		prev = st.MeanSize
	}
	if prev < 4 {
		t.Errorf("mean size near 0.9·qc = %.3f, expected noticeably large", prev)
	}
}

// ---------------------------------------------------------------------------
// Union-Find

// UnionFind is a weighted quick-union structure with path halving, used for
// undirected component statistics: the witness of Eq. 2 below and of
// ConfigurationModel's giant component in graph_test.go.
type UnionFind struct {
	parent []int32
	size   []int32
	comps  int
}

// NewUnionFind returns a union-find over n singleton components.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int32, n),
		size:   make([]int32, n),
		comps:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the component representative of x.
func (uf *UnionFind) Find(x int) int {
	p := int32(x)
	for uf.parent[p] != p {
		uf.parent[p] = uf.parent[uf.parent[p]] // path halving
		p = uf.parent[p]
	}
	return int(p)
}

// Union merges the components of x and y; it returns true if they were
// previously distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := int32(uf.Find(x)), int32(uf.Find(y))
	if rx == ry {
		return false
	}
	if uf.size[rx] < uf.size[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	uf.size[rx] += uf.size[ry]
	uf.comps--
	return true
}

// Connected reports whether x and y are in the same component.
func (uf *UnionFind) Connected(x, y int) bool { return uf.Find(x) == uf.Find(y) }

// ComponentSize returns the size of x's component.
func (uf *UnionFind) ComponentSize(x int) int { return int(uf.size[uf.Find(x)]) }

// Components returns the current number of components.
func (uf *UnionFind) Components() int { return uf.comps }

// LargestComponent returns the size of the largest component and one of its
// representatives. For an empty structure it returns (0, -1).
func (uf *UnionFind) LargestComponent() (size, rep int) {
	rep = -1
	for i := range uf.parent {
		if int32(i) == uf.parent[i] {
			if int(uf.size[i]) > size {
				size, rep = int(uf.size[i]), i
			}
		}
	}
	return size, rep
}

// ---------------------------------------------------------------------------
// Component statistics

// ComponentStats summarizes the undirected component structure of a graph.
type ComponentStats struct {
	// Count is the number of components (over the considered nodes).
	Count int
	// Largest is the size of the largest component.
	Largest int
	// SecondLargest is the size of the second largest component (0 if
	// there is only one component).
	SecondLargest int
	// MeanSize is the mean component size experienced by a random node
	// (i.e. E[size of the component containing a uniform node]); this is
	// the quantity the model's ⟨s⟩ (paper Eq. 2) estimates.
	MeanSize float64
	// Nodes is the number of nodes considered.
	Nodes int
}

// UndirectedComponents treats g's arcs as undirected edges restricted to
// nodes with active[i] == true (nil active means all nodes) and returns
// component statistics. This is the empirical counterpart of the paper's
// generalized-random-graph analysis: failed nodes are simply removed.
func UndirectedComponents(g *Digraph, active []bool) ComponentStats {
	n := g.N()
	uf := NewUnionFind(n)
	on := func(i int) bool { return active == nil || active[i] }
	activeCount := 0
	for u := 0; u < n; u++ {
		if !on(u) {
			continue
		}
		activeCount++
		for _, v := range g.Out(u) {
			if int(v) != u && on(int(v)) {
				uf.Union(u, int(v))
			}
		}
	}
	stats := ComponentStats{Nodes: activeCount}
	if activeCount == 0 {
		return stats
	}
	var largest, second int
	var sumSq float64
	for i := 0; i < n; i++ {
		if !on(i) || uf.Find(i) != i {
			continue
		}
		s := uf.ComponentSize(i)
		stats.Count++
		sumSq += float64(s) * float64(s)
		if s > largest {
			largest, second = s, largest
		} else if s > second {
			second = s
		}
	}
	stats.Largest = largest
	stats.SecondLargest = second
	stats.MeanSize = sumSq / float64(activeCount)
	return stats
}

// drawDegrees draws n i.i.d. degrees from p for ConfigurationModel.
func drawDegrees(n int, p dist.Distribution, r *xrand.RNG) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = p.Sample(r)
	}
	return out
}
