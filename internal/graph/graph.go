// Package graph provides the graph machinery behind both sides of the
// reproduction: empirical giant components for validating the
// generating-function model, and the "gossip graph" view of a protocol run
// (node u drew node v as a gossip target ⇒ arc u→v).
//
// The representations are deliberately simple and allocation-conscious:
// a mutable adjacency builder (Digraph) for generators, a breadth-first
// searcher with reusable buffers for reachability, and a weighted union–find
// for undirected component statistics on large instances.
package graph

import (
	"fmt"

	"gossipkit/internal/dist"
	"gossipkit/internal/xrand"
)

// Digraph is a directed graph over nodes 0..N-1 stored as adjacency lists.
// The zero value is an empty graph with no nodes; use NewDigraph.
type Digraph struct {
	adj  [][]int32
	arcs int
}

// NewDigraph returns an empty digraph with n nodes.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Digraph{adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.adj) }

// Arcs returns the number of directed arcs.
func (g *Digraph) Arcs() int { return g.arcs }

// AddArc adds the arc u→v. Parallel arcs and self-loops are permitted at
// this level: ConfigurationModel generates multigraphs that need them.
// GossipGraph and the topology overlay generators never produce either —
// their samplers draw distinct non-self targets — so their degree counts
// are exact (see TestGossipGraphExactDegrees).
func (g *Digraph) AddArc(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
	g.arcs++
}

// Out returns the adjacency list of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Digraph) Out(u int) []int32 { return g.adj[u] }

// OutDegree returns the out-degree of u.
func (g *Digraph) OutDegree(u int) int { return len(g.adj[u]) }

// BFS is a reusable breadth-first searcher over a Digraph. A single BFS
// value can be reused across many searches on graphs of the same size
// without reallocating, which matters in Monte-Carlo loops.
type BFS struct {
	visited []int32 // epoch marks, avoids clearing between runs
	epoch   int32
	queue   []int32
}

// NewBFS returns a searcher for graphs with n nodes.
func NewBFS(n int) *BFS {
	return &BFS{
		visited: make([]int32, n),
		queue:   make([]int32, 0, n),
	}
}

// Reachable traverses g from src following arcs forward and returns the
// number of reached nodes (including src). If visit is non-nil it is called
// once per reached node.
func (b *BFS) Reachable(g *Digraph, src int, visit func(node int)) int {
	if g.N() != len(b.visited) {
		panic("graph: BFS size mismatch")
	}
	b.epoch++
	epoch := b.epoch
	b.queue = b.queue[:0]
	b.visited[src] = epoch
	b.queue = append(b.queue, int32(src))
	count := 0
	for head := 0; head < len(b.queue); head++ {
		u := b.queue[head]
		count++
		if visit != nil {
			visit(int(u))
		}
		for _, v := range g.adj[u] {
			if b.visited[v] != epoch {
				b.visited[v] = epoch
				b.queue = append(b.queue, v)
			}
		}
	}
	return count
}

// ReachableMask is like Reachable but records reached nodes in mask, which
// must have length g.N(). Entries for reached nodes are set true; other
// entries are set false.
func (b *BFS) ReachableMask(g *Digraph, src int, mask []bool) int {
	for i := range mask {
		mask[i] = false
	}
	return b.Reachable(g, src, func(n int) { mask[n] = true })
}

// ---------------------------------------------------------------------------
// Union-Find

// UnionFind is a weighted quick-union structure with path halving, used for
// undirected component statistics.
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
		for _, v := range g.adj[u] {
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

// ---------------------------------------------------------------------------
// Generators

// GossipGraph draws the random graph generated by one execution of the
// paper's general gossiping algorithm under the "everyone forwards"
// counterfactual: every node u (whether it would be reached or not) draws a
// fanout f_u ~ P and f_u distinct targets uniformly from the other n-1
// nodes, producing the arc set the gossip *would* use. Restricting to alive
// nodes and following arcs from the source then reproduces the actual
// spread; this factorization lets one graph be reused across analyses.
//
// Degree semantics (pinned by TestGossipGraphExactDegrees): targets come
// from xrand.SampleExcluding, which samples without replacement and
// remaps around u, so node u's out-neighborhood contains no duplicates
// and never u itself, and OutDegree(u) is exactly min(f_u, n−1). Overlay
// degree counts derived from this graph are therefore exact — no
// deduplication pass is needed.
func GossipGraph(n int, p dist.Distribution, r *xrand.RNG) *Digraph {
	g := NewDigraph(n)
	buf := make([]int, 0, 16)
	for u := 0; u < n; u++ {
		f := p.Sample(r)
		buf = r.SampleExcluding(buf, n, f, u)
		for _, v := range buf {
			g.AddArc(u, v)
		}
	}
	return g
}

// ConfigurationModel generates an undirected multigraph (stored as a
// symmetric digraph: each edge appears as two arcs) with the given degree
// sequence via uniform stub matching. If the total degree is odd, one stub
// is dropped. Self-loops and parallel edges are possible, as in the standard
// model; their density vanishes for light-tailed degree laws.
func ConfigurationModel(degrees []int, r *xrand.RNG) *Digraph {
	n := len(degrees)
	g := NewDigraph(n)
	total := 0
	for i, d := range degrees {
		if d < 0 {
			panic(fmt.Sprintf("graph: negative degree %d at %d", d, i))
		}
		total += d
	}
	stubs := make([]int32, 0, total)
	for i, d := range degrees {
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(i))
		}
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := int(stubs[i]), int(stubs[i+1])
		g.AddArc(u, v)
		g.AddArc(v, u)
	}
	return g
}

// DegreeSequence draws n i.i.d. degrees from p.
func DegreeSequence(n int, p dist.Distribution, r *xrand.RNG) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = p.Sample(r)
	}
	return out
}
