// Package graph provides the graph machinery behind both sides of the
// reproduction: empirical giant components for validating the
// generating-function model, and the "gossip graph" view of a protocol run
// (node u drew node v as a gossip target ⇒ arc u→v).
//
// A Digraph is one flat arc list that its first traversal freezes into
// compressed sparse rows (an offset per node into one target array): no
// per-node slice exists, Reset keeps the storage for the next graph, and a
// Searcher carries the working arrays of every search (Tarjan's SCC, forward
// reachability, the giant out-component), so a Monte-Carlo loop that pools
// one of each allocates nothing once warm. The freeze is stable — Out(u)
// lists u's targets in the order their arcs were added, whatever order the
// sources came in — so traversal order, and with it every representative and
// every tie-break, is a function of the AddArc sequence alone
// (reference_test.go holds this to the adjacency-list code it replaced).
package graph

import (
	"fmt"

	"gossipkit/internal/dist"
	"gossipkit/internal/xrand"
)

// Digraph is a directed graph over nodes 0..N-1 stored as a flat arc list.
// The zero value is an empty graph with no nodes; use NewDigraph or Reset.
//
// Arcs are appended in any order; the first traversal after an AddArc
// (Out, a Searcher search, a masked copy) freezes
// the list into CSR form. Arcs that arrived in non-decreasing source order —
// every gossip graph, which is built node by node — freeze by one counting
// pass without moving an arc; any other order (ConfigurationModel's stub
// pairs) by one stable counting sort. A frozen graph is not mutated by
// reads, so it may be shared read-only across goroutines and Out may be
// kept as a function value; the generators of this package return frozen
// graphs. Building a graph, and the first read after building, belong to
// one goroutine.
type Digraph struct {
	n int
	// src[i]→dst[i] is the i-th arc. Once frozen the arcs are grouped by
	// source in AddArc order and dst[off[u]:off[u+1]] is Out(u).
	src, dst []int32
	off      []int32
	frozen   bool
	// unsorted records that some arc was added below its predecessor's
	// source, so the next freeze has to sort.
	unsorted bool
}

// NewDigraph returns an empty digraph with n nodes.
func NewDigraph(n int) *Digraph {
	g := new(Digraph)
	g.Reset(n)
	return g
}

// Reset empties g into a graph with n nodes and no arcs, keeping its
// storage: a pooled Digraph rebuilt every replication stops allocating once
// it has held its largest graph.
func (g *Digraph) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	g.n = n
	g.src, g.dst = g.src[:0], g.dst[:0]
	g.frozen, g.unsorted = false, false
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// Arcs returns the number of directed arcs.
func (g *Digraph) Arcs() int { return len(g.dst) }

// AddArc adds the arc u→v; an endpoint outside [0, N) panics. Parallel arcs
// and self-loops are permitted at this level: ConfigurationModel generates
// multigraphs that need them. GossipGraph and the topology overlay
// generators never produce either — their samplers draw distinct non-self
// targets — so their degree counts are exact (see
// TestGossipGraphExactDegrees).
func (g *Digraph) AddArc(u, v int) {
	if uint(u) >= uint(g.n) || uint(v) >= uint(g.n) {
		panic(fmt.Sprintf("graph: arc %d→%d outside a graph of %d nodes", u, v, g.n))
	}
	if m := len(g.src); m > 0 && int32(u) < g.src[m-1] {
		g.unsorted = true
	}
	g.src = append(g.src, int32(u))
	g.dst = append(g.dst, int32(v))
	g.frozen = false
}

// freeze builds the CSR offsets, first grouping the arcs by source (stably)
// if they did not arrive that way.
func (g *Digraph) freeze() {
	n := g.n
	if cap(g.off) < n+1 {
		g.off = make([]int32, n+1)
	} else {
		g.off = g.off[:n+1]
		clear(g.off)
	}
	off := g.off
	for _, u := range g.src {
		off[u+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	if g.unsorted {
		// off[u] walks from u's first slot to its last, ending at the
		// start of u+1; the shift afterwards restores the offsets.
		src, dst := make([]int32, len(g.src)), make([]int32, len(g.dst))
		for i, u := range g.src {
			at := off[u]
			off[u]++
			src[at], dst[at] = u, g.dst[i]
		}
		copy(off[1:], off[:n])
		off[0] = 0
		g.src, g.dst = src, dst
		g.unsorted = false
	}
	g.frozen = true
}

// csr returns g's frozen form, freezing it first if arcs were added since:
// adj[off[u]:off[u+1]] is Out(u).
func (g *Digraph) csr() (off, adj []int32) {
	if !g.frozen {
		g.freeze()
	}
	return g.off, g.dst
}

// Out returns u's targets in the order their arcs were added. The slice is
// owned by the graph and must not be modified.
func (g *Digraph) Out(u int) []int32 {
	off, adj := g.csr()
	lo, hi := off[u], off[u+1]
	return adj[lo:hi:hi]
}

// BFS is a reusable breadth-first searcher over a Digraph. A single BFS
// value can be reused across many searches, on any graph no larger than it,
// without reallocating, which matters in Monte-Carlo loops.
type BFS struct {
	visited []int32 // epoch marks, avoids clearing between runs
	epoch   int32
	queue   []int32
}

// fit grows b to serve graphs with n nodes. Marks never need clearing when
// the graph changes: an epoch is used for one search only.
func (b *BFS) fit(n int) {
	if len(b.visited) < n {
		b.visited = make([]int32, n)
		b.queue = make([]int32, 0, n)
	}
}

// Reachable traverses g from src following arcs forward and returns the
// number of reached nodes (including src). If visit is non-nil it is called
// once per reached node.
func (b *BFS) Reachable(g *Digraph, src int, visit func(node int)) int {
	if g.N() > len(b.visited) {
		panic("graph: BFS size mismatch")
	}
	off, adj := g.csr()
	b.epoch++
	if b.epoch <= 0 {
		// A pooled searcher outlives 2³¹ searches: start the marks over
		// rather than meet a stale one.
		clear(b.visited)
		b.epoch = 1
	}
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
		for _, v := range adj[off[u]:off[u+1]] {
			if b.visited[v] != epoch {
				b.visited[v] = epoch
				b.queue = append(b.queue, v)
			}
		}
	}
	return count
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
// and never u itself, and len(Out(u)) is exactly min(f_u, n−1). Overlay
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
	g.freeze()
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
	g.freeze()
	return g
}
