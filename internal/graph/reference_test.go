package graph

// The adjacency-list graph and its searches as they stood before Digraph
// became a flat arc list: one []int32 per node, per-call Tarjan arrays, a
// Filtered copy and a fresh BFS per LargestOutComponent. Kept verbatim
// (identifiers prefixed ref) as the oracle TestDigraphMatchesReference and
// FuzzDigraphVsReference hold the CSR code to — neighbor order, visit
// order, representatives and sizes, not just counts.

import "fmt"

type refDigraph struct {
	adj  [][]int32
	arcs int
}

func newRefDigraph(n int) *refDigraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &refDigraph{adj: make([][]int32, n)}
}

func (g *refDigraph) N() int { return len(g.adj) }

func (g *refDigraph) Arcs() int { return g.arcs }

func (g *refDigraph) AddArc(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
	g.arcs++
}

func (g *refDigraph) Out(u int) []int32 { return g.adj[u] }

type refBFS struct {
	visited []int32
	epoch   int32
	queue   []int32
}

func newRefBFS(n int) *refBFS {
	return &refBFS{
		visited: make([]int32, n),
		queue:   make([]int32, 0, n),
	}
}

func (b *refBFS) Reachable(g *refDigraph, src int, visit func(node int)) int {
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

func refLargestSCC(g *refDigraph, active []bool) (rep, size int) {
	n := g.N()
	on := func(i int) bool { return active == nil || active[i] }

	const unvisited = -1
	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var next int32
	stack := make([]int32, 0, 64)

	type frame struct {
		v    int32
		edge int
	}
	var frames []frame

	rep, size = -1, 0
	for root := 0; root < n; root++ {
		if !on(root) || index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root)})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			adj := g.adj[v]
			advanced := false
			for f.edge < len(adj) {
				w := adj[f.edge]
				f.edge++
				if !on(int(w)) {
					continue
				}
				if index[w] == unvisited {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				cSize := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					cSize++
					if w == v {
						break
					}
				}
				if cSize > size {
					size, rep = cSize, int(v)
				}
			}
		}
	}
	return rep, size
}

func refFiltered(g *refDigraph, active []bool) *refDigraph {
	if active == nil {
		return g
	}
	f := newRefDigraph(g.N())
	for u := 0; u < g.N(); u++ {
		if !active[u] {
			continue
		}
		for _, v := range g.adj[u] {
			if active[v] {
				f.AddArc(u, int(v))
			}
		}
	}
	return f
}

func refLargestOutComponent(g *refDigraph, active []bool, probes []int) int {
	work := refFiltered(g, active)
	rep, size := refLargestSCC(work, active)
	if rep < 0 {
		return 0
	}
	bfs := newRefBFS(work.N())
	if size > 1 {
		return bfs.Reachable(work, rep, nil)
	}
	on := func(i int) bool { return active == nil || active[i] }
	best := 0
	for _, p := range probes {
		if p < 0 || p >= work.N() || !on(p) {
			continue
		}
		if c := bfs.Reachable(work, p, nil); c > best {
			best = c
		}
	}
	if best == 0 {
		best = bfs.Reachable(work, rep, nil)
	}
	return best
}

func refUndirectedComponents(g *refDigraph, active []bool) ComponentStats {
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
