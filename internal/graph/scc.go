package graph

// Searcher holds the working storage of the package's searches — Tarjan's
// index, lowlink and stacks, the BFS marks and the filtered copy a masked
// giant-component search runs on — so a loop that keeps one per worker
// searches without allocating once it has seen its largest graph. One
// Searcher serves graphs of any size in any sequence, one search at a time;
// what a search returns depends on the graph and the mask only, never on
// what the Searcher ran before. The zero value is ready to use.
type Searcher struct {
	bfs            BFS
	index, lowlink []int32
	onStack        []bool // all false between searches
	stack          []int32
	frames         []sccFrame
	work           Digraph
}

// sccFrame is one node of Tarjan's explicit call stack plus the position in
// the arc array of its next unexplored arc.
type sccFrame struct{ v, edge int32 }

// tarjan returns a representative node and the size of the largest
// strongly connected component of g restricted to nodes with
// active[i] == true (nil active means all nodes), and the root of src's
// component (-1 when src is negative or unreached). The representative is
// the root of the first largest component Tarjan emits, and (-1, 0) means
// that no active node exists.
//
// No DFS starts at a sink, a node without arcs. A sink is its own trivial
// component; left unvisited it is reached later as a leaf, or never. That
// shifts later DFS indices without reordering them, so every nontrivial
// component, the order they are emitted in and the representative are
// what a DFS from every root gives: the first DFS, whose first emission
// is the representative of an all-trivial graph, is the same unless its
// root is a sink, and then that sink is the representative either way.
//
// The implementation is an iterative Tarjan so deep gossip graphs cannot
// overflow the goroutine stack.
func (s *Searcher) tarjan(g *Digraph, active []bool, src int) (rep, size, srcRoot int) {
	n := g.N()
	off, adj := g.csr()

	const unvisited = -1
	if cap(s.index) < n {
		s.index = make([]int32, n)
		s.lowlink = make([]int32, n)
		s.onStack = make([]bool, n)
		// Neither stack holds a node twice.
		s.stack = make([]int32, 0, n)
		s.frames = make([]sccFrame, 0, n)
	}
	index, lowlink, onStack := s.index[:n], s.lowlink[:n], s.onStack[:n]
	for i := range index {
		index[i] = unvisited
	}
	var next int32
	stack, frames := s.stack[:0], s.frames[:0]

	rep, size, srcRoot = -1, 0, -1
	for root := 0; root < n; root++ {
		if active != nil && !active[root] || index[root] != unvisited {
			continue
		}
		if off[root] == off[root+1] {
			if size == 0 {
				rep, size = root, 1
			}
			continue
		}
		frames = append(frames[:0], sccFrame{v: int32(root), edge: off[root]})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			end := off[v+1]
			advanced := false
			for f.edge < end {
				w := adj[f.edge]
				f.edge++
				if active != nil && !active[w] {
					continue
				}
				if index[w] == unvisited {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, sccFrame{v: w, edge: off[w]})
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
			// v is finished: pop its frame, maybe emit an SCC.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				// Pop the component off the stack.
				cSize := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					cSize++
					if int(w) == src {
						srcRoot = int(v)
					}
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
	s.stack, s.frames = stack, frames
	return rep, size, srcRoot
}

// Reachable returns the number of nodes reachable from src in g, src
// included, calling visit (when non-nil) once per reached node.
func (s *Searcher) Reachable(g *Digraph, src int, visit func(node int)) int {
	s.bfs.fit(g.N())
	return s.bfs.Reachable(g, src, visit)
}

// filterInto rebuilds f as g restricted to arcs between active nodes. The
// arcs keep their order, so f freezes without sorting.
func (g *Digraph) filterInto(f *Digraph, active []bool) {
	f.Reset(g.N())
	for u := 0; u < g.N(); u++ {
		if !active[u] {
			continue
		}
		for _, v := range g.Out(u) {
			if active[v] {
				f.AddArc(u, int(v))
			}
		}
	}
}

// LargestOutComponent returns the size of the largest "out-component" of g
// over active nodes: the set of nodes reachable from the largest strongly
// connected component. When the largest SCC is trivial (size 1, the
// subcritical regime), it falls back to the maximum forward reach over the
// given probe starts (inactive probes are skipped).
//
// For the directed gossip graph this is the quantity the paper's Eq. 11
// predicts: the fraction of nonfailed members the message reaches once the
// spread takes off. A caller that also wants one member's own reach gets
// both from one search with Searcher.OutComponentReach.
func LargestOutComponent(g *Digraph, active []bool, probes []int) int {
	return new(Searcher).LargestOutComponent(g, active, probes)
}

// LargestOutComponent is the package-level LargestOutComponent on s's
// storage.
func (s *Searcher) LargestOutComponent(g *Digraph, active []bool, probes []int) int {
	work := g
	if active != nil {
		work = &s.work
		g.filterInto(work, active)
	}
	giant, _ := s.outComponentReach(work, active, probes, -1)
	return giant
}

// OutComponentReach returns LargestOutComponent(g, nil, probes) and
// Reachable(g, src, nil) from one search. Tarjan records the root of src's
// component, so a source inside the largest SCC reaches exactly the giant
// and no second traversal runs; in the subcritical fallback a source among
// the probes reuses its probe's reach. Only a source outside both gets its
// own breadth-first search.
func (s *Searcher) OutComponentReach(g *Digraph, probes []int, src int) (giant, reach int) {
	return s.outComponentReach(g, nil, probes, src)
}

// outComponentReach is OutComponentReach on a graph whose arcs already
// join active nodes only; a negative src skips the reach.
func (s *Searcher) outComponentReach(work *Digraph, active []bool, probes []int, src int) (giant, reach int) {
	rep, size, srcRoot := s.tarjan(work, active, src)
	reach = -1
	switch {
	case size > 1:
		giant = s.Reachable(work, rep, nil)
		if srcRoot == rep {
			reach = giant
		}
	case size == 1:
		for _, p := range probes {
			if p < 0 || p >= work.N() || active != nil && !active[p] {
				continue
			}
			c := s.Reachable(work, p, nil)
			if p == src {
				reach = c
			}
			giant = max(giant, c)
		}
		if giant == 0 {
			giant = s.Reachable(work, rep, nil)
		}
	}
	if reach < 0 && src >= 0 {
		reach = s.Reachable(work, src, nil)
	}
	return giant, reach
}
