package topology

import (
	"gossipkit/internal/xrand"
)

// Overlay is a materialized topology: a per-member neighbor set stored
// as one flat arc array. It implements membership.View, so every layer
// that routes target selection through View.SampleTargets — the uniform
// executor, the DES NetRun, and the protocol baselines — draws from the
// neighbor set transparently.
//
// Member u's out-arcs occupy arcs[off[u]:off[u+1]]; the live prefix
// arcs[off[u]:off[u]+deg[u]] holds neighbors that have not been removed.
// Remove(v) swap-retires v from every in-neighbor's live prefix (churned
// and crashed members vanish from neighbor sets) and Restore(v) swaps it
// back, so capacity never grows and no allocation happens mid-run.
//
// Concurrency: SampleTargets, Neighbors, Degree, and N are strictly
// read-only and safe for concurrent use from shard kernels with
// independent RNGs. Remove and Restore mutate the live prefixes and must
// only run while no kernel is sampling (the scenario runner applies them
// at window barriers, where shard workers are parked).
type Overlay struct {
	kind Kind
	n    int

	arcs []int32 // out-arcs, grouped per member
	off  []int32 // len n+1; member u's slots at [off[u], off[u+1])
	deg  []int32 // live out-degree of u (live prefix length)

	inArcs []int32 // in-neighbors, grouped per member
	inOff  []int32 // len n+1
	down   []bool  // members retired by Remove
}

// newOverlay flattens per-member adjacency lists (which must contain no
// self-loops, duplicates, or out-of-range entries) and builds the
// in-adjacency index Remove/Restore use.
func newOverlay(kind Kind, adj [][]int32) *Overlay {
	n := len(adj)
	o := &Overlay{
		kind:  kind,
		n:     n,
		off:   make([]int32, n+1),
		deg:   make([]int32, n),
		inOff: make([]int32, n+1),
		down:  make([]bool, n),
	}
	total := 0
	for u, nb := range adj {
		o.off[u] = int32(total)
		o.deg[u] = int32(len(nb))
		total += len(nb)
	}
	o.off[n] = int32(total)
	o.arcs = make([]int32, 0, total)
	for _, nb := range adj {
		o.arcs = append(o.arcs, nb...)
	}
	// Counting sort of reversed arcs → in-adjacency.
	for _, v := range o.arcs {
		o.inOff[v+1]++
	}
	for v := 0; v < n; v++ {
		o.inOff[v+1] += o.inOff[v]
	}
	o.inArcs = make([]int32, total)
	fill := make([]int32, n)
	for u, nb := range adj {
		for _, v := range nb {
			o.inArcs[o.inOff[v]+fill[v]] = int32(u)
			fill[v]++
		}
	}
	return o
}

// Kind returns the topology family this overlay was generated from.
func (o *Overlay) Kind() Kind { return o.kind }

// N implements membership.View.
func (o *Overlay) N() int { return o.n }

// Degree implements membership.View: the live out-degree of self.
func (o *Overlay) Degree(self int) int { return int(o.deg[self]) }

// Arcs returns the total number of arcs in the overlay (live and
// retired).
func (o *Overlay) Arcs() int { return len(o.arcs) }

// Neighbors returns self's live out-neighbors. The slice aliases the
// overlay's arc storage: read-only, valid until the next Remove/Restore.
func (o *Overlay) Neighbors(self int) []int32 {
	return o.arcs[o.off[self] : o.off[self]+o.deg[self]]
}

// SampleTargets implements membership.View by sampling without
// replacement from self's live neighbor set. It is read-only: one
// Overlay serves concurrently sampling shard kernels.
func (o *Overlay) SampleTargets(dst []int, self, k int, r *xrand.RNG) []int {
	if dst == nil {
		dst = make([]int, 0, k)
	}
	dst = dst[:0]
	nb := o.arcs[o.off[self] : o.off[self]+o.deg[self]]
	if k >= len(nb) {
		for _, t := range nb {
			dst = append(dst, int(t))
		}
		xrand.ShuffleSlice(r, dst)
		return dst
	}
	// Floyd's k-subset with an O(k²) duplicate scan, allocation-free at
	// any draw density. (xrand.SampleInts switches to an O(n) scratch
	// permutation once k·4 > n — an allocation per call, and gossip draws
	// over a k-out overlay sit in exactly that dense regime. This loop is
	// stream-identical to SampleInts' sparse path.)
	for j := len(nb) - k; j < len(nb); j++ {
		t := r.Intn(j + 1)
		for _, v := range dst {
			if v == t {
				t = j
				break
			}
		}
		dst = append(dst, t)
	}
	// Floyd yields a uniform k-subset in biased order; shuffle before
	// mapping indices to members so positions are exchangeable.
	xrand.ShuffleSlice(r, dst)
	for i, idx := range dst {
		dst[i] = int(nb[idx])
	}
	return dst
}

// Remove retires member v from the overlay: v vanishes from every
// in-neighbor's live neighbor set (crashed or churned members are no
// longer gossiped to). Returns the number of arcs retired; 0 if v was
// already down. Not safe concurrently with sampling.
func (o *Overlay) Remove(v int) int {
	if o.down[v] {
		return 0
	}
	o.down[v] = true
	retired := 0
	for _, u := range o.inArcs[o.inOff[v]:o.inOff[v+1]] {
		live := o.arcs[o.off[u] : o.off[u]+o.deg[u]]
		for i, t := range live {
			if int(t) == v {
				last := len(live) - 1
				live[i], live[last] = live[last], live[i]
				o.deg[u]--
				retired++
				break
			}
		}
	}
	return retired
}

// Restore re-admits member v: every arc Remove retired is swapped back
// into its in-neighbor's live prefix. Returns the number of arcs
// restored; 0 if v was not down. Not safe concurrently with sampling.
func (o *Overlay) Restore(v int) int {
	if !o.down[v] {
		return 0
	}
	o.down[v] = false
	restored := 0
	for _, u := range o.inArcs[o.inOff[v]:o.inOff[v+1]] {
		dead := o.arcs[o.off[u]+o.deg[u] : o.off[u+1]]
		for i, t := range dead {
			if int(t) == v {
				dead[i], dead[0] = dead[0], dead[i]
				o.deg[u]++
				restored++
				break
			}
		}
	}
	return restored
}
