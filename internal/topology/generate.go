package topology

import "gossipkit/internal/xrand"

// generateKOut builds a random k-out regular digraph: every member
// independently draws min(k, n−1) distinct out-neighbors uniformly,
// never itself. Out-degrees are exact; in-degrees are Binomial(n−1,
// k/(n−1)). At k ≥ ⌈log₂ n⌉ the digraph is strongly connected with high
// probability, which is why Spec.K==0 resolves there.
func generateKOut(n, k int, r *xrand.RNG) *Overlay {
	if k > n-1 {
		k = n - 1
	}
	adj := make([][]int32, n)
	buf := make([]int, 0, k)
	for u := 0; u < n; u++ {
		buf = r.SampleExcluding(buf[:0], n, k, u)
		nb := make([]int32, len(buf))
		for i, t := range buf {
			nb[i] = int32(t)
		}
		adj[u] = nb
	}
	return newOverlay(KOut, adj)
}

// generateBarabasiAlbert grows a scale-free graph by preferential
// attachment: starting from a clique of m+1 seed members, each arriving
// member links to m distinct existing members chosen with probability
// proportional to degree (the classic repeated-endpoints trick: pick a
// uniform entry of the arc-endpoint multiset). Edges are undirected —
// each contributes an arc both ways — so early members accumulate high
// degree (hubs) and the degree distribution follows a power law.
func generateBarabasiAlbert(n, m int, r *xrand.RNG) *Overlay {
	if m > n-1 {
		m = n - 1
	}
	adj := make([][]int32, n)
	// ends holds one entry per arc endpoint; uniform picks from it are
	// degree-proportional.
	ends := make([]int32, 0, 2*(m*(m+1)/2+(n-m-1)*m))
	addEdge := func(u, v int) {
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
		ends = append(ends, int32(u), int32(v))
	}
	seed := m + 1
	for u := 1; u < seed; u++ {
		for v := 0; v < u; v++ {
			addEdge(u, v)
		}
	}
	chosen := make([]int32, 0, m)
	contains := func(s []int32, x int32) bool {
		for _, e := range s {
			if e == x {
				return true
			}
		}
		return false
	}
	for u := seed; u < n; u++ {
		chosen = chosen[:0]
		// Rejection-sample distinct degree-proportional targets; after
		// enough collisions (tiny graphs, adversarial m) fall back to the
		// lowest-index unchosen member so generation always terminates.
		for tries := 0; len(chosen) < m; tries++ {
			if tries < 16*m+16 {
				t := ends[r.Intn(len(ends))]
				if int(t) != u && !contains(chosen, t) {
					chosen = append(chosen, t)
				}
				continue
			}
			for t := int32(0); int(t) < u; t++ {
				if !contains(chosen, t) {
					chosen = append(chosen, t)
					break
				}
			}
		}
		for _, t := range chosen {
			addEdge(u, int(t))
		}
	}
	return newOverlay(ScaleFree, adj)
}

// generateWAN builds a clustered WAN overlay: members are split into
// `zones` contiguous index ranges (zone z covers [z·n/Z, (z+1)·n/Z), the
// same layout scenario zone-crash actions and shard blocks use); each
// member draws min(k, zoneSize−1) distinct intra-zone out-neighbors plus
// one bridge arc to a uniformly random member of a uniformly random
// other zone. Intra-zone arcs keep clusters dense; one bridge per member
// keeps the zone digraph strongly connected in expectation while
// inter-zone traffic — the expensive, high-latency arcs under
// ZoneLatency — stays ~1/(k+1) of the total.
func generateWAN(n, zones, k int, r *xrand.RNG) *Overlay {
	adj := make([][]int32, n)
	buf := make([]int, 0, k)
	for u := 0; u < n; u++ {
		z := ((u+1)*zones - 1) / n
		lo, hi := z*n/zones, (z+1)*n/zones
		sz := hi - lo
		kz := k
		if kz > sz-1 {
			kz = sz - 1
		}
		nb := make([]int32, 0, kz+1)
		if kz > 0 {
			buf = r.SampleExcluding(buf[:0], sz, kz, u-lo)
			for _, t := range buf {
				nb = append(nb, int32(lo+t))
			}
		}
		// Bridge arc: a different zone, then a uniform member of it.
		oz := r.Intn(zones - 1)
		if oz >= z {
			oz++
		}
		blo, bhi := oz*n/zones, (oz+1)*n/zones
		nb = append(nb, int32(blo+r.Intn(bhi-blo)))
		adj[u] = nb
	}
	return newOverlay(WAN, adj)
}
