package topology

import (
	"fmt"
	"sort"
	"testing"

	"gossipkit/internal/membership"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// Overlay must satisfy the membership seam every executor samples through.
var _ membership.View = (*Overlay)(nil)

// naiveKOut is the embedded reference generator for the differential test:
// it consumes the identical RNG stream as generateKOut (one SampleExcluding
// per member, in member order) but builds plain nested slices with none of
// the Overlay's flat-arc packing, so any drift in arc order, offsets, or
// flattening shows up as an exact mismatch.
func naiveKOut(n, k int, r *xrand.RNG) [][]int {
	if k > n-1 {
		k = n - 1
	}
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		adj[u] = r.SampleExcluding(nil, n, k, u)
	}
	return adj
}

func TestKOutDifferentialReference(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{2, 1}, {5, 3}, {10, 4}, {10, 20}, {100, 7}, {257, 9}, {1000, 10},
	} {
		for seed := uint64(0); seed < 25; seed++ {
			ov := generateKOut(tc.n, tc.k, xrand.New(seed))
			want := naiveKOut(tc.n, tc.k, xrand.New(seed))
			for u := 0; u < tc.n; u++ {
				nb := ov.Neighbors(u)
				if len(nb) != len(want[u]) {
					t.Fatalf("n=%d k=%d seed=%d: member %d has %d neighbors, reference %d",
						tc.n, tc.k, seed, u, len(nb), len(want[u]))
				}
				for i, v := range nb {
					if int(v) != want[u][i] {
						t.Fatalf("n=%d k=%d seed=%d: member %d arc %d = %d, reference %d",
							tc.n, tc.k, seed, u, i, v, want[u][i])
					}
				}
			}
		}
	}
}

func TestKOutExactDegrees(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 1}, {10, 4}, {10, 15}, {500, 9}} {
		ov := generateKOut(tc.n, tc.k, xrand.New(42))
		want := min(tc.k, tc.n-1)
		for u := 0; u < tc.n; u++ {
			if ov.Degree(u) != want {
				t.Fatalf("n=%d k=%d: member %d out-degree %d, want exactly %d",
					tc.n, tc.k, u, ov.Degree(u), want)
			}
		}
		checkInvariants(t, ov)
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	const n, m = 400, 3
	for seed := uint64(0); seed < 25; seed++ {
		ov := generateBarabasiAlbert(n, m, xrand.New(seed))
		checkInvariants(t, ov)

		// Undirected: every arc appears in both directions.
		arcSet := make(map[[2]int32]bool)
		for u := 0; u < n; u++ {
			for _, v := range ov.Neighbors(u) {
				arcSet[[2]int32{int32(u), v}] = true
			}
		}
		for a := range arcSet {
			if !arcSet[[2]int32{a[1], a[0]}] {
				t.Fatalf("seed %d: arc %d->%d has no reverse", seed, a[0], a[1])
			}
		}

		// Edge count: seed clique C(m+1,2) plus m per arriving member,
		// each edge stored as two arcs.
		wantArcs := 2 * (m*(m+1)/2 + (n-m-1)*m)
		if ov.Arcs() != wantArcs {
			t.Fatalf("seed %d: %d arcs, want %d", seed, ov.Arcs(), wantArcs)
		}

		// Preferential attachment concentrates degree: the maximum degree
		// must clearly exceed the 2m mean (a uniform random graph of the
		// same size stays near it), and connectivity must hold by
		// construction.
		maxDeg := 0
		for u := 0; u < n; u++ {
			maxDeg = max(maxDeg, ov.Degree(u))
		}
		if maxDeg < 4*m {
			t.Fatalf("seed %d: max degree %d shows no hub (mean degree %d)", seed, maxDeg, 2*m)
		}
		if reach := bfsReach(ov, 0); reach != n {
			t.Fatalf("seed %d: BA overlay disconnected, reached %d/%d", seed, reach, n)
		}
	}
}

func TestWANProperties(t *testing.T) {
	for _, tc := range []struct{ n, zones, k int }{
		{10, 3, 2}, {100, 4, 5}, {97, 5, 3}, {1000, 8, 6}, {12, 12, 1},
	} {
		for seed := uint64(0); seed < 25; seed++ {
			ov := generateWAN(tc.n, tc.zones, tc.k, xrand.New(seed))
			checkInvariants(t, ov)
			// The zone map production runs is ZoneLatency's: the overlay's
			// clusters must be laid out the way the latency matrix reads them.
			zl := NewZoneLatency(tc.n, tc.zones, 0, 0)
			for u := 0; u < tc.n; u++ {
				z := zl.zone(simnet.NodeID(u))
				lo, hi := z*tc.n/tc.zones, (z+1)*tc.n/tc.zones
				// Zone layout property: the zone formula must invert the
				// contiguous boundary layout exactly.
				if u < lo || u >= hi {
					t.Fatalf("n=%d Z=%d: member %d assigned zone %d covering [%d,%d)",
						tc.n, tc.zones, u, z, lo, hi)
				}
				// Exactly one bridge arc leaves the zone; the rest are
				// intra-zone.
				bridges := 0
				for _, v := range ov.Neighbors(u) {
					if zl.zone(simnet.NodeID(v)) != z {
						bridges++
					}
				}
				if bridges != 1 {
					t.Fatalf("n=%d Z=%d seed=%d: member %d has %d inter-zone arcs, want 1",
						tc.n, tc.zones, seed, u, bridges)
				}
				sz := hi - lo
				if want := min(tc.k, sz-1) + 1; ov.Degree(u) != want {
					t.Fatalf("n=%d Z=%d: member %d degree %d, want %d", tc.n, tc.zones, u, ov.Degree(u), want)
				}
			}
		}
	}
}

func TestZoneFormulaBoundaries(t *testing.T) {
	// For every layout: zone z covers exactly [z·n/Z, (z+1)·n/Z).
	for _, n := range []int{2, 3, 7, 10, 97, 256, 1000} {
		for zones := 2; zones <= min(n, 16); zones++ {
			zl := NewZoneLatency(n, zones, 0, 0)
			for z := 0; z < zones; z++ {
				for u := z * n / zones; u < (z+1)*n/zones; u++ {
					if got := zl.zone(simnet.NodeID(u)); got != z {
						t.Fatalf("n=%d Z=%d: zone(%d) = %d, want %d", n, zones, u, got, z)
					}
				}
			}
		}
	}
}

func TestOverlayRemoveRestoreRoundTrip(t *testing.T) {
	const n = 200
	ov := generateKOut(n, 6, xrand.New(7))
	before := snapshotNeighbors(ov)

	r := xrand.New(99)
	removed := r.SampleInts(nil, n, 60)
	retired := 0
	for _, v := range removed {
		retired += ov.Remove(v)
		if !ov.down[v] {
			t.Fatalf("member %d not down after Remove", v)
		}
		if again := ov.Remove(v); again != 0 {
			t.Fatalf("double Remove(%d) retired %d arcs, want 0", v, again)
		}
	}
	down := make(map[int]bool, len(removed))
	for _, v := range removed {
		down[v] = true
	}
	// Live neighbor sets must contain no removed member.
	for u := 0; u < n; u++ {
		for _, v := range ov.Neighbors(u) {
			if down[int(v)] {
				t.Fatalf("member %d still lists removed %d", u, v)
			}
		}
	}

	restored := 0
	for _, v := range removed {
		restored += ov.Restore(v)
		if again := ov.Restore(v); again != 0 {
			t.Fatalf("double Restore(%d) restored %d arcs, want 0", v, again)
		}
	}
	if retired != restored {
		t.Fatalf("retired %d arcs but restored %d", retired, restored)
	}
	// The neighbor sets must match the originals (order within a set may
	// differ after swap-retirement).
	after := snapshotNeighbors(ov)
	for u := 0; u < n; u++ {
		sort.Ints(before[u])
		sort.Ints(after[u])
		if fmt.Sprint(before[u]) != fmt.Sprint(after[u]) {
			t.Fatalf("member %d neighbors changed across remove/restore: %v -> %v", u, before[u], after[u])
		}
	}
}

func TestOverlaySampleTargets(t *testing.T) {
	ov := generateKOut(50, 8, xrand.New(3))
	r := xrand.New(11)
	for u := 0; u < 50; u++ {
		nbSet := make(map[int]bool)
		for _, v := range ov.Neighbors(u) {
			nbSet[int(v)] = true
		}
		for _, k := range []int{1, 3, 8, 20} {
			got := ov.SampleTargets(nil, u, k, r)
			if want := min(k, ov.Degree(u)); len(got) != want {
				t.Fatalf("member %d k=%d: %d targets, want %d", u, k, len(got), want)
			}
			seen := make(map[int]bool)
			for _, v := range got {
				if v == u {
					t.Fatalf("member %d sampled itself", u)
				}
				if !nbSet[v] {
					t.Fatalf("member %d sampled non-neighbor %d", u, v)
				}
				if seen[v] {
					t.Fatalf("member %d sampled duplicate %d", u, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	// Same spec + same parent state → byte-identical arcs: Split does not
	// advance the parent, so any number of sibling splits taken from the
	// same (unconsumed) state replay the same overlay. This is the
	// contract the scenario runner's corrected prediction relies on to
	// rebuild the executor's overlay after the run.
	for _, spec := range []Spec{
		{Kind: KOut, K: 7},
		{Kind: ScaleFree, K: 3},
		{Kind: WAN, Zones: 4, K: 5},
	} {
		root := xrand.New(2008)
		a, err := spec.Build(300, root.Split(Split))
		if err != nil {
			t.Fatal(err)
		}
		root.Split(0x5ce9a810) // sibling splits must not perturb the stream
		b, err := spec.Build(300, root.Split(Split))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.arcs) != fmt.Sprint(b.arcs) {
			t.Fatalf("%s: rebuild from the same split differs", spec)
		}
	}
	// Uniform builds no overlay at all.
	if ov, err := (Spec{}).Build(100, xrand.New(1)); err != nil || ov != nil {
		t.Fatalf("uniform Build = (%v, %v), want (nil, nil)", ov, err)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, s := range []string{"uniform", "kout", "kout:8", "ba", "ba:3", "wan:4", "wan:4:6"} {
		spec, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Fatalf("Parse(%q).String() = %q", s, got)
		}
		if _, err := Parse(spec.String()); err != nil {
			t.Fatalf("re-Parse(%q): %v", spec, err)
		}
	}
	for _, s := range []string{"", "mesh", "kout:0", "kout:-1", "kout:x", "wan", "wan:1", "wan:0:3", "wan:4:0", "uniform:2", "kout:1:2"} {
		if spec, err := Parse(s); err == nil && s != "" {
			t.Fatalf("Parse(%q) = %v, want error", s, spec)
		}
	}
	// "" parses as uniform (flag default friendliness).
	if spec, err := Parse(""); err != nil || !spec.IsUniform() {
		t.Fatalf("Parse(\"\") = (%v, %v), want uniform", spec, err)
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		n    int
		ok   bool
	}{
		{Spec{}, 10, true},
		{Spec{Kind: KOut, K: 5}, 10, true},
		{Spec{Kind: KOut, K: -1}, 10, false},
		{Spec{Kind: WAN, Zones: 3}, 10, true},
		{Spec{Kind: WAN, Zones: 1}, 10, false},
		{Spec{Kind: WAN, Zones: 11}, 10, false},
		{Spec{Kind: Kind(99)}, 10, false},
	} {
		err := tc.spec.Validate(tc.n)
		if (err == nil) != tc.ok {
			t.Fatalf("Validate(%+v, n=%d) = %v, want ok=%v", tc.spec, tc.n, err, tc.ok)
		}
	}
}

// checkInvariants asserts the structural contract every generator must
// hold: no self-loops, no duplicate arcs per member, every target in
// range, and an in-adjacency index consistent with the out-arcs.
func checkInvariants(t *testing.T, ov *Overlay) {
	t.Helper()
	n := ov.N()
	inCount := make(map[[2]int32]int)
	for u := 0; u < n; u++ {
		seen := make(map[int32]bool)
		for _, v := range ov.Neighbors(u) {
			if int(v) == u {
				t.Fatalf("member %d has a self-loop", u)
			}
			if v < 0 || int(v) >= n {
				t.Fatalf("member %d has out-of-range neighbor %d (n=%d)", u, v, n)
			}
			if seen[v] {
				t.Fatalf("member %d lists %d twice", u, v)
			}
			seen[v] = true
			inCount[[2]int32{int32(u), v}]++
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range ov.inArcs[ov.inOff[v]:ov.inOff[v+1]] {
			key := [2]int32{u, int32(v)}
			if inCount[key] == 0 {
				t.Fatalf("in-adjacency lists arc %d->%d absent from out-arcs", u, v)
			}
			inCount[key]--
		}
	}
	for key, c := range inCount {
		if c != 0 {
			t.Fatalf("arc %d->%d missing from in-adjacency", key[0], key[1])
		}
	}
}

// bfsReach counts members reachable from src following live out-arcs.
func bfsReach(ov *Overlay, src int) int {
	seen := make([]bool, ov.N())
	queue := []int{src}
	seen[src] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range ov.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, int(v))
			}
		}
	}
	return count
}

func snapshotNeighbors(ov *Overlay) [][]int {
	out := make([][]int, ov.N())
	for u := 0; u < ov.N(); u++ {
		for _, v := range ov.Neighbors(u) {
			out[u] = append(out[u], int(v))
		}
	}
	return out
}

func FuzzBuildInvariants(f *testing.F) {
	f.Add(uint8(1), 10, 3, 2, uint64(42))
	f.Add(uint8(2), 50, 2, 3, uint64(7))
	f.Add(uint8(3), 30, 4, 5, uint64(0))
	f.Add(uint8(1), 2, 1, 2, uint64(1))
	f.Fuzz(func(t *testing.T, kind uint8, n, k, zones int, seed uint64) {
		spec := Spec{Kind: Kind(kind%3 + 1)}
		n = n%500 + 2
		spec.K = abs(k) % 32
		if spec.Kind == WAN {
			spec.Zones = abs(zones)%n + 1
		}
		ov, err := spec.Build(n, xrand.New(seed))
		if err != nil {
			return // invalid spec (e.g. wan with 1 zone) is fine to reject
		}
		checkInvariants(t, ov)
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
