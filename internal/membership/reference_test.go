package membership

// The SCAMP view code as it stood before the stamp array and the carved
// rows, kept verbatim (receiver renamed, nothing else) as the oracle of
// TestPartialViewsMatchReference and FuzzPartialViewsVsReference: a linear
// membership scan per hop, one heap slice per view, fresh slices per
// shuffle pick and per sample. It is compiled under `go test` only. The one
// addition is refViews.hops, which counts integrate's loop iterations so
// BenchmarkPartialViewsBuild's hops/op can be checked against the oracle's.

import (
	"fmt"

	"gossipkit/internal/xrand"
)

type refViews struct {
	views [][]int32
	hops  int
}

func newRefViews(n, c int, r *xrand.RNG) *refViews {
	if n < 2 {
		panic(fmt.Sprintf("membership: invalid group size %d", n))
	}
	if c < 0 {
		panic(fmt.Sprintf("membership: invalid copy count %d", c))
	}
	pv := &refViews{views: make([][]int32, n)}
	// Bootstrap: member 1 joins via member 0.
	pv.add(0, 1)
	pv.add(1, 0)
	for id := 2; id < n; id++ {
		contact := r.Intn(id)
		// The contact keeps the newcomer and forwards the subscription
		// to all of its view plus c extra random-walk copies.
		targets := append([]int32(nil), pv.views[contact]...)
		for i := 0; i < c; i++ {
			v := pv.views[contact]
			targets = append(targets, v[r.Intn(len(v))])
		}
		pv.add(contact, id)
		// The newcomer learns the contact.
		pv.add(id, contact)
		for _, t := range targets {
			pv.integrate(int(t), id, r)
		}
	}
	return pv
}

// integrate runs the SCAMP keep-or-forward random walk for a forwarded
// subscription of newcomer arriving at node.
func (pv *refViews) integrate(node, newcomer int, r *xrand.RNG) {
	for hops := 0; hops < 10*len(pv.views); hops++ {
		pv.hops++
		if node != newcomer && !pv.contains(node, newcomer) {
			if r.Float64() < 1/float64(1+len(pv.views[node])) {
				pv.add(node, newcomer)
				return
			}
		}
		v := pv.views[node]
		if len(v) == 0 {
			pv.add(node, newcomer)
			return
		}
		node = int(v[r.Intn(len(v))])
	}
	// Random walk failed to place the subscription (pathological view
	// graph); keep it at the current node to preserve connectivity.
	if node != newcomer {
		pv.add(node, newcomer)
	}
}

func (pv *refViews) add(node, member int) {
	if node == member || pv.contains(node, member) {
		return
	}
	pv.views[node] = append(pv.views[node], int32(member))
}

func (pv *refViews) contains(node, member int) bool {
	for _, v := range pv.views[node] {
		if int(v) == member {
			return true
		}
	}
	return false
}

func (pv *refViews) SampleTargets(dst []int, self, k int, r *xrand.RNG) []int {
	if dst == nil {
		dst = make([]int, 0, k)
	}
	dst = dst[:0]
	v := pv.views[self]
	if k >= len(v) {
		for _, t := range v {
			dst = append(dst, int(t))
		}
		r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
		return dst
	}
	// Partial Fisher–Yates over indices via Floyd's algorithm on index
	// space.
	idx := r.SampleInts(nil, len(v), k)
	for _, i := range idx {
		dst = append(dst, int(v[i]))
	}
	return dst
}

func (pv *refViews) Shuffle(rounds, swap int, r *xrand.RNG) {
	if swap <= 0 || rounds <= 0 {
		return
	}
	n := len(pv.views)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for round := 0; round < rounds; round++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, self := range order {
			v := pv.views[self]
			if len(v) == 0 {
				continue
			}
			peer := int(v[r.Intn(len(v))])
			pv.exchange(self, peer, swap, r)
		}
	}
}

// exchange swaps up to k view entries between a and b.
func (pv *refViews) exchange(a, b, k int, r *xrand.RNG) {
	sendA := pv.pickEntries(a, k, r)
	sendB := pv.pickEntries(b, k, r)
	pv.replaceEntries(a, sendA, sendB, b)
	pv.replaceEntries(b, sendB, sendA, a)
}

// pickEntries selects up to k distinct view positions of node and returns
// the entries.
func (pv *refViews) pickEntries(node, k int, r *xrand.RNG) []int32 {
	v := pv.views[node]
	if k > len(v) {
		k = len(v)
	}
	idx := r.SampleInts(nil, len(v), k)
	out := make([]int32, 0, k)
	for _, i := range idx {
		out = append(out, v[i])
	}
	return out
}

// replaceEntries removes the sent entries from node's view and integrates
// the received ones (skipping self-pointers and duplicates). The peer
// itself is always retained or added so exchanges never disconnect pairs.
func (pv *refViews) replaceEntries(node int, sent, received []int32, peer int) {
	v := pv.views[node][:0]
	for _, e := range pv.views[node] {
		drop := false
		for _, s := range sent {
			if e == s {
				drop = true
				break
			}
		}
		if !drop {
			v = append(v, e)
		}
	}
	pv.views[node] = v
	for _, e := range received {
		pv.add(node, int(e))
	}
	pv.add(node, peer)
}

func (pv *refViews) Unsubscribe(id int, r *xrand.RNG) int {
	if id < 0 || id >= len(pv.views) {
		return 0
	}
	donated := 0
	donors := append([]int32(nil), pv.views[id]...)
	for node := range pv.views {
		if node == id {
			continue
		}
		v := pv.views[node]
		w := v[:0]
		for _, e := range v {
			if int(e) != id {
				w = append(w, e)
				continue
			}
			// Try to donate one of the leaver's contacts.
			for tries := 0; tries < 4 && len(donors) > 0; tries++ {
				d := donors[r.Intn(len(donors))]
				if int(d) != node && !pv.contains(node, int(d)) {
					w = append(w, d)
					donated++
					break
				}
			}
		}
		pv.views[node] = w
	}
	pv.views[id] = nil
	return donated
}

func (pv *refViews) Subscribe(id, contact, copies int, r *xrand.RNG) {
	for id >= len(pv.views) {
		pv.views = append(pv.views, nil)
	}
	if contact < 0 || contact >= len(pv.views) || contact == id {
		return
	}
	targets := append([]int32(nil), pv.views[contact]...)
	for i := 0; i < copies; i++ {
		v := pv.views[contact]
		if len(v) == 0 {
			break
		}
		targets = append(targets, v[r.Intn(len(v))])
	}
	pv.add(contact, id)
	pv.add(id, contact)
	for _, t := range targets {
		pv.integrate(int(t), id, r)
	}
}
