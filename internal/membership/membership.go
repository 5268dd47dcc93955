// Package membership provides the membership substrate the paper assumes
// ("we assume that a scalable membership protocol is available, such as
// SCAMP [12]"). Two view implementations are offered:
//
//   - FullView: every member knows every other member. This matches the
//     paper's analytic assumption that gossip targets are drawn uniformly
//     from the whole group, and is the view used for all figure
//     reproductions.
//
//   - PartialViews: size-bounded local views built by a SCAMP-inspired
//     subscription process and optionally mixed by Cyclon-style shuffles.
//     Used by ablation A5 to quantify how partial knowledge perturbs the
//     model's predictions, by the scenario runner under PartialViewCopies
//     and by the lpbcast and RDG baselines, which build them every run
//     (through a ViewMemo inside a campaign sweep; see below).
//
// A View's single obligation is target sampling: draw k distinct gossip
// targets for a member, never including the member itself.
//
// # What partial views cost
//
// A build is a sequence of keep-or-forward random walks, and its cost is
// the number of hops they take: 443,823 at n = 10³ with c = 2 extra copies
// (5.4 ms at ≈ 12 ns a hop), 7.0·10⁶ at n = 10⁴ (0.12 s), 9.5·10⁷ at
// n = 10⁵ (8–10 s — there every hop is two dependent cache misses over
// 40 MB of views, ≈ 90 ns). Nothing else in the build is allowed to cost:
// the walk's membership question is a stamp lookup (joiner.holds), the
// views are carved out of one arena and spill to the heap through plain
// append, and there is one walk (joiner.walk) under both NewPartialViews
// and Subscribe. Shuffle keeps its scratch on the receiver and allocates
// nothing once warm. SampleTargets only reads the receiver, because one
// PartialViews is shared by all shard kernels of a run, and allocates
// nothing into a warm dst.
//
// A campaign sweep builds each (n, c, seed) view set once. The sweep seeds
// a cell's runs without its protocol row, so the lpbcast and RDG rows of
// one (scenario, seed) build and shuffle their views from the same
// generator state. The sweep's ViewMemo (memo.go) hands the second row a
// snapshot of the first row's views and the generator state the build left
// behind instead of building them again: the same views, the same draws.
//
// # Why the draws may not change
//
// Every result is a function of the order in which the random stream is
// consumed and of the order of entries inside each view (targets are drawn
// by position). Golden files and digests pin both: scenario's suite.golden
// (run under PartialViewCopies 2), the protocols package's 25-seed
// equivalence with its oracle loops, and the benchmark's compare_grid
// digest. So an optimisation here may change what a hop costs, never how
// many hops there are or which draw decides them; reference_test.go keeps
// the previous implementation as the oracle that
// TestPartialViewsMatchReference and FuzzPartialViewsVsReference hold this
// one to. Run them after touching this package.
package membership

import (
	"fmt"
	"math/bits"

	"gossipkit/internal/xrand"
)

// View supplies gossip targets for members 0..N-1.
type View interface {
	// N returns the group size.
	N() int
	// SampleTargets appends k distinct targets for member self to dst
	// (len 0) and returns it. Fewer than k targets are returned when the
	// view of self is smaller than k. The result never contains self.
	SampleTargets(dst []int, self, k int, r *xrand.RNG) []int
	// Degree returns the number of members visible to self.
	Degree(self int) int
}

// ---------------------------------------------------------------------------
// FullView

// FullView is complete knowledge: every member sees all n-1 others.
type FullView struct{ n int }

// NewFullView returns a full view over n members.
func NewFullView(n int) FullView {
	if n < 1 {
		panic(fmt.Sprintf("membership: invalid group size %d", n))
	}
	return FullView{n: n}
}

// N implements View.
func (v FullView) N() int { return v.n }

// Degree implements View.
func (v FullView) Degree(self int) int { return v.n - 1 }

// SampleTargets implements View by uniform sampling without replacement
// from all other members.
func (v FullView) SampleTargets(dst []int, self, k int, r *xrand.RNG) []int {
	return r.SampleExcluding(dst, v.n, k, self)
}

// ---------------------------------------------------------------------------
// PartialViews

// PartialViews holds one bounded local view per member.
type PartialViews struct {
	// views[i] is member i's view, in the order its entries arrived
	// (targets are drawn by position, so the order is part of the result).
	// A build carves every view out of one arena as a zero-length row of
	// fixed capacity; a view that outgrows its row moves to the heap
	// through plain append, and nothing else knows the difference.
	views [][]int32

	// Shuffle's working storage, kept across calls so that mixing
	// allocates nothing once warm. SampleTargets must not touch it: shard
	// kernels sample one shared PartialViews concurrently.
	order        []int
	picks        []int
	sendA, sendB []int32
}

// forceStride, when non-zero, replaces rowStride's answer. Only tests set
// it: strides 1 and 2 make every view outgrow its row.
var forceStride int

// rowStride is the capacity of one carved row, 2·(c+1)·⌈log₂ n⌉ entries:
// about twice the mean view size, above the largest view a build was seen
// to produce (51 / 63 / 76 at n = 10³ / 10⁴ / 10⁵ for c = 2, against rows
// of 60 / 84 / 102). It never exceeds n-1, the most a view can hold, and c
// is clamped to n first so that the product cannot overflow.
func rowStride(n, c int) int {
	if forceStride > 0 {
		return forceStride
	}
	return min(2*(min(c, n)+1)*bits.Len(uint(n-1)), n-1)
}

// NewPartialViews builds per-member views with a SCAMP-inspired
// subscription process: members join one at a time; the newcomer's
// subscription is forwarded from a random contact to each of the contact's
// view entries plus c extra copies, and every recipient of a forwarded
// subscription either keeps it (with probability 1/(1+len(view))) or
// forwards it to a random view member. The resulting views grow with
// (c+1)·log(n), SCAMP's signature property: the measured mean is 24.1 /
// 32.4 / 40.2 entries at n = 10³ / 10⁴ / 10⁵ for c = 2.
//
// c must be >= 0; n >= 2. The process is deterministic given r.
func NewPartialViews(n, c int, r *xrand.RNG) *PartialViews {
	pv, _ := buildPartialViews(n, c, r)
	return pv
}

// buildPartialViews is NewPartialViews plus the number of random-walk hops
// the build took, the quantity its cost is proportional to.
func buildPartialViews(n, c int, r *xrand.RNG) (*PartialViews, int) {
	if n < 2 {
		panic(fmt.Sprintf("membership: invalid group size %d", n))
	}
	if c < 0 {
		panic(fmt.Sprintf("membership: invalid copy count %d", c))
	}
	s := rowStride(n, c)
	arena := make([]int32, n*s)
	pv := &PartialViews{views: make([][]int32, n)}
	for i := range pv.views {
		pv.views[i] = arena[i*s : i*s : (i+1)*s]
	}
	// Bootstrap: member 1 joins via member 0.
	pv.views[0] = append(pv.views[0], 1)
	pv.views[1] = append(pv.views[1], 0)
	// The zeroed stamps read "holds newcomer 0", which nobody asks: the
	// first newcomer is 2.
	j := joiner{pv: pv, holds: make([]int32, n)}
	for id := 2; id < n; id++ {
		j.join(id, r.Intn(id), c, r)
	}
	return pv, j.hops
}

// joiner subscribes newcomers. holds is the stamp array that makes the
// walk's membership question O(1): holds[node] == id exactly when
// views[node] already holds newcomer id. Stamps are written wherever a join
// appends the newcomer and are never cleared, which is sound because views
// only grow during a join and every newcomer of a build has a larger id
// than the last, so a stale stamp never equals the current one. Subscribe,
// whose newcomer may be any id, seeds the stamps with one pass instead.
type joiner struct {
	pv      *PartialViews
	holds   []int32
	targets []int32 // the forwarded copies' first stops, reused per newcomer
	hops    int
}

// join subscribes newcomer id through contact: the contact keeps the
// newcomer, the newcomer learns the contact, and the subscription is
// forwarded to all of the contact's view plus c extra random-walk copies.
func (j *joiner) join(id, contact, c int, r *xrand.RNG) {
	v := j.pv.views[contact]
	targets := append(j.targets[:0], v...)
	for i := 0; i < c && len(v) > 0; i++ {
		targets = append(targets, v[r.Intn(len(v))])
	}
	j.targets = targets
	j.keep(contact, int32(id))
	j.pv.add(id, contact)
	for _, t := range targets {
		j.walk(int(t), int32(id), r)
	}
}

// keep appends newcomer id to node's view unless node is the newcomer or
// already holds it.
func (j *joiner) keep(node int, id int32) {
	if int32(node) != id && j.holds[node] != id {
		j.pv.views[node] = append(j.pv.views[node], id)
		j.holds[node] = id
	}
}

// keepTable[l] is 1/float64(1+l), the probability that a view of l entries
// keeps a forwarded subscription, computed once by the expression the walk
// would otherwise evaluate (a float division) on every hop.
var keepTable = func() (t [256]float64) {
	for l := range t {
		t[l] = 1 / float64(1+l)
	}
	return t
}()

func keepProb(l int) float64 {
	if l < len(keepTable) {
		return keepTable[l]
	}
	return 1 / float64(1+l)
}

// walk runs the SCAMP keep-or-forward random walk for a forwarded
// subscription of newcomer id arriving at node: each node it visits keeps
// the subscription with probability 1/(1+len(view)) — if it may: it is not
// the newcomer and does not hold it yet — or forwards it to a random view
// entry. A walk that runs into an empty view or out of hops (a pathological
// view graph) leaves the subscription where it stands, to preserve
// connectivity. It is the only walk: a build and a Subscribe differ in how
// holds was seeded, not here.
func (j *joiner) walk(node int, id int32, r *xrand.RNG) {
	views, holds := j.pv.views, j.holds
	limit := 10 * len(views)
	hop := 0
	for ; hop < limit; hop++ {
		v := views[node]
		if int32(node) != id && holds[node] != id && r.Float64() < keepProb(len(v)) {
			break
		}
		if len(v) == 0 {
			break
		}
		node = int(v[r.Intn(len(v))])
	}
	j.keep(node, id)
	j.hops += min(hop+1, limit)
}

func (pv *PartialViews) add(node, member int) {
	if node == member || pv.contains(node, member) {
		return
	}
	pv.views[node] = append(pv.views[node], int32(member))
}

func (pv *PartialViews) contains(node, member int) bool {
	for _, v := range pv.views[node] {
		if int(v) == member {
			return true
		}
	}
	return false
}

// N implements View.
func (pv *PartialViews) N() int { return len(pv.views) }

// Degree implements View.
func (pv *PartialViews) Degree(self int) int { return len(pv.views[self]) }

// View returns a copy of self's view.
func (pv *PartialViews) View(self int) []int {
	out := make([]int, len(pv.views[self]))
	for i, v := range pv.views[self] {
		out[i] = int(v)
	}
	return out
}

// SampleTargets implements View by sampling without replacement from self's
// local view. It only reads the receiver — the indices are drawn straight
// into dst and mapped to entries in place — because one PartialViews is
// shared by every shard kernel of a run.
func (pv *PartialViews) SampleTargets(dst []int, self, k int, r *xrand.RNG) []int {
	if dst == nil {
		dst = make([]int, 0, k)
	}
	v := pv.views[self]
	if k >= len(v) {
		dst = dst[:0]
		for _, t := range v {
			dst = append(dst, int(t))
		}
		xrand.ShuffleSlice(r, dst)
		return dst
	}
	dst = sampleIndices(dst, len(v), k, r)
	for i, at := range dst {
		dst[i] = int(v[at])
	}
	return dst
}

// sampleIndices is r.SampleInts(dst, n, k) — the same draws, the same
// result — minus the n-sized scratch SampleInts allocates on its dense
// branch (k·4 > n): a view is tens of entries, so the same partial
// Fisher–Yates runs over a stack buffer. Sizes beyond the buffer, and the
// branches that never allocated, go to SampleInts itself.
func sampleIndices(dst []int, n, k int, r *xrand.RNG) []int {
	const maxStack = 128
	k = min(k, n)
	if k*4 <= n || n > maxStack {
		return r.SampleInts(dst, n, k)
	}
	var perm [maxStack]int32
	for i := range perm[:n] {
		perm[i] = int32(i)
	}
	dst = dst[:0]
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		dst = append(dst, int(perm[i]))
	}
	return dst
}

// Shuffle performs rounds of Cyclon-style view mixing: in each round every
// member (in random order) exchanges up to swap entries with a random view
// neighbor; both sides replace the sent entries with the received ones,
// deduplicating and never pointing at themselves. Shuffling equalizes
// in-degrees, improving the uniformity assumption the analytic model makes.
func (pv *PartialViews) Shuffle(rounds, swap int, r *xrand.RNG) {
	if swap <= 0 || rounds <= 0 {
		return
	}
	n := len(pv.views)
	if cap(pv.order) < n {
		pv.order = make([]int, n)
	}
	order := pv.order[:n]
	for i := range order {
		order[i] = i
	}
	for round := 0; round < rounds; round++ {
		xrand.ShuffleSlice(r, order)
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
func (pv *PartialViews) exchange(a, b, k int, r *xrand.RNG) {
	pv.sendA = pv.pickEntries(pv.sendA[:0], a, k, r)
	pv.sendB = pv.pickEntries(pv.sendB[:0], b, k, r)
	pv.replaceEntries(a, pv.sendA, pv.sendB, b)
	pv.replaceEntries(b, pv.sendB, pv.sendA, a)
}

// pickEntries selects up to k distinct view positions of node and appends
// the entries to dst.
func (pv *PartialViews) pickEntries(dst []int32, node, k int, r *xrand.RNG) []int32 {
	v := pv.views[node]
	pv.picks = sampleIndices(pv.picks, len(v), k, r)
	for _, at := range pv.picks {
		dst = append(dst, v[at])
	}
	return dst
}

// replaceEntries removes the sent entries from node's view and integrates
// the received ones (skipping self-pointers and duplicates). The peer
// itself is always retained or added so exchanges never disconnect pairs.
func (pv *PartialViews) replaceEntries(node int, sent, received []int32, peer int) {
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

// DegreeStats summarizes view sizes (out-degrees) and in-degrees.
type DegreeStats struct {
	MeanOut float64
	MaxOut  int
	MinOut  int
	MeanIn  float64
	MaxIn   int
	MinIn   int
}

// Stats computes degree statistics over all members.
func (pv *PartialViews) Stats() DegreeStats {
	n := len(pv.views)
	in := make([]int, n)
	st := DegreeStats{MinOut: int(^uint(0) >> 1)}
	var sumOut int
	for node, v := range pv.views {
		_ = node
		d := len(v)
		sumOut += d
		if d > st.MaxOut {
			st.MaxOut = d
		}
		if d < st.MinOut {
			st.MinOut = d
		}
		for _, t := range v {
			in[t]++
		}
	}
	st.MeanOut = float64(sumOut) / float64(n)
	st.MinIn = int(^uint(0) >> 1)
	var sumIn int
	for _, d := range in {
		sumIn += d
		if d > st.MaxIn {
			st.MaxIn = d
		}
		if d < st.MinIn {
			st.MinIn = d
		}
	}
	st.MeanIn = float64(sumIn) / float64(n)
	return st
}
