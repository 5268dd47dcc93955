// Package failure implements the paper's fail-stop failure model: a member
// either works correctly for the whole execution or has crashed (before
// receiving the message, or after receiving it but before forwarding — the
// paper treats the two cases identically, so the simulators model one).
//
// The central object is the Mask: which members are alive for one execution.
// Two generators are provided, matching two readings of the paper's
// "nonfailed member ratio q":
//
//   - Mask.FillExact: exactly ⌊n·q⌋ alive members ("it is
//     trivial that the number of nonfailed nodes equals n*q", paper §4.1) —
//     the default for figure reproduction.
//   - Mask.FillBernoulli: each member alive independently with probability
//     q — the percolation model's own assumption.
//
// For large n the two are interchangeable; both keep the source alive
// (the paper assumes the source never fails).
package failure

import (
	"fmt"

	"gossipkit/internal/bitset"
	"gossipkit/internal/xrand"
)

// Mask records which members are alive during one execution. The alive
// flags are stored as a packed bitset (n/8 bytes, not n), and a Mask can be
// redrawn in place with FillExact/FillBernoulli: it retains its bit storage
// and sampling scratch across redraws, so a pooled mask (core.NetArena
// keeps one per arena) costs zero allocations per run after warm-up.
type Mask struct {
	alive bitset.Bits
	count int

	// scratch pools the sampler's working storage across Fill* redraws;
	// sampled alive ids stream straight into the bitset, so the mask
	// holds no per-member pick list.
	scratch xrand.Scratch
}

// NewMask returns a mask with all n members alive.
func NewMask(n int) *Mask {
	if n < 0 {
		panic(fmt.Sprintf("failure: negative group size %d", n))
	}
	m := &Mask{count: n}
	m.alive.Reset(n)
	m.alive.SetAll()
	return m
}

// FillExact redraws m in place with exactly max(1, ⌊n·q⌋) alive members
// chosen uniformly at random, always including protect (the source),
// reusing m's bit storage and sampling scratch. q must be in [0, 1]; even
// q=0 keeps the protected source alive, matching the paper. The random
// stream consumed depends on (n, q, protect) only, so pooled and fresh
// masks yield byte-identical executions.
func (m *Mask) FillExact(n int, q float64, protect int, r *xrand.RNG) {
	checkArgs(n, q, protect)
	target := int(float64(n) * q)
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	m.alive.Reset(n)
	m.alive.Set(protect)
	m.count = 1
	if target > 1 {
		// Choose target-1 of the other n-1 members.
		r.SampleExcludingVisit(&m.scratch, n, target-1, protect, m.alive.Set)
		m.count = target
	}
}

// FillBernoulli redraws m in place, reusing its bit storage: every member
// other than protect is alive independently with probability q; protect is
// always alive. A zero Mask is ready to fill, and the random stream consumed
// does not depend on what m held before.
func (m *Mask) FillBernoulli(n int, q float64, protect int, r *xrand.RNG) {
	checkArgs(n, q, protect)
	m.alive.Reset(n)
	m.count = 0
	for i := 0; i < n; i++ {
		if i == protect || r.Bool(q) {
			m.alive.Set(i)
			m.count++
		}
	}
}

func checkArgs(n int, q float64, protect int) {
	if n < 1 {
		panic(fmt.Sprintf("failure: invalid group size %d", n))
	}
	if q < 0 || q > 1 || q != q {
		panic(fmt.Sprintf("failure: ratio %g outside [0,1]", q))
	}
	if protect < 0 || protect >= n {
		panic(fmt.Sprintf("failure: protected member %d out of range", protect))
	}
}

// Alive reports whether member i survives this execution.
func (m *Mask) Alive(i int) bool { return m.alive.Get(i) }

// N returns the group size.
func (m *Mask) N() int { return m.alive.Len() }

// AliveCount returns the number of alive members.
func (m *Mask) AliveCount() int { return m.count }

// AliveRatio returns the fraction of alive members.
func (m *Mask) AliveRatio() float64 {
	if m.alive.Len() == 0 {
		return 0
	}
	return float64(m.count) / float64(m.alive.Len())
}

// Bits returns the underlying packed alive bitset; callers must treat it
// as read-only. It exists so hot loops, graph routines, and memory
// accounting can reach the words without an indirect call per member.
func (m *Mask) Bits() *bitset.Bits { return &m.alive }
