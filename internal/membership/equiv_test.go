package membership

import (
	"fmt"
	"slices"
	"testing"

	"gossipkit/internal/xrand"
)

// pair drives the production views and the reference through the same
// operations on two RNGs seeded alike; check fails unless every view is
// equal entry for entry in order and both streams stand at the same draw.
type pair struct {
	t      testing.TB
	pv     *PartialViews
	ref    *refViews
	r, rr  *xrand.RNG
	dst    []int
	refDst []int
}

func newPair(t testing.TB, n, c int, seed uint64) *pair {
	p := &pair{t: t, r: xrand.New(seed), rr: xrand.New(seed)}
	var hops int
	p.pv, hops = buildPartialViews(n, c, p.r)
	p.ref = newRefViews(n, c, p.rr)
	if hops != p.ref.hops {
		t.Fatalf("build walked %d hops, reference %d", hops, p.ref.hops)
	}
	p.check("build")
	return p
}

func (p *pair) check(after string) {
	p.t.Helper()
	if len(p.pv.views) != len(p.ref.views) {
		p.t.Fatalf("after %s: %d views, reference %d", after, len(p.pv.views), len(p.ref.views))
	}
	for i, want := range p.ref.views {
		if got := p.pv.views[i]; !slices.Equal(got, want) {
			p.t.Fatalf("after %s: view %d = %v, reference %v", after, i, got, want)
		}
	}
	if got, want := p.r.Uint64(), p.rr.Uint64(); got != want {
		p.t.Fatalf("after %s: random streams diverged", after)
	}
}

func (p *pair) shuffle(rounds, swap int) {
	p.t.Helper()
	p.pv.Shuffle(rounds, swap, p.r)
	p.ref.Shuffle(rounds, swap, p.rr)
	p.check("shuffle")
}

func (p *pair) unsubscribe(id int) {
	p.t.Helper()
	if got, want := p.pv.Unsubscribe(id, p.r), p.ref.Unsubscribe(id, p.rr); got != want {
		p.t.Fatalf("Unsubscribe(%d) donated %d arcs, reference %d", id, got, want)
	}
	p.check("unsubscribe")
}

func (p *pair) subscribe(id, contact, copies int) {
	p.t.Helper()
	p.pv.Subscribe(id, contact, copies, p.r)
	p.ref.Subscribe(id, contact, copies, p.rr)
	p.check("subscribe")
}

func (p *pair) sample(self, k int) {
	p.t.Helper()
	p.dst = p.pv.SampleTargets(p.dst, self, k, p.r)
	p.refDst = p.ref.SampleTargets(p.refDst, self, k, p.rr)
	if !slices.Equal(p.dst, p.refDst) {
		p.t.Fatalf("SampleTargets(%d, k=%d) = %v, reference %v (view %v)", self, k, p.dst, p.refDst, p.ref.views[self])
	}
}

// matchReference is one cell of TestPartialViewsMatchReference.
func matchReference(t *testing.T, n, c int, seed uint64) {
	p := newPair(t, n, c, seed)
	p.shuffle(5, 3)
	leaver := int(seed) % n
	contact := (leaver + 1 + int(seed)%(n-1)) % n
	p.unsubscribe(leaver)
	p.subscribe(leaver, contact, c)
	p.subscribe(n, leaver, c) // a slot beyond the table
	for i := 0; i < 200; i++ {
		self := (i*7 + int(seed)) % (n + 1)
		d := p.pv.Degree(self)
		for _, k := range []int{1, 4, max(d-1, 0), d, d + 3} {
			p.sample(self, k)
		}
	}
	p.check("sampling")
}

// TestPartialViewsMatchReference holds the production views to the
// reference's results and random stream: at the default row stride, and at
// strides 1 and 2, where every view outgrows its carved row at once — the
// spill-through-append path, and the proof that a full row never writes
// into its neighbour. 25 seeds per cell up to n = 1000; n = 5000 costs
// 0.9 s a seed (three quarters of it the reference) and runs 5, as does
// every cell under -short, which also stops at n = 400.
func TestPartialViewsMatchReference(t *testing.T) {
	sizes := []int{2, 3, 17, 400, 1000, 5000}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, stride := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("stride=%d", stride), func(t *testing.T) {
			forceStride = stride
			defer func() { forceStride = 0 }()
			// The group returns only when its parallel cells have.
			t.Run("cells", func(t *testing.T) {
				for _, n := range sizes {
					for _, c := range []int{0, 1, 2, 5} {
						seeds := uint64(25)
						if n > 1000 || testing.Short() {
							seeds = 5
						}
						t.Run(fmt.Sprintf("n=%d,c=%d", n, c), func(t *testing.T) {
							t.Parallel()
							for seed := uint64(1); seed <= seeds; seed++ {
								matchReference(t, n, c, seed)
							}
						})
					}
				}
			})
		})
	}
}

// TestSampleIndicesMatchesSampleInts: the stack-buffer replay of the dense
// branch draws what xrand's own does, for every size around the buffer.
func TestSampleIndicesMatchesSampleInts(t *testing.T) {
	r, rr := xrand.New(9), xrand.New(9)
	for n := 0; n <= 131; n++ {
		for k := 0; k <= n+1; k++ {
			got := sampleIndices(nil, n, k, r)
			want := rr.SampleInts(nil, n, k)
			if !slices.Equal(got, want) || r.Uint64() != rr.Uint64() {
				t.Fatalf("sampleIndices(n=%d, k=%d) = %v, SampleInts %v", n, k, got, want)
			}
		}
	}
}

// FuzzPartialViewsVsReference runs a byte-driven sequence of builds,
// shuffles, departures, joins and draws on both implementations. Groups
// stay at n <= 64 so that views saturate and walks hit the degenerate
// cases (full views, empty views, exhausted hop budgets).
func FuzzPartialViewsVsReference(f *testing.F) {
	f.Add([]byte{17, 2, 0, 1, 3, 2, 5, 3, 5, 9, 4, 7, 3})
	f.Add([]byte{2, 0, 1, 2, 1, 3, 1, 0, 4, 0, 2})
	f.Add([]byte{64, 5, 1, 0, 3, 2, 9, 3, 9, 63, 2, 200, 4, 9, 60})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		n, c, stride := 2+int(ops[0])%63, int(ops[1])%6, int(ops[2])%4
		forceStride = stride
		defer func() { forceStride = 0 }()
		p := newPair(t, n, c, uint64(len(ops)))
		next := func(i *int) int {
			*i++
			if *i < len(ops) {
				return int(ops[*i])
			}
			return 0
		}
		for i := 3; i < len(ops); i++ {
			size := len(p.pv.views)
			switch ops[i] % 5 {
			case 0:
				p = newPair(t, n, c, uint64(next(&i)))
			case 1:
				p.shuffle(1+next(&i)%3, next(&i)%5)
			case 2:
				p.unsubscribe(next(&i) % (size + 1))
			case 3:
				if size < 80 { // a slot past the end grows the table
					p.subscribe(next(&i)%(size+1), next(&i)%(size+1), c)
				}
			case 4:
				p.sample(next(&i)%size, next(&i)%12)
			}
		}
		p.check("ops")
	})
}
