package membership

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gossipkit/internal/xrand"
)

// built is the build and shuffle the memo stands for in the protocols'
// calls, and the state it leaves its generator in.
func built(n, c int, seed uint64) (*PartialViews, xrand.RNG) {
	r := xrand.New(seed)
	pv := NewPartialViews(n, c, r)
	pv.Shuffle(5, 3, r)
	return pv, *r
}

// sameViews reports the first view at which got and want differ, entry for
// entry in order; "" when none does.
func sameViews(got, want *PartialViews) string {
	if len(got.views) != len(want.views) {
		return "view count"
	}
	for i := range want.views {
		if !slices.Equal(got.views[i], want.views[i]) {
			return fmt.Sprintf("view %d", i)
		}
	}
	return ""
}

// TestViewMemoExact: a nil memo, a miss and a hit each return the views a
// fresh build and shuffle make, entry for entry in order, and leave the
// generator where the build leaves it; the hit empties the memo.
func TestViewMemoExact(t *testing.T) {
	for _, n := range []int{2, 3, 17, 1000} {
		for _, c := range []int{0, 1, 2} {
			for seed := uint64(1); seed <= 3; seed++ {
				want, after := built(n, c, seed)
				var m ViewMemo
				for _, step := range []struct {
					name string
					memo *ViewMemo
				}{{"nil memo", nil}, {"miss", &m}, {"hit", &m}} {
					r := xrand.New(seed)
					got := step.memo.Shuffled(n, c, 5, 3, r)
					if d := sameViews(got, want); d != "" {
						t.Fatalf("n=%d c=%d seed=%d %s: %s differs from a fresh build", n, c, seed, step.name, d)
					}
					if *r != after {
						t.Fatalf("n=%d c=%d seed=%d %s: generator left elsewhere than the build leaves it", n, c, seed, step.name)
					}
				}
				if m.Hits() != 1 || len(m.entries) != 0 || m.bytes != 0 {
					t.Fatalf("n=%d c=%d seed=%d: %d hits, %d entries, %d bytes retained; want 1, 0, 0",
						n, c, seed, m.Hits(), len(m.entries), m.bytes)
				}
			}
		}
	}
}

// TestViewMemoKeyIsWholeInput: a call that differs from a remembered build
// in any one input — n, c, rounds, swap or one draw of the generator —
// misses and gets its own build.
func TestViewMemoKeyIsWholeInput(t *testing.T) {
	var m ViewMemo
	m.Shuffled(17, 2, 5, 3, xrand.New(1))
	advanced := xrand.New(1)
	advanced.Uint64()
	for _, in := range []struct {
		n, c, rounds, swap int
		r                  *xrand.RNG
	}{
		{16, 2, 5, 3, xrand.New(1)},
		{17, 1, 5, 3, xrand.New(1)},
		{17, 2, 4, 3, xrand.New(1)},
		{17, 2, 5, 2, xrand.New(1)},
		{17, 2, 5, 3, xrand.New(2)},
		{17, 2, 5, 3, advanced},
	} {
		fresh := *in.r
		want := NewPartialViews(in.n, in.c, &fresh)
		want.Shuffle(in.rounds, in.swap, &fresh)
		got := m.Shuffled(in.n, in.c, in.rounds, in.swap, in.r)
		if d := sameViews(got, want); d != "" || *in.r != fresh {
			t.Fatalf("Shuffled(%d, %d, %d, %d): %q differs from its own build", in.n, in.c, in.rounds, in.swap, d)
		}
	}
	if h := m.Hits(); h != 0 {
		t.Fatalf("%d hits on inputs that differ from every remembered one", h)
	}
}

// TestViewMemoHitIsPrivate: what a caller does to the views it got — the
// builder unsubscribing before the repeat arrives, the repeat unsubscribing
// and subscribing so that views outgrow their packed rows — reaches
// neither the other caller nor a later build.
func TestViewMemoHitIsPrivate(t *testing.T) {
	const n, c, seed = 300, 2, 7
	churn := func(pv *PartialViews) {
		r := xrand.New(99)
		pv.Unsubscribe(5, r)
		pv.Subscribe(5, 0, c, r)
		for id := n; id < n+20; id++ {
			pv.Subscribe(id, id%n, c, r)
		}
	}
	want, _ := built(n, c, seed)
	var m ViewMemo
	first := m.Shuffled(n, c, 5, 3, xrand.New(seed))
	churn(first)
	second := m.Shuffled(n, c, 5, 3, xrand.New(seed))
	if d := sameViews(second, want); d != "" || m.Hits() != 1 {
		t.Fatalf("the hit after the builder's churn: %q differs (hits %d)", d, m.Hits())
	}
	churn(second)
	churned, _ := built(n, c, seed)
	churn(churned)
	if d := sameViews(second, churned); d != "" {
		t.Fatalf("churn on the hit's packed rows: %s differs from churn on a fresh build", d)
	}
	if d := sameViews(first, churned); d != "" {
		t.Fatalf("the builder's views after both churns: %s differs from one churn", d)
	}
	third := m.Shuffled(n, c, 5, 3, xrand.New(seed))
	if d := sameViews(third, want); d != "" || m.Hits() != 1 {
		t.Fatalf("the build after the hit: %q differs (hits %d, want 1: a hit forgets)", d, m.Hits())
	}
}

// TestViewMemoConcurrent: goroutines share one memo on shared keys and on
// keys of their own, each churns what it gets, and every caller still gets
// exactly the build it asked for. Run it under -race.
func TestViewMemoConcurrent(t *testing.T) {
	const n, c, workers = 300, 2, 6
	want := map[uint64]*PartialViews{}
	after := map[uint64]xrand.RNG{}
	seeds := []uint64{1, 2, 3}
	for g := range workers {
		seeds = append(seeds, uint64(100+g))
	}
	for _, s := range seeds {
		want[s], after[s] = built(n, c, s)
	}
	var m ViewMemo
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range []uint64{1, uint64(100 + g), 2, 3, uint64(100 + g)} {
				r := xrand.New(s)
				got := m.Shuffled(n, c, 5, 3, r)
				if d := sameViews(got, want[s]); d != "" || *r != after[s] {
					t.Errorf("worker %d seed %d: %q differs from a fresh build", g, s, d)
				}
				got.Unsubscribe(g, r)
			}
		}()
	}
	wg.Wait()
	retained := 0
	for _, e := range m.entries {
		retained += e.bytes
	}
	// Each worker's own key is remembered at its first call and hit at
	// its second, whatever the shared keys did.
	if retained != m.bytes || m.Hits() < workers {
		t.Fatalf("%d bytes counted, %d retained, %d hits", m.bytes, retained, m.Hits())
	}
}
