package topology

import (
	"slices"
	"testing"

	"gossipkit/internal/membership"
	"gossipkit/internal/xrand"
)

// TestSampleTargetsTakesKAboveDegreeAsDegree: every View draws for a k
// above self's degree exactly what it draws for the degree — the same
// targets, with the RNG left in the same state. Forwards pass an uncapped
// fanout (the paper's, and a flood's Fixed(n−1)) and rely on it.
func TestSampleTargetsTakesKAboveDegreeAsDegree(t *testing.T) {
	const n = 60
	kout, err := Spec{Kind: KOut, K: 6}.Build(n, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := Spec{Kind: KOut, K: 6}.Build(n, xrand.New(97))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v += 3 {
		shrunk.Remove(v) // live degrees below the built ones
	}
	for _, tc := range []struct {
		name string
		view membership.View
	}{
		{"full", membership.NewFullView(n)},
		{"partial", membership.NewPartialViews(n, 2, xrand.New(98))},
		{"overlay", kout},
		{"overlay-removed", shrunk},
	} {
		for self := 0; self < n; self++ {
			d := tc.view.Degree(self)
			for _, k := range []int{d + 1, n - 1, n, 1 << 20} {
				if k <= d {
					continue
				}
				seed := uint64(self*31 + k)
				rd, rk := xrand.New(seed), xrand.New(seed)
				want := tc.view.SampleTargets(nil, self, d, rd)
				got := tc.view.SampleTargets(make([]int, 0, 4), self, k, rk)
				if !slices.Equal(got, want) || *rk != *rd {
					t.Errorf("%s self %d degree %d: k=%d drew %v (rng %v), k=degree drew %v (rng %v)",
						tc.name, self, d, k, got, *rk, want, *rd)
				}
			}
		}
	}
}
