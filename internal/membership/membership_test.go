package membership

import (
	"fmt"
	"math"
	"testing"

	"gossipkit/internal/xrand"
)

func TestFullViewBasics(t *testing.T) {
	v := NewFullView(100)
	if v.N() != 100 || v.Degree(0) != 99 || v.Degree(57) != 99 {
		t.Fatalf("N=%d degree=%d", v.N(), v.Degree(0))
	}
}

func TestFullViewSampling(t *testing.T) {
	v := NewFullView(50)
	r := xrand.New(1)
	buf := make([]int, 0, 8)
	for trial := 0; trial < 200; trial++ {
		self := trial % 50
		buf = v.SampleTargets(buf, self, 5, r)
		if len(buf) != 5 {
			t.Fatalf("got %d targets", len(buf))
		}
		seen := map[int]bool{}
		for _, id := range buf {
			if id == self || id < 0 || id >= 50 || seen[id] {
				t.Fatalf("bad targets %v for self %d", buf, self)
			}
			seen[id] = true
		}
	}
}

func TestFullViewSampleMoreThanGroup(t *testing.T) {
	v := NewFullView(4)
	r := xrand.New(2)
	got := v.SampleTargets(nil, 1, 100, r)
	if len(got) != 3 {
		t.Fatalf("got %d targets, want 3", len(got))
	}
}

func TestFullViewInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFullView(0)
}

func TestPartialViewsValidation(t *testing.T) {
	r := xrand.New(1)
	for _, f := range []func(){
		func() { NewPartialViews(1, 0, r) },
		func() { NewPartialViews(10, -1, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestPartialViewsInvariants(t *testing.T) {
	r := xrand.New(7)
	pv := NewPartialViews(500, 1, r)
	if pv.N() != 500 {
		t.Fatalf("N = %d", pv.N())
	}
	for self := 0; self < 500; self++ {
		view := pv.View(self)
		if len(view) == 0 {
			t.Fatalf("member %d has empty view", self)
		}
		seen := map[int]bool{}
		for _, id := range view {
			if id == self {
				t.Fatalf("member %d sees itself", self)
			}
			if id < 0 || id >= 500 {
				t.Fatalf("member %d sees out-of-range %d", self, id)
			}
			if seen[id] {
				t.Fatalf("member %d has duplicate view entry %d", self, id)
			}
			seen[id] = true
		}
	}
}

func TestPartialViewsLogarithmicSize(t *testing.T) {
	// SCAMP's signature: mean view size ~ (c+1)·ln(n).
	r := xrand.New(11)
	n, c := 2000, 1
	pv := NewPartialViews(n, c, r)
	st := pv.Stats()
	want := float64(c+1) * math.Log(float64(n)) // ≈ 15.2
	if st.MeanOut < want/2 || st.MeanOut > want*2 {
		t.Errorf("mean view size %.2f, want within 2x of %.2f", st.MeanOut, want)
	}
	// Growing n must grow views sublinearly.
	pvSmall := NewPartialViews(200, 1, xrand.New(11))
	if ratio := st.MeanOut / pvSmall.Stats().MeanOut; ratio > 4 {
		t.Errorf("view growth 10x n -> %.1fx views; not logarithmic", ratio)
	}
}

func TestPartialViewsSampling(t *testing.T) {
	r := xrand.New(13)
	pv := NewPartialViews(300, 0, r)
	buf := make([]int, 0, 16)
	for self := 0; self < 300; self += 7 {
		deg := pv.Degree(self)
		buf = pv.SampleTargets(buf, self, 3, r)
		wantLen := 3
		if deg < 3 {
			wantLen = deg
		}
		if len(buf) != wantLen {
			t.Fatalf("member %d (deg %d): got %d targets", self, deg, len(buf))
		}
		view := pv.View(self)
		inView := func(id int) bool {
			for _, v := range view {
				if v == id {
					return true
				}
			}
			return false
		}
		seen := map[int]bool{}
		for _, id := range buf {
			if !inView(id) || seen[id] || id == self {
				t.Fatalf("member %d sampled invalid target %d", self, id)
			}
			seen[id] = true
		}
	}
}

func TestPartialViewsSampleAll(t *testing.T) {
	r := xrand.New(17)
	pv := NewPartialViews(50, 0, r)
	self := 10
	got := pv.SampleTargets(nil, self, 10000, r)
	if len(got) != pv.Degree(self) {
		t.Fatalf("sample-all returned %d, degree %d", len(got), pv.Degree(self))
	}
}

func TestShufflePreservesInvariants(t *testing.T) {
	r := xrand.New(19)
	pv := NewPartialViews(400, 1, r)
	pv.Shuffle(5, 3, r)
	for self := 0; self < 400; self++ {
		view := pv.View(self)
		if len(view) == 0 {
			t.Fatalf("member %d lost its whole view", self)
		}
		seen := map[int]bool{}
		for _, id := range view {
			if id == self || seen[id] || id < 0 || id >= 400 {
				t.Fatalf("member %d has invalid view after shuffle: %v", self, view)
			}
			seen[id] = true
		}
	}
}

func TestShuffleImprovesInDegreeBalance(t *testing.T) {
	r := xrand.New(23)
	pv := NewPartialViews(1000, 1, r)
	before := pv.Stats()
	pv.Shuffle(20, 4, r)
	after := pv.Stats()
	// Shuffling should not blow up the max in-degree; typically it
	// shrinks the spread. Allow equality to avoid flakiness.
	if after.MaxIn > before.MaxIn*2 {
		t.Errorf("shuffle worsened in-degree: max %d -> %d", before.MaxIn, after.MaxIn)
	}
	if after.MeanOut < 1 {
		t.Errorf("shuffle destroyed views: mean out %f", after.MeanOut)
	}
}

func TestShuffleNoOpParams(t *testing.T) {
	r := xrand.New(29)
	pv := NewPartialViews(100, 0, r)
	before := pv.Stats()
	pv.Shuffle(0, 3, r)
	pv.Shuffle(3, 0, r)
	after := pv.Stats()
	if before != after {
		t.Error("no-op shuffle changed views")
	}
}

func TestStatsConsistency(t *testing.T) {
	r := xrand.New(31)
	pv := NewPartialViews(300, 1, r)
	st := pv.Stats()
	// Sum of out-degrees equals sum of in-degrees; means must match.
	if math.Abs(st.MeanOut-st.MeanIn) > 1e-9 {
		t.Errorf("mean out %f != mean in %f", st.MeanOut, st.MeanIn)
	}
	if st.MinOut < 0 || st.MaxOut < st.MinOut {
		t.Errorf("degree stats inconsistent: %+v", st)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewPartialViews(200, 1, xrand.New(5))
	b := NewPartialViews(200, 1, xrand.New(5))
	for i := 0; i < 200; i++ {
		va, vb := a.View(i), b.View(i)
		if len(va) != len(vb) {
			t.Fatalf("views differ at %d", i)
		}
		for j := range va {
			if va[j] != vb[j] {
				t.Fatalf("views differ at %d[%d]", i, j)
			}
		}
	}
}

// BenchmarkPartialViewsBuild reports what a SCAMP build costs in the unit it
// is proportional to: random-walk hops. hops/op is a property of the seed,
// not of the implementation (443,823 at n=1000, c=2, seed 1); ns/hop is
// what a change to the walk moves. n=10⁵ takes ≈ 10 s an iteration and is
// skipped under -short.
func BenchmarkPartialViewsBuild(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 10000 && testing.Short() {
				b.Skip("n=10⁵ build skipped under -short")
			}
			b.ReportAllocs()
			hops := 0
			for i := 0; i < b.N; i++ {
				_, h := buildPartialViews(n, 2, xrand.New(1))
				hops += h
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
			b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
		})
	}
}

// BenchmarkPartialViewsShuffle is the mixing every lpbcast and RDG run
// applies to its fresh views. Each iteration shuffles a fresh build (built
// off the clock): exchanges always add the peer, so a view set shuffled
// over and over keeps growing and would measure a moving target.
func BenchmarkPartialViewsShuffle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := xrand.New(1)
		pv := NewPartialViews(1000, 2, r)
		b.StartTimer()
		pv.Shuffle(5, 3, r)
	}
}

func BenchmarkFullViewSample(b *testing.B) {
	v := NewFullView(5000)
	r := xrand.New(1)
	buf := make([]int, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = v.SampleTargets(buf, i%5000, 4, r)
	}
}

// TestPartialViewsAllocs pins what the arena-carved build and the
// receiver/caller-owned scratch promise: a build that spills no row makes
// a fixed handful of objects, a second Shuffle makes none (the first sizes
// the receiver's scratch), and SampleTargets into a warm dst makes none on
// any branch — take-all, Floyd (k·4 <= len) and the dense branch between,
// which sampleIndices replays over a stack buffer instead of letting
// xrand.SampleInts allocate its len-sized scratch.
func TestPartialViewsAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(3, func() { NewPartialViews(1000, 2, xrand.New(1)) }); a > 16 {
		t.Errorf("NewPartialViews(1000, 2) makes %.0f allocations, want <= 16", a)
	}
	r := xrand.New(1)
	pv := NewPartialViews(1000, 2, r)
	// AllocsPerRun's warm-up call is the first Shuffle, the measured one the
	// second. (A third would start spilling rows: exchanges grow views.)
	if a := testing.AllocsPerRun(1, func() { pv.Shuffle(5, 3, r) }); a != 0 {
		t.Errorf("second Shuffle(5, 3) makes %.0f allocations, want 0", a)
	}
	self := 0
	for pv.Degree(self) < 12 {
		self++
	}
	d := pv.Degree(self)
	dst := make([]int, 0, d)
	for name, k := range map[string]int{"take-all": d + 1, "floyd": d / 4, "dense": d - 1} {
		if a := testing.AllocsPerRun(100, func() { dst = pv.SampleTargets(dst, self, k, r) }); a != 0 {
			t.Errorf("SampleTargets(k=%d of %d, %s) makes %.0f allocations, want 0", k, d, name, a)
		}
	}
}
