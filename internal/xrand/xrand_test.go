package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at %d: %x vs %x", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	s1 := root.Split(1)
	s2 := root.Split(2)
	s1b := root.Split(1)
	for i := 0; i < 100; i++ {
		v1, v1b := s1.Uint64(), s1b.Uint64()
		if v1 != v1b {
			t.Fatalf("Split(1) not reproducible at %d", i)
		}
		if v1 == s2.Uint64() {
			t.Fatalf("Split(1) and Split(2) collided at %d", i)
		}
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(3)
	_ = a.Split(4)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent state")
		}
	}
}

// refSplit is Split as it was written before SplitInto existed: the
// oracle both must match bit for bit.
func refSplit(r *RNG, index uint64) *RNG {
	s := r.hi ^ bits.RotateLeft64(r.lo, 31) ^ (index * 0x9e3779b97f4a7c15)
	c := &RNG{}
	c.hi = splitmix64(&s)
	c.lo = splitmix64(&s)
	c.inc = splitmix64(&s) | 1
	c.Uint64()
	return c
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0x5a7d00, math.MaxUint64} {
		for _, index := range []uint64{0, 1, 2, 0xfeed, 1 << 31, 1 << 63, math.MaxUint64} {
			parent := New(seed)
			parent.Uint64()
			want := refSplit(parent, index)
			var into RNG
			parent.SplitInto(&into, index)
			for name, got := range map[string]*RNG{"Split": parent.Split(index), "SplitInto": &into} {
				if *got != *want {
					t.Fatalf("seed %d index %d: %s state %+v, want %+v", seed, index, name, *got, *want)
				}
				for i := 0; i < 8; i++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d index %d: %s draw %d = %x, want %x", seed, index, name, i, g, w)
					}
				}
				*want = *refSplit(parent, index)
			}
		}
	}
}

func TestSplitIntoAllocatesNothing(t *testing.T) {
	parent, c := New(3), &RNG{}
	index := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		parent.SplitInto(c, index)
		index++
	}); allocs != 0 {
		t.Errorf("SplitInto allocates %v per call, want 0", allocs)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(11)
	for _, n := range []uint64{1, 2, 3, 7, 10, 100, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	// Chi-square-ish sanity check: 10 buckets, 100k draws.
	r := New(13)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %g", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestSampleIntsProperties(t *testing.T) {
	r := New(23)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw % 600) // may exceed n
		s := r.SampleInts(nil, n, k)
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(s) != wantLen {
			return false
		}
		seen := make(map[int]bool, len(s))
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleIntsUniformCoverage(t *testing.T) {
	// Every element should appear with frequency ~ k/n.
	r := New(29)
	const n, k, trials = 50, 5, 20000
	counts := make([]int, n)
	buf := make([]int, 0, k)
	for i := 0; i < trials; i++ {
		buf = r.SampleInts(buf, n, k)
		for _, v := range buf {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %d times, want ~%g", v, c, want)
		}
	}
}

func TestSampleIntsPositionExchangeable(t *testing.T) {
	// After the shuffle, the first position should be uniform over [0,n).
	r := New(31)
	const n, k, trials = 20, 4, 40000
	counts := make([]int, n)
	buf := make([]int, 0, k)
	for i := 0; i < trials; i++ {
		buf = r.SampleInts(buf, n, k)
		counts[buf[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("first-position count for %d = %d, want ~%g", v, c, want)
		}
	}
}

func TestSampleExcluding(t *testing.T) {
	r := New(37)
	f := func(nRaw, kRaw, exclRaw uint16) bool {
		n := int(nRaw%200) + 2
		k := int(kRaw % 250)
		excl := int(exclRaw) % n
		s := r.SampleExcluding(nil, n, k, excl)
		wantLen := k
		if wantLen > n-1 {
			wantLen = n - 1
		}
		if len(s) != wantLen {
			return false
		}
		seen := make(map[int]bool, len(s))
		for _, v := range s {
			if v < 0 || v >= n || v == excl || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleExcludingAll(t *testing.T) {
	r := New(41)
	s := r.SampleExcluding(nil, 10, 9, 4)
	if len(s) != 9 {
		t.Fatalf("want all 9 others, got %d", len(s))
	}
	for _, v := range s {
		if v == 4 {
			t.Fatal("excluded member sampled")
		}
	}
}

func TestSampleExcludingUniform(t *testing.T) {
	r := New(43)
	const n, k, excl, trials = 30, 3, 7, 30000
	counts := make([]int, n)
	buf := make([]int, 0, k)
	for i := 0; i < trials; i++ {
		buf = r.SampleExcluding(buf, n, k, excl)
		for _, v := range buf {
			counts[v]++
		}
	}
	if counts[excl] != 0 {
		t.Fatalf("excluded member sampled %d times", counts[excl])
	}
	want := float64(trials) * k / (n - 1)
	for v, c := range counts {
		if v == excl {
			continue
		}
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("member %d sampled %d times, want ~%g", v, c, want)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(47)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / trials; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) empirical rate %g", p)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(59)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("negative exponential variate %g", x)
		}
		sum += x
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %g, want ~1", mean)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}

func BenchmarkSampleExcludingSparse(b *testing.B) {
	r := New(1)
	buf := make([]int, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.SampleExcluding(buf, 10000, 5, 17)
	}
}

func BenchmarkSampleExcludingDense(b *testing.B) {
	r := New(1)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.SampleExcluding(buf, 100, 60, 17)
	}
}

// TestShuffleSliceMatchesShuffle: ShuffleSlice makes Shuffle's draws and
// Shuffle's permutation, on int and int32 slices alike, and leaves the
// generator where Shuffle does.
func TestShuffleSliceMatchesShuffle(t *testing.T) {
	for n := 0; n <= 70; n++ {
		for seed := uint64(1); seed <= 5; seed++ {
			a, b := New(seed), New(seed)
			want := make([]int, n)
			got := make([]int, n)
			got32 := make([]int32, n)
			for i := range want {
				want[i], got[i], got32[i] = i, i, int32(i)
			}
			a.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			c := *b
			ShuffleSlice(b, got)
			ShuffleSlice(&c, got32)
			for i := range want {
				if got[i] != want[i] || int(got32[i]) != want[i] {
					t.Fatalf("n=%d seed=%d: ShuffleSlice %v / %v, Shuffle %v", n, seed, got, got32, want)
				}
			}
			if x, y, z := a.Uint64(), b.Uint64(), c.Uint64(); x != y || x != z {
				t.Fatalf("n=%d seed=%d: streams parted after the shuffle", n, seed)
			}
		}
	}
}
