package bitset

import (
	"testing"

	"gossipkit/internal/xrand"
)

// TestBitsMatchesBoolSlice cross-checks every operation against a plain
// []bool reference under a randomized op sequence.
func TestBitsMatchesBoolSlice(t *testing.T) {
	r := xrand.New(42)
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		var b Bits
		b.Reset(n)
		ref := make([]bool, n)
		if b.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, b.Len())
		}
		for op := 0; op < 4*n; op++ {
			i := r.Intn(max(n, 1))
			if n == 0 {
				break
			}
			if r.Bool(0.5) {
				b.Set(i)
				ref[i] = true
			} else {
				b.Unset(i)
				ref[i] = false
			}
		}
		count := 0
		for i, want := range ref {
			if b.Get(i) != want {
				t.Fatalf("n=%d: bit %d = %v, want %v", n, i, b.Get(i), want)
			}
			if want {
				count++
			}
		}
		if b.Count() != count {
			t.Errorf("n=%d: Count=%d, want %d", n, b.Count(), count)
		}
	}
}

// TestSetAllRespectsLength: SetAll must not set bits beyond Len(), so Count
// stays exact for lengths that are not multiples of 64.
func TestSetAllRespectsLength(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 130} {
		var b Bits
		b.Reset(n)
		b.SetAll()
		if b.Count() != n {
			t.Errorf("n=%d: Count after SetAll = %d", n, b.Count())
		}
	}
}

// TestResetReusesStorage pins the arena property: shrinking or re-sizing to
// an equal-or-smaller word count must reuse the backing array and clear it.
func TestResetReusesStorage(t *testing.T) {
	var b Bits
	b.Reset(1024)
	b.SetAll()
	words := &b.words[0]
	b.Reset(512)
	if &b.words[0] != words {
		t.Error("Reset to smaller size reallocated")
	}
	if b.Count() != 0 {
		t.Errorf("Reset left %d bits set", b.Count())
	}
	allocs := testing.AllocsPerRun(10, func() { b.Reset(1024); b.Set(7) })
	if allocs != 0 {
		t.Errorf("warm Reset allocates %.1f times", allocs)
	}
}

// TestCopyFrom: a copy has the source's length and bits, shares no storage
// with it, and a warm copy into a vector at least as large reuses its own
// words without allocating.
func TestCopyFrom(t *testing.T) {
	var src, dst Bits
	src.Reset(130)
	for _, i := range []int{0, 63, 64, 129} {
		src.Set(i)
	}
	dst.Reset(1000)
	dst.SetAll()
	words := &dst.words[0]
	dst.CopyFrom(&src)
	if &dst.words[0] != words {
		t.Error("CopyFrom into a larger vector reallocated")
	}
	if dst.Len() != 130 || dst.Count() != 4 || !dst.Get(129) || dst.Get(1) {
		t.Fatalf("copy has Len %d Count %d", dst.Len(), dst.Count())
	}
	src.Unset(0)
	if !dst.Get(0) {
		t.Error("copy shares storage with its source")
	}
	if allocs := testing.AllocsPerRun(10, func() { dst.CopyFrom(&src) }); allocs != 0 {
		t.Errorf("warm CopyFrom allocates %.1f times", allocs)
	}
}
