package failure

import (
	"math"
	"testing"
	"testing/quick"

	"gossipkit/internal/xrand"
)

// exactMask draws a fresh mask with FillExact.
func exactMask(n int, q float64, protect int, r *xrand.RNG) *Mask {
	m := new(Mask)
	m.FillExact(n, q, protect, r)
	return m
}

func TestNewMaskAllAlive(t *testing.T) {
	m := NewMask(10)
	if m.N() != 10 || m.AliveCount() != 10 || m.AliveRatio() != 1 {
		t.Fatalf("fresh mask: %d/%d", m.AliveCount(), m.N())
	}
	for i := 0; i < 10; i++ {
		if !m.Alive(i) {
			t.Fatalf("member %d not alive", i)
		}
	}
}

func TestExactMaskCount(t *testing.T) {
	r := xrand.New(1)
	f := func(nRaw, qRaw, pRaw uint16) bool {
		n := int(nRaw%1000) + 1
		q := float64(qRaw%101) / 100
		protect := int(pRaw) % n
		m := exactMask(n, q, protect, r)
		want := int(float64(n) * q)
		if want < 1 {
			want = 1
		}
		if want > n {
			want = n
		}
		return m.AliveCount() == want && m.Alive(protect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExactMaskUniform(t *testing.T) {
	// Every non-protected member should be alive with roughly equal
	// frequency.
	r := xrand.New(7)
	const n, trials = 50, 20000
	q := 0.5
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		m := exactMask(n, q, 0, r)
		for j := 0; j < n; j++ {
			if m.Alive(j) {
				counts[j]++
			}
		}
	}
	if counts[0] != trials {
		t.Fatalf("protected member alive %d/%d", counts[0], trials)
	}
	// 25 alive per trial, one always the source: 24 of 49 others.
	want := float64(trials) * 24 / 49
	for j := 1; j < n; j++ {
		if math.Abs(float64(counts[j])-want) > 6*math.Sqrt(want) {
			t.Errorf("member %d alive %d times, want ~%.0f", j, counts[j], want)
		}
	}
}

func TestBernoulliMask(t *testing.T) {
	r := xrand.New(11)
	const n, trials = 200, 500
	q := 0.7
	var total int
	for i := 0; i < trials; i++ {
		m := new(Mask)
		m.FillBernoulli(n, q, 5, r)
		if !m.Alive(5) {
			t.Fatal("protected member failed")
		}
		total += m.AliveCount()
	}
	mean := float64(total) / trials
	// Expected: 1 + 199*0.7 = 140.3.
	want := 1 + float64(n-1)*q
	if math.Abs(mean-want) > 3 {
		t.Errorf("mean alive %.1f, want ~%.1f", mean, want)
	}
}

func TestBernoulliMaskExtremes(t *testing.T) {
	r := xrand.New(13)
	m0 := new(Mask)
	m0.FillBernoulli(10, 0, 3, r)
	if m0.AliveCount() != 1 || !m0.Alive(3) {
		t.Errorf("q=0: %d alive", m0.AliveCount())
	}
	m1 := new(Mask)
	m1.FillBernoulli(10, 1, 3, r)
	if m1.AliveCount() != 10 {
		t.Errorf("q=1: %d alive", m1.AliveCount())
	}
}

func TestExactMaskQZeroKeepsSource(t *testing.T) {
	r := xrand.New(17)
	m := exactMask(100, 0, 42, r)
	if m.AliveCount() != 1 || !m.Alive(42) {
		t.Errorf("q=0: count=%d alive(42)=%v", m.AliveCount(), m.Alive(42))
	}
}

func TestBitsIsView(t *testing.T) {
	m := exactMask(4, 0, 0, xrand.New(1)) // q = 0: only the protected member 0 stays up
	b := m.Bits()
	if b.Len() != 4 || b.Get(1) || !b.Get(0) {
		t.Errorf("bits: len=%d alive={%v,%v,...}", b.Len(), b.Get(0), b.Get(1))
	}
}

// TestFillMatchesFreshMask pins the pooling contract: a mask redrawn in
// place through Fill* consumes the same random stream and lands on the same
// alive set as a freshly allocated mask, and a warm redraw allocates
// nothing — the mask is the last O(n) per-run allocation the DES arena had.
func TestFillMatchesFreshMask(t *testing.T) {
	pooled := &Mask{}
	for _, tc := range []struct {
		q    float64
		kind string
	}{{0.9, "exact"}, {0.3, "exact"}, {0.9, "bernoulli"}} {
		const n, seed = 5000, 77
		fresh := func(r *xrand.RNG) *Mask {
			if tc.kind == "exact" {
				return exactMask(n, tc.q, 0, r)
			}
			m := new(Mask)
			m.FillBernoulli(n, tc.q, 0, r)
			return m
		}
		want := fresh(xrand.New(seed))
		r := xrand.New(seed)
		if tc.kind == "exact" {
			pooled.FillExact(n, tc.q, 0, r)
		} else {
			pooled.FillBernoulli(n, tc.q, 0, r)
		}
		if pooled.AliveCount() != want.AliveCount() {
			t.Fatalf("%s q=%g: pooled count %d != fresh %d", tc.kind, tc.q, pooled.AliveCount(), want.AliveCount())
		}
		for i := 0; i < n; i++ {
			if pooled.Alive(i) != want.Alive(i) {
				t.Fatalf("%s q=%g: member %d pooled=%v fresh=%v", tc.kind, tc.q, i, pooled.Alive(i), want.Alive(i))
			}
		}
	}
	r := xrand.New(99)
	pooled.FillExact(5000, 0.9, 0, r) // warm at final shape
	allocs := testing.AllocsPerRun(10, func() { pooled.FillExact(5000, 0.9, 0, r) })
	if allocs != 0 {
		t.Errorf("warm FillExact allocates %.1f per redraw, want 0", allocs)
	}
}

func TestValidationPanics(t *testing.T) {
	r := xrand.New(1)
	cases := []func(){
		func() { NewMask(-1) },
		func() { exactMask(0, 0.5, 0, r) },
		func() { exactMask(10, -0.1, 0, r) },
		func() { exactMask(10, 1.5, 0, r) },
		func() { exactMask(10, 0.5, 10, r) },
		func() { new(Mask).FillBernoulli(10, 0.5, -1, r) },
		func() { new(Mask).FillBernoulli(10, math.NaN(), 0, r) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func BenchmarkExactMask5000(b *testing.B) {
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = exactMask(5000, 0.6, 0, r)
	}
}
