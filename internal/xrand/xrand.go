package xrand

import "math/bits"

// mulHi64 returns the high 64 bits of the 128-bit product a*b.

// RNG is a PCG-XSL-RR 128/64 pseudo random number generator.
// The zero value is not valid; use New or Split.
type RNG struct {
	hi, lo uint64 // 128-bit state
	inc    uint64 // stream selector (odd)
}

// pcgMultiplier is the 128-bit LCG multiplier used by pcg64, split into
// 64-bit halves (0x2360ed051fc65da44385df649fccf645).
const (
	pcgMulHi = 0x2360ed051fc65da4
	pcgMulLo = 0x4385df649fccf645
)

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, following the recommendation of the PCG and
// xoshiro authors to seed one generator family with another.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators created with the
// same seed produce identical sequences.
func New(seed uint64) *RNG {
	s := seed
	r := &RNG{}
	r.hi = splitmix64(&s)
	r.lo = splitmix64(&s)
	r.inc = splitmix64(&s) | 1 // must be odd
	// Decorrelate the first outputs from the raw seed.
	r.Uint64()
	r.Uint64()
	return r
}

// Split returns a new generator derived from r and the given stream index.
// Splitting the same parent state with distinct indices yields independent
// streams; the parent is not advanced, so Split is safe to call concurrently
// with other Splits (but not with Uint64 on the same receiver).
func (r *RNG) Split(index uint64) *RNG {
	c := &RNG{}
	r.SplitInto(c, index)
	return c
}

// SplitInto overwrites c with r.Split(index) without allocating.
func (r *RNG) SplitInto(c *RNG, index uint64) {
	// Mix the parent state and the index through SplitMix64 to build a
	// fresh, decorrelated seed.
	s := r.hi ^ bits.RotateLeft64(r.lo, 31) ^ (index * 0x9e3779b97f4a7c15)
	c.hi = splitmix64(&s)
	c.lo = splitmix64(&s)
	c.inc = splitmix64(&s) | 1
	c.Uint64()
}

// step advances the 128-bit LCG state.
func (r *RNG) step() {
	// state = state*mul + inc (128-bit arithmetic)
	hi, lo := bits.Mul64(r.lo, pcgMulLo)
	hi += r.hi*pcgMulLo + r.lo*pcgMulHi
	var carry uint64
	lo, carry = bits.Add64(lo, r.inc, 0)
	hi += carry
	r.hi, r.lo = hi, lo
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.step()
	// XSL-RR output function: xor-fold the state, then rotate by the top
	// six bits.
	return bits.RotateLeft64(r.hi^r.lo, -int(r.hi>>58))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
// The product is exact, and its conversion keeps a caller's u − c or
// 1 − u from fusing into one multiply-add (see TestNoFusedFloat).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) * (1.0 / (1 << 53)))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ShuffleSlice is r.Shuffle over the elements of s — the same draws, the
// same permutation — with the swap inlined rather than called through a
// closure per element: target lists are shuffled once per gossip send.
func ShuffleSlice[E any](r *RNG, s []E) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Scratch pools the working storage the sampling routines need beyond
// their output slice: the dense path's n-sized permutation and the mid-k
// path's duplicate bitset. One Scratch serves many draws (a pooled failure
// mask owns one), making repeated mask redraws allocation-free after
// warm-up, and it stores candidate values as int32 (group sizes are bounded
// by 2³¹), halving the resident bytes per node against []int. The zero
// value is ready to use. A Scratch carries no RNG state: draws with and
// without one consume identical random streams.
type Scratch struct {
	vals []int32
	seen []uint64
}

// buf32 returns an n-sized int32 slice from the pool, contents unspecified.
func (s *Scratch) buf32(n int) []int32 {
	if cap(s.vals) < n {
		s.vals = make([]int32, n)
	}
	s.vals = s.vals[:n]
	return s.vals
}

// bits returns an n-bit zeroed bitset from the pool.
func (s *Scratch) bits(n int) []uint64 {
	w := (n + 63) / 64
	if cap(s.seen) < w {
		s.seen = make([]uint64, w)
	}
	s.seen = s.seen[:w]
	clear(s.seen)
	return s.seen
}

// SampleInts writes k distinct uniform values from [0, n) into dst and
// returns dst[:k]. If k >= n it returns all of [0, n) in random order.
// dst must have capacity at least min(k, n); a nil dst allocates.
//
// For small k relative to n it uses Floyd's algorithm (O(k) expected, with
// duplicate detection over dst itself for gossip-sized k so the hot path
// never allocates); otherwise it uses a partial Fisher–Yates over a scratch
// slice. The random stream is identical to SampleIntsVisit for every
// (n, k) — duplicate detection draws no randomness.
func (r *RNG) SampleInts(dst []int, n, k int) []int {
	if n < 0 || k < 0 {
		panic("xrand: SampleInts with negative n or k")
	}
	if k > n {
		k = n
	}
	if dst == nil {
		dst = make([]int, 0, k)
	}
	dst = dst[:0]
	if k == 0 {
		return dst
	}
	// Floyd's algorithm wins when the selection is sparse; the constant
	// 4 keeps the duplicate hit rate low.
	if k*4 <= n {
		if k <= 64 {
			// Fanout-sized draws: O(k²) scan of the picks so far
			// beats a set and stays allocation-free.
			for j := n - k; j < n; j++ {
				t := r.Intn(j + 1)
				for _, v := range dst {
					if v == t {
						t = j
						break
					}
				}
				dst = append(dst, t)
			}
		} else {
			seen := make([]uint64, (n+63)/64)
			for j := n - k; j < n; j++ {
				t := r.Intn(j + 1)
				if seen[uint(t)>>6]&(1<<(uint(t)&63)) != 0 {
					t = j
				}
				seen[uint(t)>>6] |= 1 << (uint(t) & 63)
				dst = append(dst, t)
			}
		}
		// Floyd yields a uniformly random k-subset but in biased order;
		// shuffle so callers can rely on exchangeability of positions.
		ShuffleSlice(r, dst)
		return dst
	}
	scratch := make([]int, n)
	for i := range scratch {
		scratch[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		scratch[i], scratch[j] = scratch[j], scratch[i]
	}
	return append(dst, scratch[:k]...)
}

// SampleIntsVisit draws the same k-subset of [0, n) as SampleInts —
// identical random stream — but streams the values to visit instead of
// materializing an []int, with all working storage pooled (int32-sized) in
// s. This is the paper-scale mask redraw primitive: at n=10⁶⁺ it avoids
// holding an 8-bytes-per-member pick list alive in the arena.
func (r *RNG) SampleIntsVisit(s *Scratch, n, k int, visit func(int)) {
	if n < 0 || k < 0 {
		panic("xrand: SampleInts with negative n or k")
	}
	if k > n {
		k = n
	}
	if k == 0 {
		return
	}
	if s == nil {
		s = &Scratch{}
	}
	// Floyd's algorithm wins when the selection is sparse; the constant
	// 4 keeps the duplicate hit rate low. The duplicate check consumes no
	// randomness, so the scan and bitset variants draw identical streams.
	if k*4 <= n {
		picks := s.buf32(k)[:0]
		if k <= 64 {
			// Fanout-sized draws: O(k²) scan of the picks so far
			// beats a set and stays allocation-free.
			for j := n - k; j < n; j++ {
				t := int32(r.Intn(j + 1))
				for _, v := range picks {
					if v == t {
						t = int32(j)
						break
					}
				}
				picks = append(picks, t)
			}
		} else {
			seen := s.bits(n)
			for j := n - k; j < n; j++ {
				t := r.Intn(j + 1)
				if seen[uint(t)>>6]&(1<<(uint(t)&63)) != 0 {
					t = j
				}
				seen[uint(t)>>6] |= 1 << (uint(t) & 63)
				picks = append(picks, int32(t))
			}
		}
		// Floyd yields a uniformly random k-subset but in biased order;
		// shuffle so callers can rely on exchangeability of positions.
		ShuffleSlice(r, picks)
		for _, v := range picks {
			visit(int(v))
		}
		return
	}
	scratch := s.buf32(n)
	for i := range scratch {
		scratch[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		scratch[i], scratch[j] = scratch[j], scratch[i]
	}
	for _, v := range scratch[:k] {
		visit(int(v))
	}
}

// SampleExcluding writes k distinct uniform values from [0, n) \ {excl}
// into dst and returns it. It is the target-selection primitive for gossip:
// a member never gossips to itself. If k >= n-1, all other members are
// returned. excl must be in [0, n).
func (r *RNG) SampleExcluding(dst []int, n, k, excl int) []int {
	if excl < 0 || excl >= n {
		panic("xrand: SampleExcluding exclusion out of range")
	}
	if k > n-1 {
		k = n - 1
	}
	if dst == nil {
		dst = make([]int, 0, k)
	}
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	// Sample from [0, n-1) and remap values >= excl up by one. This keeps
	// the draw uniform over the n-1 admissible members.
	dst = r.SampleInts(dst, n-1, k)
	for i, v := range dst {
		if v >= excl {
			dst[i] = v + 1
		}
	}
	return dst
}

// SampleExcludingVisit draws the same k-subset of [0, n) \ {excl} as
// SampleExcluding — identical random stream — streaming the values to
// visit with pooled working storage; see SampleIntsVisit.
func (r *RNG) SampleExcludingVisit(s *Scratch, n, k, excl int, visit func(int)) {
	if excl < 0 || excl >= n {
		panic("xrand: SampleExcluding exclusion out of range")
	}
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		return
	}
	// Sample from [0, n-1) and remap values >= excl up by one. This keeps
	// the draw uniform over the n-1 admissible members.
	r.SampleIntsVisit(s, n-1, k, func(v int) {
		if v >= excl {
			v++
		}
		visit(v)
	})
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -ln(u)
		}
	}
}
