// Package bitset provides the packed boolean run state used by the
// discrete-event hot paths: a Bits value stores n flags in ⌈n/64⌉ uint64
// words, an 8× memory cut over []bool that also halves cache traffic when
// executions touch millions of members (received flags, up flags, failure
// masks — see core.NetArena and simnet.Network).
//
// Bits is designed for arena reuse: Reset resizes in place and reuses the
// word storage whenever capacity allows, so a warm arena redraws per-run
// state with zero heap allocations. All operations are single-goroutine,
// deterministic, and allocation-free except for capacity growth.
package bitset

import (
	"fmt"
	"math/bits"
)

// Bits is a fixed-length bit vector. The zero value is an empty vector;
// size it with Reset. Copying a Bits copies the slice header only — the
// copies share storage — so pass *Bits when the vector outlives the call.
type Bits struct {
	words []uint64
	n     int
}

// Reset sizes the vector to n bits, all zero, reusing the existing word
// storage when it is large enough. This is the arena-recycling entry point:
// after the first run at a given n, Reset never allocates.
func (b *Bits) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	w := (n + 63) / 64
	if cap(b.words) >= w {
		b.words = b.words[:w]
		clear(b.words)
	} else {
		b.words = make([]uint64, w)
	}
	b.n = n
}

// CopyFrom makes b a copy of src, reusing b's word storage when it is
// large enough (a snapshot of live state taken without allocating once
// the arena is warm).
func (b *Bits) CopyFrom(src *Bits) {
	if cap(b.words) >= len(src.words) {
		b.words = b.words[:len(src.words)]
	} else {
		b.words = make([]uint64, len(src.words))
	}
	copy(b.words, src.words)
	b.n = src.n
}

// Len returns the number of bits.
func (b *Bits) Len() int { return b.n }

// Get reports whether bit i is set. i must be in [0, Len()).
func (b *Bits) Get(i int) bool {
	return b.words[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b *Bits) Set(i int) {
	b.words[uint(i)>>6] |= 1 << (uint(i) & 63)
}

// Unset clears bit i.
func (b *Bits) Unset(i int) {
	b.words[uint(i)>>6] &^= 1 << (uint(i) & 63)
}

// SetAll sets every bit in [0, Len()).
func (b *Bits) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << r) - 1
	}
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
