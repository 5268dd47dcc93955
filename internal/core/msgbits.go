package core

import (
	"fmt"
	"math/bits"
)

// segTargetWords sizes MessageBits segments: ~2 MB of words each, the
// sweet spot between allocation count (a 10⁶-row matrix is a few hundred
// segments, not one multi-hundred-MB block the allocator must find
// contiguous address space for) and per-access overhead (one extra shift
// and mask). Segments are pooled individually, so reshaping a warm matrix
// reuses every segment whose capacity still fits.
const segTargetWords = 1 << 18

// MessageBits is a pooled matrix of per-message delivery bitsets: row m
// holds one bit per member recording whether that member has received
// message m. It is the multi-message generalization of the single
// first-receipt bitset in Run — streaming workloads (internal/stream)
// dedup every (message, member) pair through it. Storage is segment-pooled:
// rows live in fixed-size word blocks of a power-of-two row count each, so
// a 10⁶–10⁷-row matrix never demands one giant contiguous allocation and a
// warm arena redraws the whole matrix without allocating. Rows are
// word-aligned and never span a segment boundary: two rows never share a
// word, so per-shard matrices over disjoint member blocks are safe to
// write concurrently.
type MessageBits struct {
	segs    [][]uint64
	stride  int  // words per message row
	logRows uint // log2(rows per segment)
	rowMask int  // rows-per-segment − 1
	msgs    int
	width   int // bits per row (member count or shard-block width)
}

// Reset sizes the matrix to msgs rows of width bits, all zero, reusing
// pooled segments whose capacity still fits the new geometry.
func (b *MessageBits) Reset(msgs, width int) {
	if msgs < 0 || width < 0 {
		panic(fmt.Sprintf("core: negative message-bits shape %d×%d", msgs, width))
	}
	b.msgs = msgs
	b.width = width
	b.stride = (width + 63) / 64
	rows := 1
	b.logRows = 0
	if b.stride > 0 {
		for rows*2*b.stride <= segTargetWords {
			rows *= 2
			b.logRows++
		}
	}
	b.rowMask = rows - 1
	nSegs := 0
	if b.stride > 0 && msgs > 0 {
		nSegs = (msgs + rows - 1) / rows
	}
	for len(b.segs) < nSegs {
		b.segs = append(b.segs, nil)
	}
	b.segs = b.segs[:nSegs]
	for i := range b.segs {
		// The tail segment (and a small matrix's only one) sizes to the
		// rows it actually holds, so tiny runs neither allocate nor clear
		// a full segment.
		used := rows
		if tail := msgs - i*rows; tail < used {
			used = tail
		}
		w := used * b.stride
		if cap(b.segs[i]) >= w {
			b.segs[i] = b.segs[i][:w]
			clear(b.segs[i])
		} else {
			b.segs[i] = make([]uint64, w)
		}
	}
}

// Msgs returns the number of rows (messages).
func (b *MessageBits) Msgs() int { return b.msgs }

// Get reports whether member id has received message m.
func (b *MessageBits) Get(m, id int) bool {
	seg := b.segs[uint(m)>>b.logRows]
	return seg[(m&b.rowMask)*b.stride+int(uint(id)>>6)]&(1<<(uint(id)&63)) != 0
}

// Set records that member id has received message m.
func (b *MessageBits) Set(m, id int) {
	seg := b.segs[uint(m)>>b.logRows]
	seg[(m&b.rowMask)*b.stride+int(uint(id)>>6)] |= 1 << (uint(id) & 63)
}

// Unset clears member id's bit for message m (the pending-repair matrix
// retires its marks per round through this).
func (b *MessageBits) Unset(m, id int) {
	seg := b.segs[uint(m)>>b.logRows]
	seg[(m&b.rowMask)*b.stride+int(uint(id)>>6)] &^= 1 << (uint(id) & 63)
}

// CountRow returns the number of members that received message m.
func (b *MessageBits) CountRow(m int) int {
	seg := b.segs[uint(m)>>b.logRows]
	row := (m & b.rowMask) * b.stride
	c := 0
	for _, w := range seg[row : row+b.stride] {
		c += bits.OnesCount64(w)
	}
	return c
}

// MessageBits leases shard 0's pooled per-message delivery matrix, sized
// to msgs rows of width bits and cleared — Run.Bits[0] after its Reset,
// for callers that hold no Run. Like every lease it is valid until the
// next call.
func (a *NetArena) MessageBits(msgs, width int) *MessageBits {
	a.msgBits[0].Reset(msgs, width)
	return a.msgBits[0]
}
