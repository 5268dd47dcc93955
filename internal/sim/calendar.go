package sim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"time"
	"unsafe"
)

// CalendarQueue is a two-tier bucket ("calendar") event queue specialized
// for the workload the simulated network generates: almost every event is
// scheduled within a bounded delay band of the current time (the latency
// model's upper bound). Simulated time is divided into fixed-width fine
// buckets, grouped into coarse far slots of 2^bpsShift buckets each:
//
//   - The near ring holds the fine buckets of two consecutive far slots —
//     the one the cursor is draining and the next. A record landing there is
//     appended, unsorted, to its bucket (a chain of small record segments
//     from one shared pool), and a bucket is sorted once, when the cursor
//     reaches it and gathers it into the contiguous scratch it pops from.
//     The ring is capped at calendarNearBuckets, so its headers and segments
//     stay cache-resident however large the run.
//   - The far ring holds the next len(slots) far slots, each an append-only
//     chain of large chunks whose tail pointer and fill count live in the
//     slot header: a push reads one header out of a table of a few KB and
//     stores one record. When the cursor enters the near ring's second slot
//     the window slides by one slot, and the far slot it now covers is
//     scattered — read sequentially, once — into the fine buckets the
//     drained slot just vacated.
//   - Records beyond the far ring (scenario actions scheduled seconds ahead,
//     closure timers) spill into an overflow 4-ary heap and are admitted to
//     the rings whenever the window moves, so the queue is correct for
//     arbitrary timestamps; the delay bound is purely a sizing hint.
//
// The tiers partition time — near < far < overflow — and only the near
// tier's gathered bucket is ever popped, after a stable sort on at. Records
// carry no sequence number: every tier appends in push order, and every
// move between tiers (scatter, overflow admission, grow, rebase, flushCur)
// keeps the relative order of equal-time records, so position is push order
// and fire order is exactly the kernel's (at, push order) whatever path a
// record took. The overflow heap alone cannot keep order by position and
// pairs each record with a seq. The equivalence and fuzz tests lock the
// calendar to the heap trace for trace.
//
// Every piece of storage — both rings, the segment and chunk pools, the
// scratch, the overflow heap — is retained across reconfigure, so a warm
// arena runs with zero allocations per execution. The zero value is not
// usable; a Kernel builds one via SetBoundedDelayHint and recycles it.
type CalendarQueue struct {
	// Geometry: set by reconfigure from the (bound, pending) hint, refined
	// only by grow.
	widthShift uint  // fine bucket width = 1<<widthShift nanoseconds
	bpsShift   uint  // fine buckets per far slot = 1<<bpsShift = len(buckets)/2
	slotShift  uint  // widthShift+bpsShift: far slot width = 1<<slotShift ns
	mask       int64 // len(buckets)-1
	farMask    int64 // len(slots)-1
	growAt     int   // ring record count above which grow halves the bucket width

	// Near tier: the fine buckets of far slots nearSlot and nearSlot+1.
	buckets   []calBucket  // ring: segment-chain endpoints per fine bucket
	nearSlot  int64        // absolute far-slot number the window starts at
	firstHint int64        // no near record lives in an absolute bucket below this
	nearCount int          // records in buckets + the current-bucket scratch
	segs      []calSegment // shared segment pool; free segments chain through freeSeg
	freeSeg   int32
	cur       []record // the bucket being drained, sorted ascending; cur[curHead:] is still queued
	curHead   int
	curAbs    int64 // absolute bucket cur holds, -1 iff cur[curHead:] is empty

	// Far tier: far slots [nearSlot+2, nearSlot+2+len(slots)).
	slots     []farSlot
	farCount  int
	freeChunk *farChunk

	overflow eventHeap // records at or beyond the far ring's end

	stats calStats
}

// calBucket addresses one near-ring bucket's unsorted segment chain.
type calBucket struct{ head, tail int32 }

var emptyBucket = calBucket{head: -1, tail: -1}

// calSegRecords records per segment: 16×16-byte records is four cache
// lines gathered per hop, against one record per hop for a plain linked
// list.
const calSegRecords = 16

type calSegment struct {
	n    int32
	next int32
	recs [calSegRecords]record
}

// farSlot is one far-ring slot: an append-only chunk chain. n is the fill
// count of the tail chunk; an empty slot carries n == farChunkRecords, so
// "tail is full" and "there is no tail" are one test on the push path.
type farSlot struct {
	head, tail *farChunk
	n          uint32
}

var emptySlot = farSlot{n: farChunkRecords}

// farChunkRecords sizes a chunk at 8+127×16 = 2040 bytes: large enough
// that a slot's records are read as a few long sequential runs when it is
// scattered, small enough that the partly filled tail chunk every slot
// carries is noise.
const farChunkRecords = 127

type farChunk struct {
	next *farChunk
	recs [farChunkRecords]record
}

const (
	// calendarInitBuckets is the smallest fine-bucket count a hint sizes
	// the window to.
	calendarInitBuckets = 256
	// calendarNearBuckets caps the near ring: 4096 8-byte headers are 32 KB,
	// and the segments hanging off them a few hundred KB at the handful of
	// records per bucket the hint sizes for — L2-resident at any n.
	calendarNearBuckets = 4096
	// calendarMaxBuckets caps the fine buckets the whole window (far ring
	// included) is divided into; beyond it bucket occupancy grows linearly
	// instead (still cheap — a gather walks contiguous segments and sorts
	// once). At the cap the far ring is 2048 slots, ~48 KB of headers.
	calendarMaxBuckets = 1 << 22
	// calendarGrowAt halves the bucket width when mean occupancy exceeds
	// this load factor — a fallback for callers whose pending-events hint
	// turned out far too low.
	calendarGrowAt = 8
)

// calStats are the counters behind Kernel.QueueStats. Each is bumped on a
// path that already branches (an allocation, a gather, a window move), never
// per push.
type calStats struct {
	peakPending    int // sampled whenever the cursor gathers a bucket
	chunksInUse    int
	peakChunks     int
	chunksOwned    int // chunks ever allocated; all are retained
	peakSegments   int
	grows          uint64
	rebases        uint64
	overflowAdmits uint64
}

// NewCalendarQueue returns an empty calendar sized for the given delay
// bound and expected pending-event count.
func NewCalendarQueue(bound time.Duration, pending int) *CalendarQueue {
	c := &CalendarQueue{}
	c.reconfigure(bound, pending)
	return c
}

// reconfigure empties the queue and re-derives every size from a new delay
// bound and pending-count hint: the window is divided into nb fine buckets
// (the power of two covering pending, so occupancy stays at a handful of
// records), wide enough that nb of them span the bound with a 25% margin;
// the near ring takes up to calendarNearBuckets of them and the far ring is
// as many half-near-ring slots as cover the whole window again — so a
// steady-state push never reaches the overflow heap. Both rings are resliced
// from retained capacity, down as well as up: a warm queue has exactly the
// geometry of a fresh one.
func (c *CalendarQueue) reconfigure(bound time.Duration, pending int) {
	// Emptied under the old geometry, so every retained header — including
	// the ones a smaller ring is about to leave beyond its length — is back
	// to its empty value.
	c.clear()

	nb := calendarInitBuckets
	for nb < pending && nb < calendarMaxBuckets {
		nb <<= 1
	}
	near := min(nb, calendarNearBuckets)
	far := 2 * nb / near
	if cap(c.buckets) < near {
		c.buckets = make([]calBucket, near)
		for i := range c.buckets {
			c.buckets[i] = emptyBucket
		}
	}
	c.buckets = c.buckets[:near]
	if cap(c.slots) < far {
		c.slots = make([]farSlot, far)
		for i := range c.slots {
			c.slots[i] = emptySlot
		}
	}
	c.slots = c.slots[:far]
	c.mask = int64(near - 1)
	c.farMask = int64(far - 1)

	span := int64(bound) + int64(bound)/4
	want := (span + int64(nb) - 1) / int64(nb)
	c.widthShift = 0
	if want > 1 {
		c.widthShift = uint(bits.Len64(uint64(want - 1)))
	}
	c.bpsShift = uint(bits.TrailingZeros(uint(near))) - 1
	c.slotShift = c.widthShift + c.bpsShift
	c.setGrowAt()
}

// setGrowAt arms the grow trigger for the current geometry: a mean of
// calendarGrowAt records per fine bucket over the whole window, or never
// once the width cannot halve or the bucket cap is reached.
func (c *CalendarQueue) setGrowAt() {
	nb := len(c.buckets) / 2 * len(c.slots)
	c.growAt = math.MaxInt
	if c.widthShift > 0 && nb < calendarMaxBuckets {
		c.growAt = calendarGrowAt * nb
	}
}

// clear empties the queue in place and zeroes its counters, retaining ring,
// pool, and scratch capacity.
func (c *CalendarQueue) clear() {
	for i := range c.buckets {
		c.buckets[i] = emptyBucket
	}
	for i := range c.slots {
		if s := &c.slots[i]; s.head != nil {
			s.tail.next = c.freeChunk
			c.freeChunk = s.head
			*s = emptySlot
		}
	}
	c.stats = calStats{chunksOwned: c.stats.chunksOwned} // the pool outlives the run; its counters do not
	c.nearCount = 0
	c.farCount = 0
	c.nearSlot = 0
	c.firstHint = 0
	c.overflow.reset()
	c.segs = c.segs[:0]
	c.freeSeg = -1
	c.cur = c.cur[:0]
	c.curHead = 0
	c.curAbs = -1
}

func (c *CalendarQueue) len() int { return c.nearCount + c.farCount + c.overflow.len() }

func (c *CalendarQueue) absBucket(at Time) int64 { return int64(at) >> c.widthShift }

func (c *CalendarQueue) farSlotOf(at Time) int64 { return int64(at) >> c.slotShift }

// farEnd is the first far-slot number beyond the far ring.
func (c *CalendarQueue) farEnd() int64 { return c.nearSlot + 2 + int64(len(c.slots)) }

func (c *CalendarQueue) allocSeg() int32 {
	if c.freeSeg >= 0 {
		i := c.freeSeg
		c.freeSeg = c.segs[i].next
		c.segs[i].n = 0
		c.segs[i].next = -1
		return i
	}
	c.segs = append(c.segs, calSegment{next: -1})
	c.stats.peakSegments = len(c.segs)
	return int32(len(c.segs) - 1)
}

// appendRec appends rec to near-ring bucket ring's segment chain (unsorted).
func (c *CalendarQueue) appendRec(ring int64, rec record) {
	b := &c.buckets[ring]
	if b.head < 0 {
		s := c.allocSeg()
		b.head, b.tail = s, s
	} else if c.segs[b.tail].n == calSegRecords {
		s := c.allocSeg()
		c.segs[b.tail].next = s
		b.tail = s
	}
	seg := &c.segs[b.tail]
	seg.recs[seg.n] = rec
	seg.n++
}

// farAppend appends rec to far slot slot's chunk chain (unsorted). The
// caller guarantees the slot lies inside the far ring.
func (c *CalendarQueue) farAppend(slot int64, rec record) {
	s := &c.slots[slot&c.farMask]
	i := s.n
	if i >= farChunkRecords {
		c.farExtend(s)
		i = 0
	}
	s.tail.recs[i] = rec
	s.n = i + 1
	c.farCount++
}

// farExtend links an empty chunk from the pool to the end of s. A dry pool
// is refilled by a sixteenth of its size in one allocation: chunks are never
// copied or freed, so the pool outgrows a run's peak by at most that, and a
// warm arena whose next run peaks a little higher pays one malloc for it.
func (c *CalendarQueue) farExtend(s *farSlot) {
	if c.freeChunk == nil {
		block := make([]farChunk, max(16, c.stats.chunksOwned/16))
		for i := range block[1:] {
			block[i].next = &block[i+1]
		}
		c.freeChunk = &block[0]
		c.stats.chunksOwned += len(block)
	}
	ch := c.freeChunk
	c.freeChunk = ch.next
	ch.next = nil
	if s.head == nil {
		s.head = ch
	} else {
		s.tail.next = ch
	}
	s.tail = ch
	if c.stats.chunksInUse++; c.stats.chunksInUse > c.stats.peakChunks {
		c.stats.peakChunks = c.stats.chunksInUse
	}
}

// emptyFar moves every record of far slot slot into the near ring's buckets
// (toNear; the window must already cover the slot) or into the overflow
// heap, and recycles the slot's chunks.
func (c *CalendarQueue) emptyFar(slot int64, toNear bool) {
	s := &c.slots[slot&c.farMask]
	if s.head == nil {
		return
	}
	moved := 0
	for ch := s.head; ch != nil; ch = ch.next {
		recs := ch.recs[:]
		if ch == s.tail {
			recs = recs[:s.n]
		}
		for i := range recs {
			if toNear {
				c.appendRec(c.absBucket(recs[i].at())&c.mask, recs[i])
			} else {
				c.overflow.push(recs[i])
			}
		}
		moved += len(recs)
		c.stats.chunksInUse--
	}
	s.tail.next = c.freeChunk
	c.freeChunk = s.head
	*s = emptySlot
	c.farCount -= moved
	if toNear {
		c.nearCount += moved
	}
}

// emptyNear moves every record of far slot slot out of the near ring — the
// window no longer covers it — into the far ring or, beyond that, the
// overflow heap.
func (c *CalendarQueue) emptyNear(slot int64) {
	toFar := slot < c.farEnd()
	lo := (slot << c.bpsShift) & c.mask
	for ring := lo; ring < lo+1<<c.bpsShift; ring++ {
		for s := c.buckets[ring].head; s >= 0; {
			seg := c.segs[s] // copy, so the segment can be recycled at once
			c.segs[s].next = c.freeSeg
			c.freeSeg = s
			for i := int32(0); i < seg.n; i++ {
				if toFar {
					c.farAppend(slot, seg.recs[i])
				} else {
					c.overflow.push(seg.recs[i])
				}
			}
			c.nearCount -= int(seg.n)
			s = seg.next
		}
		c.buckets[ring] = emptyBucket
	}
}

// push enqueues rec into the tier its timestamp selects. A record below
// the window start re-anchors the window first (see rebase).
func (c *CalendarQueue) push(rec record) {
	slot := c.farSlotOf(rec.at())
	d := slot - c.nearSlot
	switch {
	case uint64(d-2) < uint64(len(c.slots)):
		c.farAppend(slot, rec)
	case d >= 2:
		c.overflow.push(rec)
		return
	default:
		if d < 0 {
			c.rebase(slot)
		}
		c.insert(rec)
	}
	if c.nearCount+c.farCount > c.growAt {
		c.grow()
	}
}

// insert places rec, already known to land inside the near window: a sorted
// insert into the current-bucket scratch when it lands on the bucket being
// drained (so it still fires in exact order), a plain segment append
// otherwise. A record landing below the bucket being drained sends the
// scratch back to its segments first — only the horizon/cancel pattern
// triggers that, never the steady state.
func (c *CalendarQueue) insert(rec record) {
	abs := c.absBucket(rec.at())
	if abs == c.curAbs {
		c.insertCur(rec)
	} else {
		if c.curAbs >= 0 && abs < c.curAbs {
			c.flushCur()
		}
		c.appendRec(abs&c.mask, rec)
	}
	c.nearCount++
	if abs < c.firstHint {
		c.firstHint = abs
	}
}

// insertCur places rec — the latest push, so last among its equal-time
// records — in the bucket being drained, keeping it in fire order. A record
// no earlier than everything queued there is appended: every push at the
// current instant is such a record, and so is every hop of a cascade that
// stays inside the bucket, so a same-instant backlog costs O(1) per push.
// Anything else bubbles in from the tail past the strictly later records,
// and the bubble is capped: past maxBubble steps the scratch goes back to
// its segments with the record, and ready() re-sorts the bucket once
// instead.
func (c *CalendarQueue) insertCur(rec record) {
	n := len(c.cur)
	at := rec.at()
	if c.cur[n-1].at() <= at {
		if n == cap(c.cur) && c.curHead >= n/2 {
			// Reuse the popped prefix before growing: a bucket that keeps
			// refilling while it drains stays as large as its backlog.
			n = copy(c.cur, c.cur[c.curHead:])
			c.cur = c.cur[:n]
			c.curHead = 0
		}
		c.cur = append(c.cur, rec)
		return
	}
	const maxBubble = 64
	if n-c.curHead >= maxBubble && at < c.cur[n-maxBubble].at() {
		ring := c.curAbs & c.mask
		c.flushCur()
		c.appendRec(ring, rec)
		return
	}
	c.cur = append(c.cur, rec)
	i := n
	for i > c.curHead && at < c.cur[i-1].at() {
		c.cur[i] = c.cur[i-1]
		i--
	}
	c.cur[i] = rec
}

// flushCur returns the current-bucket scratch's queued records to their
// ring slot's segments, surrendering "being drained" status.
func (c *CalendarQueue) flushCur() {
	ring := c.curAbs & c.mask
	for _, rec := range c.cur[c.curHead:] {
		c.appendRec(ring, rec)
	}
	c.cur = c.cur[:0]
	c.curHead = 0
	c.curAbs = -1
}

// ready ensures the current-bucket scratch holds the earliest non-empty
// bucket, sorted. Callers guarantee nearCount > 0.
func (c *CalendarQueue) ready() {
	if c.curAbs >= 0 && c.firstHint == c.curAbs {
		return
	}
	if c.curAbs >= 0 {
		// A record landed below the bucket being drained; put the
		// scratch back and gather the earlier bucket instead.
		c.flushCur()
	}
	// Scan to the first non-empty bucket. All near records sit in
	// [firstHint, window end), so the scan is bounded and each empty bucket
	// is skipped at most once per window pass.
	for c.buckets[c.firstHint&c.mask].head < 0 {
		c.firstHint++
	}
	// The cursor entering the window's second slot means the first is
	// drained: slide, scattering the next far slot into the buckets it
	// vacated. Everything that arrives fires after the bucket found above.
	if slot := c.firstHint >> c.bpsShift; slot != c.nearSlot {
		c.advance(slot)
	}
	if n := c.len(); n > c.stats.peakPending {
		c.stats.peakPending = n
	}
	// Gather the bucket's segments — in push order — into the scratch and
	// sort it once, while it is small and cache-resident.
	b := &c.buckets[c.firstHint&c.mask]
	for s := b.head; s >= 0; {
		seg := &c.segs[s]
		c.cur = append(c.cur, seg.recs[:seg.n]...)
		next := seg.next
		seg.next = c.freeSeg
		c.freeSeg = s
		s = next
	}
	*b = emptyBucket
	sortBucket(c.cur)
	c.curAbs = c.firstHint
}

// advance moves the window forward to start at far slot slot. The caller
// guarantees nothing is stored below it: far slots the near window now
// covers are scattered into it, and overflow records the longer reach covers
// are admitted.
func (c *CalendarQueue) advance(slot int64) {
	lo, hi := c.nearSlot+2, c.farEnd() // the far ring so far
	c.nearSlot = slot
	for s := max(lo, slot); s < min(hi, slot+2); s++ {
		c.emptyFar(s, true)
	}
	end := c.farEnd()
	for c.overflow.len() > 0 && c.farSlotOf(c.overflow.min().at()) < end {
		rec := c.overflow.pop()
		c.stats.overflowAdmits++
		if s := c.farSlotOf(rec.at()); s < slot+2 {
			c.insert(rec)
		} else {
			c.farAppend(s, rec)
		}
	}
}

// reanchor restarts a dry near tier at the earliest stored record's far
// slot: the first non-empty slot of the far ring, or with that dry too, the
// overflow heap's minimum. Callers guarantee len() > 0 and nearCount == 0.
func (c *CalendarQueue) reanchor() {
	var slot int64
	if c.farCount > 0 {
		slot = c.nearSlot + 2
		for c.slots[slot&c.farMask].head == nil {
			slot++
		}
	} else {
		slot = c.farSlotOf(c.overflow.min().at())
	}
	c.firstHint = slot << c.bpsShift
	c.advance(slot)
}

// grow halves the bucket width and doubles the near ring, so a far slot
// spans twice as many fine buckets over the same stretch of time: far-slot
// boundaries — and with them every far and overflow record — stay where they
// are, and only the near ring's records are redistributed, each old bucket
// splitting across two new ones.
func (c *CalendarQueue) grow() {
	c.stats.grows++
	if c.curAbs >= 0 {
		c.flushCur()
	}
	old := c.buckets
	c.buckets = make([]calBucket, 2*len(old))
	for i := range c.buckets {
		c.buckets[i] = emptyBucket
	}
	c.mask = int64(len(c.buckets) - 1)
	c.widthShift--
	c.bpsShift++
	c.firstHint <<= 1
	c.setGrowAt()
	c.nearCount = 0
	for _, b := range old {
		for s := b.head; s >= 0; {
			seg := c.segs[s] // copy, so the segment can be recycled at once
			c.segs[s].next = c.freeSeg
			c.freeSeg = s
			for i := int32(0); i < seg.n; i++ {
				c.insert(seg.recs[i])
			}
			s = seg.next
		}
	}
}

// rebase re-anchors the window at a lower far slot. Gathering slides the
// window to the slot being drained, which can run ahead of the kernel clock:
// a peek past a Run horizon does it (the sharded runtime polls NextEventTime
// at every barrier and only then flushes cross-shard arrivals in at the
// window end), and so does discarding a canceled record. A later push below
// the window must not alias into ring positions owned by later slots, so the
// near slots the lower window no longer covers go back to the far ring, and
// far slots pushed off its end spill into the overflow heap, to be admitted
// again as the window returns. The cost is the near ring plus what it held:
// under the hint no record lies a full window past the new start, so the
// spill finds those far slots empty.
func (c *CalendarQueue) rebase(slot int64) {
	c.stats.rebases++
	if c.curAbs >= 0 {
		c.flushCur()
	}
	old, oldEnd := c.nearSlot, c.farEnd()
	c.nearSlot = slot
	for s := max(c.farEnd(), old+2); s < oldEnd; s++ {
		c.emptyFar(s, false)
	}
	for s := max(slot+2, old); s < old+2; s++ {
		c.emptyNear(s)
	}
}

// peek returns the earliest record without removing it.
func (c *CalendarQueue) peek() (record, bool) {
	if c.nearCount == 0 {
		if c.farCount == 0 {
			if c.overflow.len() == 0 {
				return record{}, false
			}
			return c.overflow.min(), true
		}
		c.reanchor()
	}
	c.ready()
	return c.cur[c.curHead], true
}

// pop removes and returns the earliest record. It must only be called when
// len() > 0.
func (c *CalendarQueue) pop() record {
	rec, _ := c.popUntil(End)
	return rec
}

// popUntil removes and returns the earliest record if it fires at or before
// horizon. Otherwise it returns false, leaving the queue as peek would: the
// kernel's event loop makes this its one queue call per event.
func (c *CalendarQueue) popUntil(horizon Time) (record, bool) {
	if c.curAbs < 0 || c.firstHint != c.curAbs { // ready's own early return, hoisted
		if c.nearCount == 0 {
			if c.farCount == 0 && (c.overflow.len() == 0 || c.overflow.min().at() > horizon) {
				return record{}, false
			}
			c.reanchor()
		}
		c.ready()
	}
	rec := c.cur[c.curHead]
	if rec.at() > horizon {
		return record{}, false
	}
	if c.curHead++; c.curHead == len(c.cur) {
		c.cur = c.cur[:0]
		c.curHead = 0
		c.curAbs = -1
	}
	c.nearCount--
	return rec, true
}

// queueStats snapshots the calendar's geometry and counters.
func (c *CalendarQueue) queueStats() QueueStats {
	return QueueStats{
		Kind:         "calendar",
		NearBuckets:  len(c.buckets),
		FarSlots:     len(c.slots),
		BucketWidth:  time.Duration(1) << c.widthShift,
		PeakPending:  c.stats.peakPending,
		PeakSegments: c.stats.peakSegments,
		PeakChunks:   c.stats.peakChunks,
		RetainedBytes: int64(cap(c.buckets))*int64(unsafe.Sizeof(calBucket{})) +
			int64(cap(c.slots))*int64(unsafe.Sizeof(farSlot{})) +
			int64(cap(c.segs))*int64(unsafe.Sizeof(calSegment{})) +
			int64(c.stats.chunksOwned)*int64(unsafe.Sizeof(farChunk{})) +
			int64(cap(c.cur))*recordBytes + c.overflow.retainedBytes(),
		Grows:          c.stats.grows,
		Rebases:        c.stats.rebases,
		OverflowAdmits: c.stats.overflowAdmits,
	}
}

// sortBucket sorts a gathered bucket in fire order: a stable sort on at,
// since the gathered records are in push order and that order breaks ties.
// Steady-state buckets hold a handful of contiguous records, where insertion
// sort (strict <, so stable) beats anything indirect — but a bucket is not
// bounded (a constant-latency model lands a whole message wave on one
// timestamp), and on a large bucket out of order insertion sort is
// quadratic. Past a small threshold, hand off to the standard stable sort,
// which is O(k) on sorted runs and O(k log² k) always.
func sortBucket(b []record) {
	if len(b) > 32 {
		slices.SortStableFunc(b, func(x, y record) int { return cmp.Compare(x.at(), y.at()) })
		return
	}
	for i := 1; i < len(b); i++ {
		rec := b[i]
		at := rec.at()
		j := i
		for j > 0 && at < b[j-1].at() {
			b[j] = b[j-1]
			j--
		}
		b[j] = rec
	}
}
