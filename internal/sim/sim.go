package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"
)

// Time is a simulated timestamp. The zero Time is the simulation start.
// It counts nanoseconds, mirroring time.Duration, so durations interoperate.
type Time int64

// Add returns t advanced by d, saturating at End and at math.MinInt64
// instead of wrapping: a delay too long to represent lands past MaxTime,
// where the kernel refuses it, never in the past.
func (t Time) Add(d time.Duration) Time {
	s := t + Time(d)
	if (s > t) != (d > 0) {
		if d > 0 {
			return End
		}
		return math.MinInt64
	}
	return s
}

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration since the simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t in seconds since the simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// End is a sentinel time after every schedulable event.
const End Time = math.MaxInt64

// MaxTime is the latest time an event can be scheduled at: a queued record
// packs its timestamp beside the handler id in one word (2⁵⁶−1 ns, about
// 834 days). Scheduling past it is refused — Run returns ErrTimeRange.
const MaxTime Time = 1<<(64-handlerBits) - 1

// ErrTimeRange is returned by Run when an event was scheduled past MaxTime;
// the event is dropped and the kernel stays failed until Reset.
var ErrTimeRange = errors.New("sim: event scheduled past MaxTime")

// HandlerID identifies a typed event handler registered with
// RegisterHandler. The zero value is a valid id (the first handler
// registered); use Schedule only with ids returned by RegisterHandler.
type HandlerID int32

const (
	// handlerBits is the low part of a record's key that holds the handler.
	handlerBits = 8
	// closureHandler marks a record as a closure event dispatched through
	// the slot table instead of the typed handler table; typed ids stay
	// below it.
	closureHandler HandlerID = 1<<handlerBits - 1
)

// record is one queued event. It is a plain 16-byte value — pushing and
// popping records never touches the garbage collector — with no sequence
// number: the calendar keeps equal-time records in push order by position,
// and the heaps pair each record with its seq (heapEntry).
type record struct {
	key  uint64 // at<<handlerBits | handler
	node int32  // handler argument; slot index for closure events
	arg  int32  // handler payload; slot generation for closure events
}

// recordBytes is the size of a record, for the queues' memory accounting.
const recordBytes = int64(unsafe.Sizeof(record{}))

// newRecord packs an event; at must lie in [0, MaxTime].
func newRecord(at Time, h HandlerID, node, arg int32) record {
	return record{key: uint64(at)<<handlerBits | uint64(h), node: node, arg: arg}
}

func (r record) at() Time { return Time(r.key >> handlerBits) }

func (r record) handler() HandlerID { return HandlerID(r.key & (1<<handlerBits - 1)) }

// closureSlot parks a closure event's callback. gen increments every time
// the slot is released (fired, canceled, or reset), so stale queue records
// and stale Event handles can never observe a recycled slot.
type closureSlot struct {
	fn  func()
	gen uint32
}

// Event is a cancelable handle to a closure event scheduled with At or
// After. The zero value is not meaningful.
type Event struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Canceled reports whether the event is no longer pending (it was canceled
// or has already fired).
func (e *Event) Canceled() bool {
	return e == nil || e.k.slots[e.slot].gen != e.gen
}

// Kernel is the simulation driver. The zero value is not usable; call New.
// A Kernel must be used from a single goroutine.
type Kernel struct {
	now    Time
	queue  eventHeap
	fired  uint64
	budget uint64 // 0 = unlimited
	err    error  // ErrTimeRange once an event was scheduled past MaxTime
	live   int    // queued records that have not been canceled

	// cal, when useCal is set, replaces the heap as the event queue (see
	// SetBoundedDelayHint). The object is retained across Reset so its
	// ring and pool capacity is recycled by run-scoped arenas.
	cal    *CalendarQueue
	useCal bool

	handlers  []func(now Time, node, payload int32)
	slots     []closureSlot
	freeSlots []int32
}

// New returns a kernel at time zero.
func New() *Kernel { return &Kernel{} }

// Reset returns the kernel to time zero with an empty queue, retaining the
// queue, handler, and slot capacity so a run-scoped arena can recycle one
// kernel across many executions without reallocating. Registered handlers
// are dropped (re-register them for the next run) and Event handles from
// before the Reset become permanently canceled.
func (k *Kernel) Reset() {
	k.now = 0
	k.queue.reset()
	k.useCal = false // revert to the heap until the next delay hint, which empties the calendar
	k.fired = 0
	k.budget = 0
	k.err = nil
	k.live = 0
	k.handlers = k.handlers[:0]
	k.freeSlots = k.freeSlots[:0]
	for i := range k.slots {
		// Invalidate outstanding handles and queue records, then put
		// every slot back on the free list.
		k.slots[i].fn = nil
		k.slots[i].gen++
		k.freeSlots = append(k.freeSlots, int32(i))
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// SetBudget caps the total number of events the kernel will execute;
// 0 removes the cap. Run returns ErrBudget when the cap is hit, which turns
// runaway protocol bugs into test failures instead of hangs.
func (k *Kernel) SetBudget(n uint64) { k.budget = n }

// ErrBudget is returned by Run when the event budget is exhausted.
var ErrBudget = errors.New("sim: event budget exhausted")

// RegisterHandler registers a typed event handler and returns its id for
// Schedule. Handlers are dispatched by index with the record's two payload
// words — no per-event closure exists anywhere on this path. Handlers
// cannot be unregistered; register once at setup (Reset drops them). A
// kernel holds at most 255 handlers between Resets.
func (k *Kernel) RegisterHandler(h func(now Time, node, payload int32)) HandlerID {
	if h == nil {
		panic("sim: nil handler")
	}
	if len(k.handlers) == int(closureHandler) {
		panic(fmt.Sprintf("sim: more than %d handlers", closureHandler))
	}
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// Schedule enqueues a typed event: handler h fires at absolute time at with
// arguments (node, payload). This is the zero-allocation hot path.
// Scheduling in the past (before Now) panics, since it would break
// causality; scheduling past MaxTime drops the event and fails the kernel
// (Run returns ErrTimeRange).
func (k *Kernel) Schedule(at Time, h HandlerID, node, payload int32) {
	if h < 0 || int(h) >= len(k.handlers) {
		panic(fmt.Sprintf("sim: unregistered handler id %d", h))
	}
	if at < k.now || at > MaxTime {
		k.refuse(at)
		return
	}
	k.qpush(newRecord(at, h, node, payload))
	k.live++
}

// refuse handles a time outside [Now, MaxTime]: a time before Now panics,
// and one past MaxTime fails the kernel — Run returns ErrTimeRange from
// then on.
func (k *Kernel) refuse(at Time) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	if k.err == nil {
		k.err = fmt.Errorf("%w: %v", ErrTimeRange, at)
	}
}

// ScheduleAfter enqueues a typed event after delay d (>= 0) from now.
func (k *Kernel) ScheduleAfter(d time.Duration, h HandlerID, node, payload int32) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.Schedule(k.now.Add(d), h, node, payload)
}

// At schedules fn at absolute time at; scheduling in the past (before Now)
// panics, since it would break causality. It returns a handle that can
// cancel the event. Scheduling past MaxTime fails the kernel as Schedule
// does and returns a nil handle, which reads as canceled.
func (k *Kernel) At(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	if at < k.now || at > MaxTime {
		k.refuse(at)
		return nil
	}
	slot := k.allocSlot(fn)
	gen := k.slots[slot].gen
	k.qpush(newRecord(at, closureHandler, slot, int32(gen)))
	k.live++
	return &Event{k: k, slot: slot, gen: gen}
}

// After schedules fn after delay d (>= 0) from now.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now.Add(d), fn)
}

// Every schedules fn at absolute time start and then repeatedly every
// interval for as long as fn returns true. It is the shared driver of
// recurring activities that pace themselves off the simulated clock — the
// protocol runtime's gossip round ticks and the scenario engine's stall
// watcher both run on it. Each firing is an ordinary closure event, so
// other events scheduled at the same timestamp interleave in seq order,
// and the final false-returning call consumes its event and schedules
// nothing further (the kernel can drain).
func (k *Kernel) Every(start Time, interval time.Duration, fn func() bool) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	if fn == nil {
		panic("sim: nil tick function")
	}
	var fire func()
	fire = func() {
		if !fn() {
			return
		}
		k.At(k.now.Add(interval), fire)
	}
	k.At(start, fire)
}

// Cancel removes a pending event; canceling an already-fired or canceled
// event is a no-op. It reports whether the event was pending. The queue
// record is invalidated in place (generation bump) and discarded when it
// surfaces, so Cancel is O(1).
func (k *Kernel) Cancel(e *Event) bool {
	if e == nil || e.k != k || k.slots[e.slot].gen != e.gen {
		return false
	}
	k.releaseSlot(e.slot)
	k.live--
	return true
}

// Pending returns the number of queued events, not counting canceled ones.
func (k *Kernel) Pending() int { return k.live }

// NextEventTime returns the timestamp of the earliest live pending event,
// or false if none is queued. The sharded runtime's window computation
// polls every shard kernel with it at each barrier.
func (k *Kernel) NextEventTime() (Time, bool) {
	head, ok := k.liveHead()
	return head.at(), ok
}

// Step fires the earliest pending event and returns true, or returns false
// if no live event is queued.
func (k *Kernel) Step() bool {
	head, ok := k.liveHead()
	if ok {
		k.fire(head)
	}
	return ok
}

// Run fires events until the queue is empty or the horizon is passed
// (events scheduled strictly after horizon remain queued; the clock is left
// at the later of its current value and the last fired event). It returns
// ErrBudget if the event budget is exhausted first, and ErrTimeRange once an
// event was scheduled past MaxTime.
//
// Each event costs one queue call: the record at or before the horizon is
// popped, a canceled closure record is discarded right there, and a live one
// is dispatched in place.
func (k *Kernel) Run(horizon Time) error {
	for {
		if k.err != nil {
			return k.err
		}
		if k.budget > 0 && k.fired >= k.budget {
			if head, ok := k.liveHead(); ok && head.at() <= horizon {
				return ErrBudget
			}
			return nil
		}
		var rec record
		if k.useCal {
			var ok bool
			if rec, ok = k.cal.popUntil(horizon); !ok {
				return nil
			}
		} else {
			if k.queue.len() == 0 || k.queue.min().at() > horizon {
				return nil
			}
			rec = k.queue.pop()
		}
		if k.stale(rec) {
			continue // canceled
		}
		k.dispatch(rec)
	}
}

// RunAll fires every event until the queue drains. It returns ErrBudget if
// the event budget is exhausted first.
func (k *Kernel) RunAll() error { return k.Run(End) }

// liveHead discards stale (canceled) records at the top of the queue and
// returns the earliest live event without removing it, or false if none is
// queued. NextEventTime, Step and Run's budget check read the head this
// way; Run's own loop pops without peeking.
func (k *Kernel) liveHead() (record, bool) {
	for {
		rec, ok := k.qpeek()
		if !ok || !k.stale(rec) {
			return rec, ok
		}
		k.qpop()
	}
}

// stale reports whether rec is a canceled closure record: its slot has been
// released (and perhaps reused) since it was queued.
func (k *Kernel) stale(rec record) bool {
	return rec.handler() == closureHandler && k.slots[rec.node].gen != uint32(rec.arg)
}

// fire removes head — the record liveHead just returned — from the queue
// and executes it.
func (k *Kernel) fire(head record) {
	k.qpop()
	k.dispatch(head)
}

// dispatch executes a live record taken off the queue.
func (k *Kernel) dispatch(rec record) {
	at, h := rec.at(), rec.handler()
	k.now = at
	k.fired++
	k.live--
	if h == closureHandler {
		fn := k.slots[rec.node].fn
		k.releaseSlot(rec.node)
		fn()
		return
	}
	k.handlers[h](at, rec.node, rec.arg)
}

// ---------------------------------------------------------------------------
// Closure slot table

func (k *Kernel) allocSlot(fn func()) int32 {
	if n := len(k.freeSlots); n > 0 {
		idx := k.freeSlots[n-1]
		k.freeSlots = k.freeSlots[:n-1]
		k.slots[idx].fn = fn
		return idx
	}
	k.slots = append(k.slots, closureSlot{fn: fn})
	return int32(len(k.slots) - 1)
}

// releaseSlot invalidates and recycles a slot. The generation bump makes
// any queue record or Event handle still pointing at it permanently stale.
func (k *Kernel) releaseSlot(idx int32) {
	k.slots[idx].fn = nil
	k.slots[idx].gen++
	k.freeSlots = append(k.freeSlots, idx)
}

// ---------------------------------------------------------------------------
// Queue selection
//
// The kernel owns two queue disciplines over the same record type: the flat
// 4-ary heap below (general-purpose, O(log n)) and the CalendarQueue in
// calendar.go (amortized O(1) when event delays sit in a bounded band).
// Both fire records in exactly the same order — earlier time first, push
// order among equal times — and the equivalence tests lock them to one
// another, so which one is active is invisible to callers except in
// throughput.

// SetBoundedDelayHint tells the kernel that scheduling delays are expected
// to stay within max of the current time with around pending events queued
// at once, switching the event queue to the calendar (bucket) discipline
// sized for that band; max <= 0 reverts to the 4-ary heap. Both values are
// performance advice, not a contract: events scheduled beyond the band
// spill into the calendar's overflow heap and still fire in exact
// (at, seq) order, and a low pending estimate merely raises bucket
// occupancy (the calendar also halves its bucket width under load). Every
// size is re-derived from the hint at hand, so a kernel that once ran a
// large group is no larger for a small one afterwards. The hint only takes
// effect while the queue is empty (a non-empty queue leaves the discipline
// unchanged), and Reset reverts to the heap — re-hint after each Reset, as
// simnet's bounded latency models do automatically.
func (k *Kernel) SetBoundedDelayHint(max time.Duration, pending int) {
	if k.qlen() != 0 {
		return
	}
	if max <= 0 {
		k.useCal = false
		return
	}
	if k.cal == nil {
		k.cal = NewCalendarQueue(max, pending)
	} else {
		k.cal.reconfigure(max, pending)
	}
	k.useCal = true
}

// QueueKind reports which queue discipline is active: "calendar" or "heap".
func (k *Kernel) QueueKind() string {
	if k.useCal {
		return "calendar"
	}
	return "heap"
}

// QueueStats is the event queue's own account of a run: the geometry the
// hint gave it, how much it held, what it retains, and how often it had to
// correct itself. Everything but Kind and RetainedBytes is the calendar's;
// the heap has no geometry and keeps no counters.
type QueueStats struct {
	Kind string // QueueKind

	NearBuckets int           // fine buckets in the near ring
	FarSlots    int           // coarse slots in the far ring
	BucketWidth time.Duration // simulated time per fine bucket

	PeakPending  int // most records queued at once, sampled at each bucket gather
	PeakSegments int // near-ring record segments in the pool
	PeakChunks   int // far-ring chunks in use at once

	// RetainedBytes is the storage the queue holds on to for the next run:
	// rings, segment and chunk pools, scratch and overflow heap.
	RetainedBytes int64

	Grows          uint64 // bucket-width halvings forced by a low pending hint
	Rebases        uint64 // window re-anchorings below its start
	OverflowAdmits uint64 // records that waited in the overflow heap
}

// QueueStats reports the active queue's statistics since the hint that
// selected it (calendar) or since Reset (heap). Read it after a run and
// before the next Reset.
func (k *Kernel) QueueStats() QueueStats {
	if k.useCal {
		return k.cal.queueStats()
	}
	return QueueStats{Kind: "heap", RetainedBytes: k.queue.retainedBytes()}
}

func (k *Kernel) qpush(rec record) {
	if k.useCal {
		k.cal.push(rec)
	} else {
		k.queue.push(rec)
	}
}

func (k *Kernel) qpop() record {
	if k.useCal {
		return k.cal.pop()
	}
	return k.queue.pop()
}

func (k *Kernel) qpeek() (record, bool) {
	if k.useCal {
		return k.cal.peek()
	}
	if k.queue.len() == 0 {
		return record{}, false
	}
	return k.queue.min(), true
}

func (k *Kernel) qlen() int {
	if k.useCal {
		return k.cal.len()
	}
	return k.queue.len()
}

// ---------------------------------------------------------------------------
// Flat 4-ary min-heap
//
// A 4-ary layout halves the tree depth of a binary heap: sift-down does
// more comparisons per level but far fewer cache-missing swaps, which wins
// on queues with 10⁵..10⁶ value-typed records. A heap does not keep equal
// keys in push order, so each entry carries the seq of its push: the
// kernel's heap discipline and the CalendarQueue's overflow tier are both
// an eventHeap.

const heapArity = 4

// heapEntry is a queued record and its push sequence number.
type heapEntry struct {
	rec record
	seq uint64
}

// before reports whether a fires before b: earlier time first, push order
// (seq) breaking ties — the FIFO guarantee.
func (a heapEntry) before(b heapEntry) bool {
	if at, bt := a.rec.at(), b.rec.at(); at != bt {
		return at < bt
	}
	return a.seq < b.seq
}

// eventHeap is a flat 4-ary min-heap of records in (at, push order).
type eventHeap struct {
	q   []heapEntry
	seq uint64 // pushes so far
}

func (h *eventHeap) len() int { return len(h.q) }

// min returns the earliest record; the heap must not be empty.
func (h *eventHeap) min() record { return h.q[0].rec }

// reset empties the heap, retaining its capacity.
func (h *eventHeap) reset() {
	h.q = h.q[:0]
	h.seq = 0
}

func (h *eventHeap) retainedBytes() int64 {
	return int64(cap(h.q)) * int64(unsafe.Sizeof(heapEntry{}))
}

func (h *eventHeap) push(rec record) {
	h.seq++
	h.q = append(h.q, heapEntry{rec: rec, seq: h.seq})
	heapSiftUp(h.q, len(h.q)-1)
}

// pop removes and returns the earliest record; the heap must not be empty.
func (h *eventHeap) pop() record {
	q := h.q
	top := q[0].rec
	last := len(q) - 1
	q[0] = q[last]
	h.q = q[:last]
	if last > 0 {
		heapSiftDown(q[:last], 0)
	}
	return top
}

func heapSiftUp(q []heapEntry, i int) {
	e := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func heapSiftDown(q []heapEntry, i int) {
	n := len(q)
	e := q[i]
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(e) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = e
}
