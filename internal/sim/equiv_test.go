package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// ---------------------------------------------------------------------------
// Reference kernel: the pre-flat-queue implementation — a container/heap of
// *oldEvent closures with eager heap removal on cancel. The equivalence
// test asserts the flat 4-ary value heap fires adversarial schedules in
// exactly the order this kernel does.

type oldEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int
}

type oldQueue []*oldEvent

func (q oldQueue) Len() int { return len(q) }
func (q oldQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oldQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *oldQueue) Push(x any) {
	e := x.(*oldEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *oldQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type oldKernel struct {
	now   Time
	queue oldQueue
	seq   uint64
}

func (k *oldKernel) at(at Time, fn func()) *oldEvent {
	k.seq++
	e := &oldEvent{at: at, seq: k.seq, fn: fn}
	heap.Push(&k.queue, e)
	return e
}

func (k *oldKernel) cancel(e *oldEvent) bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&k.queue, e.index)
	e.index = -1
	return true
}

func (k *oldKernel) run(horizon Time) {
	for len(k.queue) > 0 && k.queue[0].at <= horizon {
		e := heap.Pop(&k.queue).(*oldEvent)
		e.index = -1
		k.now = e.at
		e.fn()
	}
}

// ---------------------------------------------------------------------------
// Driver abstraction so one adversarial script exercises both kernels.

type driver interface {
	schedule(at Time, fn func()) (cancel func() bool)
	now() Time
	run(horizon Time)
}

type newDriver struct{ k *Kernel }

func (d newDriver) schedule(at Time, fn func()) func() bool {
	e := d.k.At(at, fn)
	return func() bool { return d.k.Cancel(e) }
}
func (d newDriver) now() Time        { return d.k.Now() }
func (d newDriver) run(horizon Time) { _ = d.k.Run(horizon) }

type oldDriver struct{ k *oldKernel }

func (d oldDriver) schedule(at Time, fn func()) func() bool {
	e := d.k.at(at, fn)
	return func() bool { return d.k.cancel(e) }
}
func (d oldDriver) now() Time        { return d.k.now }
func (d oldDriver) run(horizon Time) { d.k.run(horizon) }

// adversarialTrace drives d through a schedule designed to stress exactly
// what the flat queue changed: heavy same-timestamp collisions (FIFO tie
// order), cancels of pending events interleaved with firing (including
// cancels issued from inside running events), nested rescheduling, and a
// horizon split mid-schedule. Every decision derives from a hash of the
// event id, so both kernels see an identical script as long as their fire
// orders agree — and the returned trace pins the order itself.
func adversarialTrace(d driver) []string {
	var trace []string
	var cancels []func() bool
	id := 0

	hash := func(x int) uint64 {
		h := uint64(x)*0x9e3779b97f4a7c15 + 0x85ebca6b
		h ^= h >> 33
		h *= 0xc2b2ae3d27d4eb4f
		h ^= h >> 29
		return h
	}

	var spawn func(depth int, at Time)
	spawn = func(depth int, at Time) {
		myID := id
		id++
		h := hash(myID)
		cancel := d.schedule(at, func() {
			trace = append(trace, fmt.Sprintf("fire:%d@%v", myID, d.now()))
			if depth < 3 && h%3 == 0 {
				// Two children at colliding timestamps.
				delta := time.Duration(h>>8%3) * time.Millisecond
				spawn(depth+1, d.now().Add(delta))
				spawn(depth+1, d.now().Add(delta))
			}
			if h%5 == 0 && len(cancels) > 0 {
				victim := int(h >> 16 % uint64(len(cancels)))
				ok := cancels[victim]()
				trace = append(trace, fmt.Sprintf("cancel:%d=%v", victim, ok))
			}
		})
		cancels = append(cancels, cancel)
	}

	// Phase 1: 64 roots spread over just 8 distinct timestamps — every
	// timestamp hosts a FIFO pile-up.
	for i := 0; i < 64; i++ {
		at := Time(time.Duration(hash(1000+i)%8) * time.Millisecond)
		spawn(0, at)
	}
	// Cancel a deterministic third of them before anything fires.
	for i := 0; i < len(cancels); i += 3 {
		ok := cancels[i]()
		trace = append(trace, fmt.Sprintf("precancel:%d=%v", i, ok))
	}
	// Phase 2: run to a horizon that bisects the pile, schedule a second
	// wave (ties with survivors of the first), then drain.
	d.run(Time(3 * time.Millisecond))
	trace = append(trace, fmt.Sprintf("horizon@%v", d.now()))
	for i := 0; i < 32; i++ {
		at := d.now().Add(time.Duration(hash(2000+i)%8) * time.Millisecond)
		spawn(0, at)
	}
	d.run(End)
	// Canceling after the drain must be a uniform no-op.
	for i := 0; i < len(cancels); i += 7 {
		trace = append(trace, fmt.Sprintf("postcancel:%d=%v", i, cancels[i]()))
	}
	return trace
}

// TestFlatQueueMatchesReferenceHeap locks the flat 4-ary heap to the old
// closure-heap kernel, event for event, on a cancel-heavy same-timestamp
// schedule.
func TestFlatQueueMatchesReferenceHeap(t *testing.T) {
	got := adversarialTrace(newDriver{New()})
	want := adversarialTrace(oldDriver{&oldKernel{}})
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: flat=%d reference=%d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("traces diverge at %d:\n  flat:      %s\n  reference: %s", i, got[i], want[i])
		}
	}
	if len(got) < 150 {
		t.Fatalf("schedule too tame: only %d trace entries", len(got))
	}
}

// TestCalendarQueueMatchesReferenceHeap runs the same adversarial
// tie/cancel schedule against calendar-backed kernels across a spread of
// delay hints — a hint much smaller than the schedule's reach (constant
// window sliding and overflow migration), one around it, and one vastly
// larger (everything collapses into few buckets) — and requires the exact
// reference fire order every time.
func TestCalendarQueueMatchesReferenceHeap(t *testing.T) {
	want := adversarialTrace(oldDriver{&oldKernel{}})
	for _, hint := range []time.Duration{
		100 * time.Microsecond, 2 * time.Millisecond, time.Hour,
	} {
		k := New()
		k.SetBoundedDelayHint(hint, 0)
		if k.QueueKind() != "calendar" {
			t.Fatalf("hint %v did not select the calendar queue", hint)
		}
		got := adversarialTrace(newDriver{k})
		if len(got) != len(want) {
			t.Fatalf("hint %v: trace lengths differ: calendar=%d reference=%d", hint, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("hint %v: traces diverge at %d:\n  calendar:  %s\n  reference: %s", hint, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarQueueResetRecyclesBuckets checks the arena cycle: Reset
// reverts to the heap, a fresh hint reactivates the same calendar with its
// warm buckets, and the replayed schedule still matches the reference.
func TestCalendarQueueResetRecyclesBuckets(t *testing.T) {
	want := adversarialTrace(oldDriver{&oldKernel{}})
	k := New()
	for round := 0; round < 3; round++ {
		k.Reset()
		if k.QueueKind() != "heap" {
			t.Fatal("Reset did not revert to the heap")
		}
		k.SetBoundedDelayHint(time.Millisecond, 0)
		got := adversarialTrace(newDriver{k})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d diverges at %d: %s != %s", round, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarRehintShrinks pins the sweep pattern: an arena kernel that
// ran one n=10⁶ cell and then a run of n=5000 cells must give the small
// cells the geometry of a fresh queue — not 10⁶-sized rings to probe and
// clear — and re-hinting within retained capacity must not allocate.
func TestCalendarRehintShrinks(t *testing.T) {
	const bound = 10 * time.Millisecond
	geometry := func(c *CalendarQueue) [6]int {
		return [6]int{len(c.buckets), len(c.slots), int(c.mask), int(c.farMask), int(c.widthShift), int(c.slotShift)}
	}
	k := New()
	k.SetBoundedDelayHint(bound, 1_000_000)
	if big, small := geometry(k.cal), geometry(NewCalendarQueue(bound, 5000)); big == small {
		t.Fatalf("hints of 10⁶ and 5000 pending size the same queue: %v", big)
	}
	k.Reset()
	k.SetBoundedDelayHint(bound, 5000)
	if got, want := geometry(k.cal), geometry(NewCalendarQueue(bound, 5000)); got != want {
		t.Errorf("warm queue re-hinted to 5000 pending has geometry %v, a fresh one %v", got, want)
	}
	if got, want := k.cal.growAt, NewCalendarQueue(bound, 5000).growAt; got != want {
		t.Errorf("warm queue grows at %d records, a fresh one at %d", got, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		k.Reset()
		k.SetBoundedDelayHint(bound, 1_000_000)
		k.Reset()
		k.SetBoundedDelayHint(bound, 5000)
	})
	if allocs != 0 {
		t.Errorf("re-hinting a warm queue allocates %.1f times, want 0", allocs)
	}
}

// TestRecordLayout pins the queued record at 16 bytes — the calendar's
// memory per pending event, and what QueueStats.RetainedBytes counts in.
func TestRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 16 || recordBytes != 16 {
		t.Errorf("record is %d bytes (recordBytes %d), want 16", size, recordBytes)
	}
	if size := unsafe.Sizeof(calSegment{}); size > 4*64+8 {
		t.Errorf("a near-ring segment is %d bytes, want four cache lines of records and its header", size)
	}
	if size := unsafe.Sizeof(farChunk{}); size > 2048 {
		t.Errorf("a far-ring chunk is %d bytes, want at most 2 KB", size)
	}
}

// TestQueueStatsAccountForMemory replays the rumor_1m kernel load — the
// hint simnet gives an n=10⁶ group under 1–10 ms latency, a million events
// kept pending — and requires the queue's own record to explain it: the
// two-tier geometry, no corrective action, and retained storage within
// 1.5× of the 16-byte records it held at peak.
func TestQueueStatsAccountForMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes 3·2²⁰ events")
	}
	const pending, total = 1 << 20, 3 << 20
	k := New()
	k.SetBoundedDelayHint(10*time.Millisecond, 1_000_000)
	delay := func(i int) time.Duration { // 1–10 ms, spread by a Weyl sequence
		return time.Millisecond + time.Duration(uint32(i)*2654435761%9_000_000)
	}
	remaining := total - pending
	var h HandlerID
	h = k.RegisterHandler(func(_ Time, node, _ int32) {
		if remaining > 0 {
			remaining--
			k.ScheduleAfter(delay(remaining), h, node, 0)
		}
	})
	for i := 0; i < pending; i++ {
		k.ScheduleAfter(delay(i), h, int32(i), 0)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	q := k.QueueStats()
	if q.Kind != "calendar" || q.NearBuckets != 4096 || q.FarSlots != 512 || q.BucketWidth != 16 {
		t.Errorf("geometry %+v, want 4096 near buckets of 16 ns and 512 far slots", q)
	}
	if q.Grows != 0 || q.Rebases != 0 || q.OverflowAdmits != 0 {
		t.Errorf("a run inside its hint took corrective action: %+v", q)
	}
	if q.PeakPending < pending-64 || q.PeakPending > pending {
		t.Errorf("peak pending %d, want ≈ %d", q.PeakPending, pending)
	}
	const bytesPerRecord = 16
	if limit := int64(q.PeakPending) * bytesPerRecord * 3 / 2; q.RetainedBytes > limit {
		t.Errorf("queue retains %d bytes for a peak of %d records: %.2f× 16 B each, want ≤ 1.5×",
			q.RetainedBytes, q.PeakPending, float64(q.RetainedBytes)/float64(int64(q.PeakPending)*bytesPerRecord))
	}
	if q.PeakChunks == 0 || q.PeakSegments == 0 {
		t.Errorf("high-water marks missing: %+v", q)
	}
	k.Reset()
	if q := k.QueueStats(); q.Kind != "heap" || q.NearBuckets != 0 {
		t.Errorf("after Reset: %+v, want the heap's record", q)
	}
}

// TestCalendarOverflowMigration pins the overflow path directly: events
// scheduled far beyond the bucket window (as scenario campaigns do) must
// fire interleaved in exact time order with dense near-term traffic, and
// re-anchoring across a long idle gap must not reorder anything.
func TestCalendarOverflowMigration(t *testing.T) {
	k := New()
	k.SetBoundedDelayHint(time.Millisecond, 0) // window ≪ the schedule's reach
	var order []int
	h := k.RegisterHandler(func(_ Time, node, _ int32) { order = append(order, int(node)) })
	// Far-future events first (straight into overflow), then a dense
	// near-term burst, then mid-range events landing between the two.
	k.Schedule(Time(5*time.Second), h, 103, 0)
	k.Schedule(Time(1*time.Second), h, 101, 0)
	k.Schedule(Time(3*time.Second), h, 102, 0)
	for i := 0; i < 50; i++ {
		k.Schedule(Time(time.Duration(i%7)*100*time.Microsecond), h, int32(i), 0)
	}
	k.Schedule(Time(1*time.Second+50*time.Microsecond), h, 104, 0) // ties into 101's bucket region
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 54 {
		t.Fatalf("fired %d events, want 54", len(order))
	}
	tail := order[50:]
	for i, want := range []int{101, 104, 102, 103} {
		if tail[i] != want {
			t.Fatalf("overflow events fired as %v, want [101 104 102 103]", tail)
		}
	}
}

// TestCalendarGrowKeepsOrder floods a small window with far more records
// than the initial ring (forcing several grow/rebucket cycles mid-schedule)
// and checks the FIFO-within-timestamp guarantee survives every rebuild.
func TestCalendarGrowKeepsOrder(t *testing.T) {
	k := New()
	k.SetBoundedDelayHint(10*time.Millisecond, 0)
	const events = 3 * calendarGrowAt * calendarInitBuckets
	fired := 0
	prevAt, prevNode := Time(-1), int32(-1)
	h := k.RegisterHandler(func(now Time, node, _ int32) {
		if now < prevAt {
			t.Fatalf("time went backwards: %v after %v", now, prevAt)
		}
		if now == prevAt && node <= prevNode {
			t.Fatalf("FIFO broken at %v: node %d after %d", now, node, prevNode)
		}
		prevAt, prevNode = now, node
		fired++
	})
	for i := 0; i < events; i++ {
		// 8 distinct timestamps — massive ties — scheduled in node order.
		k.Schedule(Time(time.Duration(i%8)*time.Millisecond), h, int32(i), 0)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != events {
		t.Fatalf("fired %d, want %d", fired, events)
	}
	if prevAt != Time(7*time.Millisecond) {
		t.Fatalf("last event at %v", prevAt)
	}
}

// TestReviewCalendarBulkSameTimeInsertIntoDrainedBucket pins the inserts
// into the bucket being drained: when the cursor has already gathered a
// bucket into the sorted scratch and a bulk of records lands on that same
// bucket — the sharded barrier-flush pattern under constant latency,
// where a whole wave shares one timestamp and every new seq fires after
// all its ties (an append) — with stragglers landing before the wave (a
// bubble past the whole wave, capped: the scratch goes back to its
// segments and is re-sorted once), the fire order must remain exactly the
// reference heap's (at, seq) order.
func TestReviewCalendarBulkSameTimeInsertIntoDrainedBucket(t *testing.T) {
	k := New()
	ref := &oldKernel{}
	var got, want []int32
	h := k.RegisterHandler(func(now Time, node, payload int32) {
		got = append(got, node)
	})
	k.SetBoundedDelayHint(5*time.Millisecond, 4096)
	if k.QueueKind() != "calendar" {
		t.Fatalf("queue kind %q, want calendar", k.QueueKind())
	}

	wave := Time(10 * time.Millisecond)
	id := int32(0)
	sched := func(at Time) {
		n := id
		id++
		k.Schedule(at, h, n, 0)
		ref.at(at, func() { want = append(want, n) })
	}
	for i := 0; i < 200; i++ {
		sched(wave)
	}
	// Load the wave's bucket into the drain scratch: Run looks past an
	// empty horizon, which gathers and sorts the earliest bucket.
	if err := k.Run(Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	ref.run(Time(5 * time.Millisecond))
	// Bulk insert into the gathered bucket: same timestamp (ties firing
	// after everything buffered), plus stragglers just before and after
	// the wave.
	for i := 0; i < 400; i++ {
		sched(wave)
		if i%50 == 0 {
			sched(wave - Time(i+1))
			sched(wave + Time(i+1))
		}
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	ref.run(End)
	if len(got) != len(want) || len(got) != int(id) {
		t.Fatalf("fired %d events, reference %d, scheduled %d", len(got), len(want), id)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fire order diverged at %d: got node %d, reference %d", i, got[i], want[i])
		}
	}
}

// cascade runs a fan-out on k: one root event at time 0, every fired event
// scheduling 8 children delay after itself until total have been scheduled.
// It returns the wall time of the RunAll and a hash of the fire order.
func cascade(t testing.TB, k *Kernel, total int, delay time.Duration) (time.Duration, uint64) {
	t.Helper()
	scheduled, order := 1, uint64(14695981039346656037)
	var h HandlerID
	h = k.RegisterHandler(func(now Time, node, _ int32) {
		order = (order ^ uint64(node)) * 1099511628211
		for c := 0; c < 8 && scheduled < total; c++ {
			k.Schedule(now.Add(delay), h, int32(scheduled), 0)
			scheduled++
		}
	})
	k.Schedule(0, h, 0, 0)
	start := time.Now()
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if k.Fired() != uint64(total) {
		t.Fatalf("fired %d of %d cascade events", k.Fired(), total)
	}
	return elapsed, order
}

// cascadeTotal is the size of the same-instant cascades below: the one that
// used to be quadratic on the calendar (ARCHITECTURE.md, "Why the heap
// stays": 57 ms on the heap, three minutes on a calendar hinted (1 ms, 1000)).
const cascadeTotal = 200_000

// cascadeKernel is a fresh kernel on the heap, or on a calendar hinted (1 ms,
// 1000) — one bucket wide enough to hold a whole +1 ns cascade.
func cascadeKernel(calendar bool) *Kernel {
	k := New()
	if calendar {
		k.SetBoundedDelayHint(time.Millisecond, 1000)
	}
	return k
}

// TestCalendarSameInstantCascade: at one instant and in +1 ns hops, every
// push of a zero-delay cascade lands in the bucket being drained and fires
// after everything there; the calendar fires the heap's order. That each
// such push costs an append, not a bubble, is a wall-clock property:
// BenchmarkSameInstantCascade holds it.
func TestCalendarSameInstantCascade(t *testing.T) {
	for _, delay := range []time.Duration{0, 1} {
		_, want := cascade(t, cascadeKernel(false), cascadeTotal, delay)
		_, got := cascade(t, cascadeKernel(true), cascadeTotal, delay)
		if got != want {
			t.Errorf("delay %v: the calendar fired the cascade in another order than the heap", delay)
		}
	}
}

// BenchmarkSameInstantCascade times the cascades of
// TestCalendarSameInstantCascade on both queues — best of three of each per
// op, the fastest over all ops — reports ns/event on each and their ratio,
// and fails if the calendar takes more than twice the heap's time.
func BenchmarkSameInstantCascade(b *testing.B) {
	for _, delay := range []time.Duration{0, 1} {
		b.Run(fmt.Sprintf("delay=%v", delay), func(b *testing.B) {
			var fastest [2]time.Duration
			for i := 0; i < b.N; i++ {
				for rep := 0; rep < 3; rep++ {
					for q, calendar := range []bool{false, true} {
						d, _ := cascade(b, cascadeKernel(calendar), cascadeTotal, delay)
						if fastest[q] == 0 || d < fastest[q] {
							fastest[q] = d
						}
					}
				}
			}
			heap, cal := fastest[0], fastest[1]
			b.ReportMetric(float64(heap.Nanoseconds())/cascadeTotal, "heap-ns/event")
			b.ReportMetric(float64(cal.Nanoseconds())/cascadeTotal, "calendar-ns/event")
			b.ReportMetric(float64(cal)/float64(heap), "calendar/heap")
			if cal > 2*heap {
				b.Errorf("cascade of %d events takes %v on the calendar, %v on the heap: more than 2×", cascadeTotal, cal, heap)
			}
		})
	}
}

// TestCalendarScheduleZeroAlloc pins the calendar hot path at zero heap
// allocations per event once buckets are warm — the property that lets the
// bounded-latency band run n=10⁷ without GC pressure.
func TestCalendarScheduleZeroAlloc(t *testing.T) {
	k := New()
	k.SetBoundedDelayHint(time.Millisecond, 0)
	var count int
	h := k.RegisterHandler(func(_ Time, _, _ int32) { count++ })
	// Delays of 0–5 ms against a 1 ms hint reach every tier: the near ring's
	// segment pool, the far ring's chunk pool and the overflow heap.
	warm := func() {
		base := k.Now()
		for i := 0; i < 1024; i++ {
			k.Schedule(base.Add(time.Duration(i%37)*time.Microsecond+time.Duration(i%6)*time.Millisecond), h, int32(i), 0)
		}
		if k.cal.farCount == 0 || k.cal.overflow.len() == 0 {
			t.Fatalf("batch left %d far and %d overflow records, want both tiers in use", k.cal.farCount, k.cal.overflow.len())
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up fills the pools: a segment or chunk is allocated the first
	// time the load needs one more than ever before, and recycled from
	// then on.
	for k.Now() < Time(30*time.Millisecond) {
		warm()
	}
	allocs := testing.AllocsPerRun(10, warm)
	if allocs != 0 {
		t.Fatalf("calendar schedule+fire path allocates %.1f per 1024-event batch, want 0", allocs)
	}
}

// TestTypedAndClosureEventsShareFIFOOrder checks that typed (Schedule) and
// closure (At) events interleave in strict scheduling order at equal
// timestamps — one global seq counter spans both paths.
func TestTypedAndClosureEventsShareFIFOOrder(t *testing.T) {
	k := New()
	var order []int
	h := k.RegisterHandler(func(_ Time, node, _ int32) { order = append(order, int(node)) })
	at := Time(time.Millisecond)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			k.Schedule(at, h, int32(i), 0)
		} else {
			i := i
			k.At(at, func() { order = append(order, i) })
		}
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("typed/closure ties not FIFO: %v", order)
		}
	}
}

// TestKernelReset checks that a Reset kernel behaves like a fresh one and
// invalidates pre-Reset handles.
func TestKernelReset(t *testing.T) {
	k := New()
	h := k.RegisterHandler(func(_ Time, _, _ int32) {})
	k.Schedule(Time(time.Millisecond), h, 0, 0)
	stale := k.After(2*time.Millisecond, func() { t.Error("pre-Reset event fired") })
	k.SetBudget(5)

	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 || k.Fired() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d fired=%d", k.Now(), k.Pending(), k.Fired())
	}
	if !stale.Canceled() {
		t.Error("pre-Reset handle still pending")
	}
	if k.Cancel(stale) {
		t.Error("pre-Reset handle canceled successfully")
	}

	var fired []int
	h2 := k.RegisterHandler(func(_ Time, node, _ int32) { fired = append(fired, int(node)) })
	k.Schedule(Time(time.Millisecond), h2, 1, 0)
	k.After(2*time.Millisecond, func() { fired = append(fired, 2) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("post-Reset run fired %v", fired)
	}
	if k.Now() != Time(2*time.Millisecond) {
		t.Fatalf("post-Reset clock at %v", k.Now())
	}
}

// TestScheduleZeroAlloc pins the typed hot path at zero heap allocations
// per event in steady state (queue capacity warmed).
func TestScheduleZeroAlloc(t *testing.T) {
	k := New()
	var count int
	h := k.RegisterHandler(func(_ Time, _, _ int32) { count++ })
	warm := func() {
		base := k.Now()
		for i := 0; i < 1024; i++ {
			k.Schedule(base.Add(time.Duration(i%37)*time.Microsecond), h, int32(i), 0)
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(10, warm)
	if allocs != 0 {
		t.Fatalf("typed schedule+fire path allocates %.1f per 1024-event batch, want 0", allocs)
	}
}
