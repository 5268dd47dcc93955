package sim

import (
	"fmt"
	"testing"
	"time"

	"gossipkit/internal/xrand"
)

// ---------------------------------------------------------------------------
// FuzzCalendarVsHeap: one byte-driven op stream, two kernels — the heap is
// the oracle — and the traces must agree entry for entry.

// fuzzBounds and the pending exponent (up to 1<<18: a 128-slot far ring)
// span every geometry the hint can produce short of the bucket cap.
var fuzzBounds = []time.Duration{50 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, time.Hour}

const fuzzMaxPendingExp = 18

type fuzzEntry struct {
	kind byte // f typed fire, F closure fire, c cancel, h horizon run (id: ErrBudget), p pending, n next-event-time, s step
	id   int32
	at   Time
}

// fuzzDelay maps a (class, arg) byte pair to a scheduling delay relative to
// the hinted bound: the same timestamp, a few nanoseconds, inside the near
// ring, anywhere in the band (far ring), past the band (the far ring's end
// and the overflow heap), and power-of-two distances that sit exactly on
// bucket and slot boundaries.
func fuzzDelay(bound time.Duration, class, arg int) time.Duration {
	switch class % 8 {
	case 0:
		return 0
	case 1:
		return time.Duration(arg)
	case 2:
		return bound * time.Duration(arg) / 4096
	case 3:
		return bound * time.Duration(arg) / 256
	case 4:
		return bound + bound*time.Duration(arg)/64
	case 5:
		return bound * time.Duration(4+arg)
	case 6:
		return time.Duration(1) << (arg % 44)
	default:
		return time.Duration(1)<<(arg%44) - 1
	}
}

// fuzzScript interprets data on a fresh kernel — calendar-backed under the
// hint the first two bytes select, or the plain heap — driving every horizon
// run through run, and returns what happened, in order. Every decision
// derives from data and the kernel's own clock, so two kernels that fire in
// the same order produce the same trace.
func fuzzScript(data []byte, calendar bool, run func(k *Kernel, horizon Time) error) []fuzzEntry {
	// The engine grows inputs to a megabyte; bound the work per input.
	data = data[:min(len(data), 2+3*1024)]
	burst := 1 << 16
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	k := New()
	var (
		trace   []fuzzEntry
		handles []*Event
		ids     int32
		bound   time.Duration
		h       HandlerID
		horizon Time
	)
	at := func(class, arg int) Time {
		t := k.Now().Add(fuzzDelay(bound, class, arg))
		if t < k.Now() { // overflowed
			t = k.Now()
		}
		return t
	}
	// A typed event's payload is its child spec: class in bits 0-2, arg in
	// bits 3-7, remaining depth above — the handler pushes while the cursor
	// is draining, which is where records land on the gathered bucket.
	setup := func() {
		bound = fuzzBounds[next()%len(fuzzBounds)]
		pending := 0
		if e := next() % (fuzzMaxPendingExp + 2); e > 0 {
			pending = 1 << (e - 1)
		}
		if calendar {
			k.SetBoundedDelayHint(bound, pending)
		}
		handles, horizon = handles[:0], 0
		h = k.RegisterHandler(func(now Time, node, spec int32) {
			trace = append(trace, fuzzEntry{'f', node, now})
			if depth := spec >> 8; depth > 0 {
				ids++
				k.Schedule(at(int(spec&7), int(spec>>3&31)*8), h, ids, spec&0xff|(depth-1)<<8)
			}
		})
	}
	closure := func(t Time) {
		ids++
		id := ids
		handles = append(handles, k.At(t, func() { trace = append(trace, fuzzEntry{'F', id, k.Now()}) }))
	}
	setup()
	for len(data) > 0 {
		op, class, arg := next()%12, next(), next()
		switch op {
		case 0, 1, 2:
			ids++
			k.Schedule(at(class, arg), h, ids, int32(next())|int32(op)<<8)
		case 3, 4:
			closure(at(class, arg))
		case 5:
			if len(handles) > 0 {
				ok := k.Cancel(handles[arg%len(handles)])
				trace = append(trace, fuzzEntry{'c', int32(arg % len(handles)), Time(btoi(ok))})
			}
		case 6:
			// Run to a horizon; case 7 then pushes just past it while the
			// clock still sits at the last fired event — the sharded
			// runtime's barrier pattern.
			horizon = at(class, arg)
			err := run(k, horizon)
			trace = append(trace, fuzzEntry{'h', int32(btoi(err != nil)), k.Now()})
		case 7:
			if t := horizon + 1 + Time(arg); t >= k.Now() {
				ids++
				k.Schedule(t, h, ids, 0)
			}
		case 8:
			t, ok := k.NextEventTime()
			trace = append(trace, fuzzEntry{'n', int32(btoi(ok)), t})
		case 9:
			trace = append(trace, fuzzEntry{'s', int32(btoi(k.Step())), k.Now()})
		case 10:
			// A burst spread over twice the band: volume for the far ring
			// and, under a low pending hint, for grow.
			x := uint64(class)<<8 | uint64(arg) | 1
			for i := 0; i < arg*16 && burst > 0; i++ {
				burst--
				x = x*6364136223846793005 + 1442695040888963407
				ids++
				k.Schedule(k.Now().Add(time.Duration(x>>33)%(2*bound)), h, ids, 0)
			}
		default:
			switch class % 8 {
			case 0: // rarely: a new run on the warm kernel, re-hinted
				k.Reset()
				setup()
			case 1: // a budget a few events away, often spent exactly at the next horizon
				k.SetBudget(k.Fired() + uint64(arg%8))
			case 2:
				k.SetBudget(0)
			}
		}
	}
	err := run(k, End)
	trace = append(trace, fuzzEntry{'h', int32(btoi(err != nil)), k.Now()})
	// A budget spent above leaves events queued; lift it and drain, so every
	// queued event fires and is compared whatever the ops did.
	k.SetBudget(0)
	err = run(k, End)
	trace = append(trace, fuzzEntry{'h', int32(btoi(err != nil)), k.Now()}, fuzzEntry{'p', int32(k.Pending()), 0})
	return trace
}

// equalTraces fails t at the first entry where got and want differ.
func equalTraces(t *testing.T, got, want []fuzzEntry, gotName, wantName string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %s %d, %s %d", gotName, len(got), wantName, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("traces diverge at %d: %s %c %d@%v, %s %c %d@%v", i,
				gotName, got[i].kind, got[i].id, got[i].at, wantName, want[i].kind, want[i].id, want[i].at)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// addFuzzSeeds seeds a fuzz target with the fixed cases the differential
// tests below run, as op streams (the same 20 seeds, one stream per seed and
// hint), and with the hand-written patterns the kernel has had trouble with.
func addFuzzSeeds(f *testing.F) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		for hint := 0; hint < len(fuzzBounds); hint++ {
			data := make([]byte, 2+3*64)
			for i := range data {
				data[i] = byte(r.Intn(256))
			}
			data[0], data[1] = byte(hint), byte(seed)
			f.Add(data)
		}
	}
	// The sharded-barrier pattern on a wide far ring: a burst, run to a
	// horizon, push just past it, poll, repeat.
	f.Add([]byte{2, 19, 10, 3, 200, 6, 2, 40, 7, 0, 1, 8, 0, 0, 7, 0, 200, 6, 3, 90, 7, 0, 0, 8, 0, 0, 10, 9, 255})
	// Reset and re-hint from the widest geometry to the narrowest.
	f.Add([]byte{3, 19, 10, 1, 99, 11, 0, 0, 0, 0, 10, 1, 99, 0, 5, 7, 0})
	// Four closures, a budget of two events and a cancel of the head, then a
	// horizon run that spends the budget on its last event (no ErrBudget) and
	// one that finds it spent with an event due (ErrBudget).
	f.Add([]byte{1, 9, 3, 2, 10, 3, 2, 20, 3, 2, 30, 3, 2, 40, 11, 1, 2, 5, 0, 0, 6, 2, 31, 6, 2, 41, 8, 0, 0})
}

func FuzzCalendarVsHeap(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		want := fuzzScript(data, false, (*Kernel).Run)
		got := fuzzScript(data, true, (*Kernel).Run)
		equalTraces(t, got, want, "calendar", "heap")
	})
}

// ---------------------------------------------------------------------------
// Fixed-seed differentials whose scripts draw from an RNG inside the
// handlers, so the script itself diverges the moment fire order does.

// calendarFuzzPending are the pending hints the fixed-seed differentials
// run under: the minimal two-slot far ring, and rings of 8 and 128 slots.
var calendarFuzzPending = []int{0, 1 << 14, 1 << 18}

func diffAgainstHeap(t *testing.T, runOne func(k *Kernel, seed uint64) []string) {
	for seed := uint64(1); seed <= 20; seed++ {
		want := runOne(New(), seed)
		for _, hint := range []time.Duration{50 * time.Microsecond, time.Millisecond, 8 * time.Millisecond} {
			for _, pending := range calendarFuzzPending {
				kc := New()
				kc.SetBoundedDelayHint(hint, pending)
				got := runOne(kc, seed)
				if len(got) != len(want) {
					t.Fatalf("seed=%d hint=%v pending=%d: len %d vs %d", seed, hint, pending, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed=%d hint=%v pending=%d diverge at %d: cal=%s heap=%s", seed, hint, pending, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// differential fuzz: closure events + cancels, heap vs calendar.
func TestCalendarFuzzClosure(t *testing.T) {
	diffAgainstHeap(t, func(k *Kernel, seed uint64) []string {
		var tr []string
		var cancels []*Event
		r := xrand.New(seed)
		for i := 0; i < 40; i++ {
			i := i
			at := Time(time.Duration(r.Intn(8)) * time.Millisecond)
			cancels = append(cancels, k.At(at, func() {
				tr = append(tr, fmt.Sprintf("%d@%v", i, k.Now()))
			}))
		}
		for i := 0; i < 40; i += 3 {
			ok := k.Cancel(cancels[i])
			tr = append(tr, fmt.Sprintf("c%d=%v", i, ok))
		}
		_ = k.Run(Time(3 * time.Millisecond))
		tr = append(tr, fmt.Sprintf("h@%v", k.Now()))
		for i := 40; i < 60; i++ {
			i := i
			at := k.Now().Add(time.Duration(r.Intn(8_000_000)))
			cancels = append(cancels, k.At(at, func() {
				tr = append(tr, fmt.Sprintf("%d@%v", i, k.Now()))
				if r.Bool(0.3) {
					v := r.Intn(len(cancels))
					tr = append(tr, fmt.Sprintf("c%d=%v", v, k.Cancel(cancels[v])))
				}
			}))
		}
		_ = k.RunAll()
		return tr
	})
}

// differential fuzz: typed events, random times, heap vs calendar.
func TestCalendarFuzzTyped(t *testing.T) {
	diffAgainstHeap(t, func(k *Kernel, seed uint64) []string {
		var tr []string
		r := xrand.New(seed)
		var h HandlerID
		h = k.RegisterHandler(func(now Time, node, depth int32) {
			tr = append(tr, fmt.Sprintf("%d@%v", node, now))
			if depth < 2 && r.Bool(0.4) {
				nkids := 1 + r.Intn(2)
				for c := 0; c < nkids; c++ {
					d := time.Duration(r.Intn(3_000_000)) * time.Nanosecond
					k.Schedule(now.Add(d), h, node*10+int32(c), depth+1)
				}
			}
		})
		for i := 0; i < 40; i++ {
			at := Time(time.Duration(r.Intn(8)) * time.Millisecond)
			k.Schedule(at, h, int32(i), 0)
		}
		_ = k.Run(Time(3 * time.Millisecond))
		tr = append(tr, fmt.Sprintf("h@%v", k.Now()))
		for i := 0; i < 20; i++ {
			at := k.Now().Add(time.Duration(r.Intn(8_000_000)))
			k.Schedule(at, h, int32(1000+i), 0)
		}
		_ = k.RunAll()
		return tr
	})
}

// ---------------------------------------------------------------------------
// White-box differentials: a CalendarQueue and a reference heap fed the same
// records, every pop compared.

type calOracle struct {
	t   *testing.T
	cal *CalendarQueue
	ref []record
	seq uint64
}

func newCalOracle(t *testing.T, bound time.Duration, pending int) *calOracle {
	return &calOracle{t: t, cal: NewCalendarQueue(bound, pending)}
}

func (o *calOracle) push(at Time) {
	o.seq++
	rec := record{at: at, seq: o.seq}
	o.cal.push(rec)
	heapPush(&o.ref, rec)
}

// min is the earliest queued timestamp (zero on an empty queue).
func (o *calOracle) min() Time {
	if len(o.ref) == 0 {
		return 0
	}
	return o.ref[0].at
}

func (o *calOracle) peek() {
	o.t.Helper()
	got, ok := o.cal.peek()
	if ok != (len(o.ref) > 0) || ok && got != o.ref[0] {
		o.t.Fatalf("peek got (at=%d seq=%d ok=%v), reference holds %d", got.at, got.seq, ok, len(o.ref))
	}
}

func (o *calOracle) pop() {
	o.t.Helper()
	if len(o.ref) == 0 {
		return
	}
	want := heapPop(&o.ref)
	if got := o.cal.pop(); got != want {
		o.t.Fatalf("pop got (at=%d seq=%d) want (at=%d seq=%d)", got.at, got.seq, want.at, want.seq)
	}
}

// drain pops everything and requires the calendar to end up empty.
func (o *calOracle) drain() {
	o.t.Helper()
	if o.cal.len() != len(o.ref) {
		o.t.Fatalf("len %d vs reference %d", o.cal.len(), len(o.ref))
	}
	for len(o.ref) > 0 {
		o.pop()
	}
	if o.cal.len() != 0 {
		o.t.Fatalf("calendar not empty at end: %d", o.cal.len())
	}
	o.peek()
}

// Differential stress: push enough pending events to force grow(), mix
// far-future pushes (overflow), and interleave pops with below-window
// pushes (rebase), comparing pop order against the plain heap.
func TestReviewCalendarGrowRebase(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := xrand.New(seed)
		o := newCalOracle(t, time.Millisecond, 0) // 256 buckets, grow above 2048 records
		// Phase 1: flood 10k events within the band to force grow().
		for i := 0; i < 10000; i++ {
			o.push(Time(r.Intn(1_000_000)))
		}
		if o.cal.stats.grows == 0 {
			t.Fatalf("seed=%d: the flood never grew the calendar", seed)
		}
		// Phase 2: interleave pops with pushes, some far future (overflow),
		// some right at/below the current min (rebase pressure).
		for i := 0; i < 30000; i++ {
			op := r.Intn(10)
			switch {
			case op < 6:
				o.pop()
			case op < 8:
				o.push(o.min().Add(time.Duration(r.Intn(2_000_000))))
			case op < 9:
				// far beyond the band: overflow heap
				o.push(o.min().Add(time.Duration(10_000_000 + r.Intn(50_000_000))))
			default:
				// at or just above the current min (can land below the
				// calendar's slid window -> rebase)
				o.push(o.min().Add(time.Duration(r.Intn(3))))
			}
		}
		o.drain()
	}
}

// Stress the overflow-only regime: everything lands beyond the window,
// then drains through re-anchor-on-pop.
func TestReviewCalendarOverflowOnly(t *testing.T) {
	r := xrand.New(7)
	o := newCalOracle(t, 50*time.Microsecond, 0)
	for i := 0; i < 5000; i++ {
		o.push(Time(1_000_000_000 + r.Intn(1_000_000_000)))
	}
	if len(o.cal.overflow) != 5000 {
		t.Fatalf("%d of 5000 records in the overflow heap", len(o.cal.overflow))
	}
	for len(o.ref) > 0 {
		// Interleave a below-window push occasionally: the record shares
		// the timestamp about to pop (at or below the calendar's slid
		// window, forcing the rebase path) but carries a later seq, so
		// the head still fires first and the two queues stay in sync.
		if o.ref[0].seq%97 == 0 {
			o.push(o.min())
		}
		o.pop()
	}
	o.drain()
}

// TestCalendarTierEdges walks the records and window moves that sit exactly
// on a tier boundary. Geometry under hint(10 ms, 1<<16): 4096 near buckets
// of 256 ns, 32 far slots of 2048 buckets (524 µs) each.
func TestCalendarTierEdges(t *testing.T) {
	const bound, pending = 10 * time.Millisecond, 1 << 16
	slotTime := func(c *CalendarQueue, slot int64) Time { return Time(slot << c.slotShift) }
	cases := []struct {
		name string
		run  func(t *testing.T, o *calOracle)
	}{
		{"record on the near/far boundary", func(t *testing.T, o *calOracle) {
			edge := slotTime(o.cal, o.cal.nearSlot+2)
			for _, at := range []Time{edge, edge - 1, edge + 1, edge, edge - 1} {
				o.push(at)
			}
			if o.cal.nearCount != 2 || o.cal.farCount != 3 {
				t.Fatalf("near %d far %d, want 2 and 3", o.cal.nearCount, o.cal.farCount)
			}
			// Again with the window slid one slot on: the old boundary is
			// now the middle of the near ring.
			o.pop()
			o.pop()
			o.peek()
			o.push(edge)
			o.push(slotTime(o.cal, o.cal.nearSlot+2))
			o.push(slotTime(o.cal, o.cal.nearSlot+2) - 1)
		}},
		{"record on the far/overflow boundary", func(t *testing.T, o *calOracle) {
			edge := slotTime(o.cal, o.cal.farEnd())
			for _, at := range []Time{edge, edge - 1, edge + 1, edge, edge - 1} {
				o.push(at)
			}
			if o.cal.farCount != 2 || len(o.cal.overflow) != 3 {
				t.Fatalf("far %d overflow %d, want 2 and 3", o.cal.farCount, len(o.cal.overflow))
			}
			// One near record: popping it leaves the window where it is,
			// and the next pop re-anchors at the far ring's last slot,
			// admitting the overflow records behind it.
			o.push(1)
			o.pop()
			o.pop()
			if o.cal.stats.overflowAdmits != 3 || len(o.cal.overflow) != 0 {
				t.Fatalf("admitted %d, %d still in overflow", o.cal.stats.overflowAdmits, len(o.cal.overflow))
			}
		}},
		{"rebase with the far ring populated", func(t *testing.T, o *calOracle) {
			// Anchor the window a second in, so there is room below it.
			base := Time(time.Second)
			o.push(base)
			o.pop()
			r := xrand.New(3)
			for i := 0; i < 20000; i++ {
				o.push(base + Time(2_000_000+r.Intn(9_000_000)))
			}
			if o.cal.farCount != 20000 {
				t.Fatalf("%d of 20000 records in the far ring", o.cal.farCount)
			}
			// A peek on the dry near tier anchors the window at the first
			// far slot, 2 ms ahead; the sharded barrier flush then pushes
			// below it.
			anchored := o.cal.nearSlot
			o.peek()
			if o.cal.nearSlot <= anchored || o.cal.nearCount == 0 {
				t.Fatalf("peek left the window at slot %d with %d near records", o.cal.nearSlot, o.cal.nearCount)
			}
			o.push(base + 1_000_000)
			o.peek()
			o.push(slotTime(o.cal, o.cal.nearSlot) - 1)
			o.peek()
			o.push(base + 1_999_999)
			o.peek()
			if o.cal.stats.rebases != 2 {
				t.Fatalf("%d rebases, want 2", o.cal.stats.rebases)
			}
			if len(o.cal.overflow) != 0 {
				t.Fatalf("a rebase inside the hinted band spilled %d records to overflow", len(o.cal.overflow))
			}
			// And one far below a populated ring's reach: the far slots
			// pushed off the end spill, and come back in order.
			for i := 0; i < 50; i++ {
				o.pop()
			}
			o.push(slotTime(o.cal, o.cal.farEnd()) - 1)
			o.push(o.min() - Time(3*bound))
			if len(o.cal.overflow) == 0 {
				t.Fatal("a rebase a whole window down spilled nothing")
			}
		}},
		{"a wave on one timestamp in one far slot", func(t *testing.T, o *calOracle) {
			wave := slotTime(o.cal, o.cal.nearSlot+7) + 12345
			for i := 0; i < 5000; i++ {
				o.push(wave)
				if i%1000 == 0 {
					o.push(wave - 1)
					o.push(wave + 1)
					o.push(Time(i))
				}
			}
			if o.cal.farCount != 5010 {
				t.Fatalf("%d far records, want 5010", o.cal.farCount)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newCalOracle(t, bound, pending)
			if len(o.cal.buckets) != 4096 || len(o.cal.slots) != 32 || o.cal.widthShift != 8 {
				t.Fatalf("geometry %d near buckets, %d far slots, width shift %d", len(o.cal.buckets), len(o.cal.slots), o.cal.widthShift)
			}
			tc.run(t, o)
			o.drain()
		})
	}

	t.Run("grow with the far ring populated", func(t *testing.T) {
		r := xrand.New(5)
		o := newCalOracle(t, bound, 0) // 256 near buckets, 2 far slots, grow above 2048 records
		for i := 0; i < 3000; i++ {
			o.push(Time(r.Intn(40_000_000))) // near, far and overflow alike
			if i == 1000 {
				o.peek() // gather a bucket, so grow finds the scratch in use
			}
		}
		if o.cal.stats.grows != 1 || o.cal.farCount == 0 || len(o.cal.overflow) == 0 {
			t.Fatalf("grows %d, far %d, overflow %d", o.cal.stats.grows, o.cal.farCount, len(o.cal.overflow))
		}
		fresh := NewCalendarQueue(bound, 0)
		if o.cal.slotShift != fresh.slotShift || len(o.cal.buckets) != 2*len(fresh.buckets) {
			t.Fatalf("grow moved the far-slot boundaries: slot shift %d → %d, %d buckets", fresh.slotShift, o.cal.slotShift, len(o.cal.buckets))
		}
		o.drain()
	})
}
