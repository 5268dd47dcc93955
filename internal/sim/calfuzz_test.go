package sim

import (
	"errors"
	"fmt"
	"math"
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
	return fuzzScriptOn(New(), data, calendar, run)
}

// fuzzScriptOn is fuzzScript on a given fresh kernel, which the caller can
// inspect afterwards.
func fuzzScriptOn(k *Kernel, data []byte, calendar bool, run func(k *Kernel, horizon Time) error) []fuzzEntry {
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
	var (
		trace   []fuzzEntry
		handles []*Event
		ids     int32
		bound   time.Duration
		h       HandlerID
		horizon Time
	)
	// Add saturates: a time past MaxTime fails both kernels alike
	// (ErrTimeRange), it never wraps into the past.
	at := func(class, arg int) Time { return k.Now().Add(fuzzDelay(bound, class, arg)) }
	// A typed event's payload is its child spec: class in bits 0-2, arg in
	// bits 3-7, remaining depth above — the handler pushes while the cursor
	// is draining, which is where records land on the gathered bucket.
	//
	// The bound byte's high bits drive the record's packed fields to their
	// extremes: bit 2 gives the handler the largest typed id, bit 3 starts
	// every closure slot's generation just below its wrap, and bit 4 starts
	// the clock 64 bounds short of MaxTime.
	setup := func() {
		b := next()
		bound = fuzzBounds[b%len(fuzzBounds)]
		pending := 0
		if e := next() % (fuzzMaxPendingExp + 2); e > 0 {
			pending = 1 << (e - 1)
		}
		if calendar {
			k.SetBoundedDelayHint(bound, pending)
		}
		handles, horizon = handles[:0], 0
		if b&4 != 0 {
			for len(k.handlers) < int(closureHandler)-1 {
				k.RegisterHandler(func(Time, int32, int32) { panic("padding handler fired") })
			}
		}
		if b&8 != 0 {
			for len(k.slots) < 4 {
				k.slots = append(k.slots, closureSlot{})
				k.freeSlots = append(k.freeSlots, int32(len(k.slots)-1))
			}
			for i := range k.slots {
				k.slots[i].gen = math.MaxUint32 - uint32(i%3)
			}
		}
		if b&16 != 0 {
			k.now = MaxTime - 64*Time(bound)
		}
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
	for _, w := range waveSeeds {
		f.Add(w.data)
	}
}

// ops concatenates op byte groups, each repeated n times: ops(2, a, b) is
// a, b, a, b.
func ops(n int, groups ...[]byte) []byte {
	var out []byte
	for ; n > 0; n-- {
		for _, g := range groups {
			out = append(out, g...)
		}
	}
	return out
}

func cat(parts ...[]byte) []byte { return ops(1, parts...) }

// Op byte groups for the wave seeds: a typed event (op 0, no children) or
// a closure (op 3) after a fuzzDelay (class, arg), a typed parent (op 1)
// whose one child follows after its spec's delay, a horizon run (op 6), a
// push just past the horizon (op 7), a peek (op 8), a burst (op 10), and a
// Reset re-hinted to (bound, pending exponent) (op 11, class 0).
func typed(class, arg byte) []byte        { return []byte{0, class, arg, 0} }
func closureAt(class, arg byte) []byte    { return []byte{3, class, arg} }
func parent(class, arg, spec byte) []byte { return []byte{1, class, arg, spec} }
func runTo(class, arg byte) []byte        { return []byte{6, class, arg} }
func pastHorizon(arg byte) []byte         { return []byte{7, 0, arg} }
func burst(class, arg byte) []byte        { return []byte{10, class, arg} }
func rehint(bound, pendingExp byte) []byte {
	return []byte{11, 0, 0, bound, pendingExp}
}

var peekOp = []byte{8, 0, 0}

// childSpec is a parent's payload byte: one child after fuzzDelay(class,
// arg·8).
func childSpec(class, arg8 byte) byte { return class | arg8<<3 }

// waveSeeds send waves of equal-time records — typed and closure events
// pushed at one timestamp at different moments — across every move between
// the calendar's tiers, so FIFO among equal times has to survive each move
// by position alone; the last two drive the record's packed fields to their
// extremes. check, if set, confirms on the calendar kernel the seed ran on
// that the move happened.
var waveSeeds = []struct {
	name  string
	data  []byte
	check func(k *Kernel, trace []fuzzEntry) bool
}{
	{"scatter: a far-ring wave joined by children and later pushes", cat(
		[]byte{2, 15}, // 10 ms, 2¹⁴ pending: 8 far slots
		ops(3, ops(8, typed(3, 128)), closureAt(3, 128)), // T = +5 ms, in the far ring
		ops(8, parent(3, 64, childSpec(3, 8))),           // at +2.5 ms, each child at T
		runTo(3, 100),
		ops(8, typed(3, 64)), // the clock sits at +2.5 ms: T again
	), nil},
	{"overflow admission: an overflow wave joined by children and later pushes", cat(
		[]byte{1, 11}, // 1 ms, 2¹⁰ pending: the far ring ends at +4.2 ms
		ops(3, ops(6, typed(5, 1)), closureAt(5, 1)), // T = +5 ms, in the overflow heap
		ops(6, parent(4, 0, childSpec(5, 0))),        // at +1 ms, each child at T
		runTo(4, 0),
		ops(6, typed(5, 0)), // the clock sits at +1 ms: T again
	), func(k *Kernel, _ []fuzzEntry) bool { return k.QueueStats().OverflowAdmits > 0 }},
	{"grow: a wave redistributed by bucket halvings", cat(
		[]byte{2, 0}, // 10 ms, no pending hint: 256 buckets, grow past 2048 records
		ops(10, typed(3, 128)), closureAt(3, 128), burst(7, 200),
		ops(10, typed(3, 128)), closureAt(3, 128), burst(9, 150),
		ops(10, typed(3, 128)),
	), func(k *Kernel, _ []fuzzEntry) bool { return k.QueueStats().Grows > 0 }},
	{"rebase: a wave sent back to the far ring by a push below the window", cat(
		[]byte{2, 15},
		ops(8, typed(3, 128)), closureAt(3, 128), closureAt(3, 128),
		runTo(1, 10),   // nothing due: the window runs ahead to T's slot
		pastHorizon(5), // the barrier push below it
		ops(8, typed(3, 128)), closureAt(3, 128),
		peekOp, runTo(1, 10), pastHorizon(7),
		ops(8, typed(3, 128)),
	), func(k *Kernel, _ []fuzzEntry) bool { return k.QueueStats().Rebases > 0 }},
	{"maxBubble: stragglers that send a gathered wave back to its segments", cat(
		[]byte{3, 15},                  // 1 h: one bucket spans the whole wave and its stragglers
		ops(70, typed(1, 200)), peekOp, // T = +200 ns, gathered
		typed(1, 150), // 64+ records ahead of it: the bubble gives up
		ops(10, typed(1, 200)), typed(1, 150), ops(10, typed(1, 200)), peekOp,
		ops(3, typed(1, 200)), typed(1, 199),
	), nil},
	{"Reset and re-hint between waves", cat(
		[]byte{2, 15},
		ops(8, typed(3, 128)), closureAt(3, 128), runTo(3, 64),
		rehint(1, 19), // 1 ms, 2¹⁸ pending
		ops(8, typed(3, 128)), closureAt(3, 128), ops(8, typed(5, 2)), closureAt(5, 2),
	), nil},
	{"packed extremes: handler 254, wrapping generations, a wave at MaxTime", cat(
		[]byte{2 | 4 | 8 | 16, 15},             // clock at MaxTime − 64 bounds
		ops(4, typed(5, 60)), closureAt(5, 60), // exactly MaxTime
		ops(3, ops(4, typed(3, 128)), closureAt(3, 128), closureAt(3, 128)),
		[]byte{5, 0, 1}, []byte{5, 0, 4},
		runTo(3, 200),
		ops(12, closureAt(0, 0), []byte{5, 0, 255}), // fire and cancel through each slot's wrap
		ops(4, typed(5, 59)), closureAt(5, 59),
	), func(k *Kernel, trace []fuzzEntry) bool {
		n := len(trace)
		return k.Now() == MaxTime && trace[n-3].at == MaxTime && trace[n-3].id == 0
	}},
	{"packed extremes: a push past MaxTime fails both kernels", cat(
		[]byte{1 | 4 | 16, 15},
		ops(4, typed(3, 128)), closureAt(3, 128), runTo(3, 130),
		ops(4, typed(5, 60)), closureAt(5, 60), // past MaxTime now
		ops(4, typed(3, 128)),
	), func(k *Kernel, trace []fuzzEntry) bool {
		return errors.Is(k.err, ErrTimeRange) && trace[len(trace)-3].id == 1
	}},
}

// TestWaveSeedsReachTheirTransitions: each wave seed matches the heap, and
// on the calendar it makes the tier move it was written for.
func TestWaveSeedsReachTheirTransitions(t *testing.T) {
	for _, w := range waveSeeds {
		t.Run(w.name, func(t *testing.T) {
			k := New()
			got := fuzzScriptOn(k, w.data, true, (*Kernel).Run)
			equalTraces(t, got, fuzzScript(w.data, false, (*Kernel).Run), "calendar", "heap")
			if w.check != nil && !w.check(k, got) {
				t.Errorf("the seed missed its transition: %+v, now %v, err %v", k.QueueStats(), k.Now(), k.err)
			}
		})
	}
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
	ref eventHeap // (at, seq) order, seq counting pushes
	ids int32
}

func newCalOracle(t *testing.T, bound time.Duration, pending int) *calOracle {
	return &calOracle{t: t, cal: NewCalendarQueue(bound, pending)}
}

func (o *calOracle) push(at Time) { o.pushRec(at, 0, 0) }

// pushRec queues one record on both queues. Its node is its push number —
// the reference's seq — so a pop names the record it returned.
func (o *calOracle) pushRec(at Time, h HandlerID, arg int32) {
	o.ids++
	rec := newRecord(at, h, o.ids, arg)
	o.cal.push(rec)
	o.ref.push(rec)
}

// min is the earliest queued timestamp (zero on an empty queue).
func (o *calOracle) min() Time {
	if o.ref.len() == 0 {
		return 0
	}
	return o.ref.min().at()
}

func (o *calOracle) peek() {
	o.t.Helper()
	got, ok := o.cal.peek()
	if ok != (o.ref.len() > 0) || ok && got != o.ref.min() {
		o.t.Fatalf("peek got (at=%d seq=%d ok=%v), reference holds %d", got.at(), got.node, ok, o.ref.len())
	}
}

func (o *calOracle) pop() {
	o.t.Helper()
	if o.ref.len() == 0 {
		return
	}
	want := o.ref.pop()
	if got := o.cal.pop(); got != want {
		o.t.Fatalf("pop got (at=%d seq=%d) want (at=%d seq=%d)", got.at(), got.node, want.at(), want.node)
	}
}

// drain pops everything and requires the calendar to end up empty.
func (o *calOracle) drain() {
	o.t.Helper()
	if o.cal.len() != o.ref.len() {
		o.t.Fatalf("len %d vs reference %d", o.cal.len(), o.ref.len())
	}
	for o.ref.len() > 0 {
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
	if o.cal.overflow.len() != 5000 {
		t.Fatalf("%d of 5000 records in the overflow heap", o.cal.overflow.len())
	}
	for o.ref.len() > 0 {
		// Interleave a below-window push occasionally: the record shares
		// the timestamp about to pop (at or below the calendar's slid
		// window, forcing the rebase path) but carries a later seq, so
		// the head still fires first and the two queues stay in sync.
		if o.ref.q[0].seq%97 == 0 {
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
			if o.cal.farCount != 2 || o.cal.overflow.len() != 3 {
				t.Fatalf("far %d overflow %d, want 2 and 3", o.cal.farCount, o.cal.overflow.len())
			}
			// One near record: popping it leaves the window where it is,
			// and the next pop re-anchors at the far ring's last slot,
			// admitting the overflow records behind it.
			o.push(1)
			o.pop()
			o.pop()
			if o.cal.stats.overflowAdmits != 3 || o.cal.overflow.len() != 0 {
				t.Fatalf("admitted %d, %d still in overflow", o.cal.stats.overflowAdmits, o.cal.overflow.len())
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
			if o.cal.overflow.len() != 0 {
				t.Fatalf("a rebase inside the hinted band spilled %d records to overflow", o.cal.overflow.len())
			}
			// And one far below a populated ring's reach: the far slots
			// pushed off the end spill, and come back in order.
			for i := 0; i < 50; i++ {
				o.pop()
			}
			o.push(slotTime(o.cal, o.cal.farEnd()) - 1)
			o.push(o.min() - Time(3*bound))
			if o.cal.overflow.len() == 0 {
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
		// The cases below send waves of equal-time records across each
		// move between tiers: records carry no seq, so the oracle's push
		// order has to survive every move by position alone.
		{"an equal-time wave across scatter", func(t *testing.T, o *calOracle) {
			wave := slotTime(o.cal, o.cal.nearSlot+5) + 777 // bucket 3 of its slot, with wave±1
			for i := 0; i < 100; i++ {
				o.push(wave)
				if i%25 == 0 {
					o.push(wave + 1)
					o.push(wave - 1)
				}
			}
			if o.cal.farCount != 108 {
				t.Fatalf("%d far records, want 108", o.cal.farCount)
			}
			// Re-anchor on the wave's slot: it is scattered into the near
			// ring and its bucket gathered and sorted, 108 records at once.
			o.push(1)
			o.pop()
			o.peek()
			if o.cal.farCount != 0 || o.cal.curAbs < 0 || len(o.cal.cur) != 108 {
				t.Fatalf("far %d, gathered %d records in bucket %d", o.cal.farCount, len(o.cal.cur), o.cal.curAbs)
			}
			// Pushes into the gathered bucket bubble past wave+1 only.
			for i := 0; i < 40; i++ {
				o.push(wave)
				if i%10 == 0 {
					o.pop()
				}
			}
		}},
		{"an equal-time wave across overflow admission", func(t *testing.T, o *calOracle) {
			wave := slotTime(o.cal, o.cal.farEnd()) + 999
			for i := 0; i < 100; i++ {
				o.push(wave)
				if i%25 == 0 {
					o.push(wave + 300) // the next bucket
					o.push(wave - 1)
				}
			}
			if o.cal.overflow.len() != 108 {
				t.Fatalf("%d overflow records, want 108", o.cal.overflow.len())
			}
			// Popping a record three slots on re-anchors the window there:
			// the wave is admitted to the far ring, and later pushes queue
			// behind it.
			o.push(slotTime(o.cal, o.cal.nearSlot+3))
			o.pop()
			if o.cal.stats.overflowAdmits != 108 || o.cal.farCount != 108 {
				t.Fatalf("admitted %d, far %d, want 108 and 108", o.cal.stats.overflowAdmits, o.cal.farCount)
			}
			for i := 0; i < 50; i++ {
				o.push(wave)
			}
		}},
		{"an equal-time wave across rebase", func(t *testing.T, o *calOracle) {
			base := Time(time.Second)
			o.push(base)
			o.pop()
			wave := slotTime(o.cal, o.cal.nearSlot+1) + 100 // the near ring's second slot
			for i := 0; i < 80; i++ {
				o.push(wave)
			}
			// Three slots down: the wave's slot goes back to the far ring,
			// and later pushes follow it there.
			o.push(slotTime(o.cal, o.cal.nearSlot-3))
			if o.cal.stats.rebases != 1 || o.cal.farCount != 80 {
				t.Fatalf("rebases %d, far %d, want 1 and 80", o.cal.stats.rebases, o.cal.farCount)
			}
			for i := 0; i < 40; i++ {
				o.push(wave)
			}
			// Again with the wave gathered: the scratch is flushed to its
			// segments first.
			o.pop()
			o.peek()
			if o.cal.curAbs != o.cal.absBucket(wave) {
				t.Fatalf("gathered bucket %d, want the wave's %d", o.cal.curAbs, o.cal.absBucket(wave))
			}
			o.push(wave)
			o.push(slotTime(o.cal, o.cal.nearSlot) - 1)
			if o.cal.stats.rebases != 2 || o.cal.curAbs >= 0 {
				t.Fatalf("rebases %d, gathered bucket %d, want 2 and none", o.cal.stats.rebases, o.cal.curAbs)
			}
			o.push(wave)
			// And a whole window down: the wave spills to the overflow
			// heap, behind nothing, and later pushes follow it there.
			o.push(wave - Time(3*bound))
			if o.cal.overflow.len() != 123 {
				t.Fatalf("%d overflow records, want the wave's 122 and the record below it", o.cal.overflow.len())
			}
			o.push(wave)
		}},
		{"an equal-time wave across the maxBubble flush", func(t *testing.T, o *calOracle) {
			const wave = Time(5100) // bucket 19 spans 4864..5119
			for i := 0; i < 100; i++ {
				o.push(wave)
			}
			o.peek()
			o.push(wave - 100) // 100 records ahead of it: past maxBubble
			if o.cal.curAbs >= 0 {
				t.Fatal("the straggler bubbled through 100 records instead of flushing the scratch")
			}
			for i := 0; i < 20; i++ {
				o.push(wave)
				o.push(wave - 100)
			}
			o.peek() // regathered: 141 records, a stable sort
			o.push(wave + 10)
			o.push(wave + 10)
			o.push(wave) // behind two later records only: a bubble
			if o.cal.curAbs < 0 {
				t.Fatal("a short bubble flushed the scratch")
			}
		}},
		{"packed extremes: MaxTime, the largest handler ids, negative arguments", func(t *testing.T, o *calOracle) {
			for i := 0; i < 50; i++ {
				o.pushRec(MaxTime, closureHandler-1, math.MinInt32)
				o.pushRec(MaxTime, closureHandler, -1) // generation MaxUint32
				o.pushRec(MaxTime-1, 0, math.MaxInt32)
			}
			if o.cal.overflow.len() != 150 {
				t.Fatalf("%d overflow records, want 150", o.cal.overflow.len())
			}
			if got, _ := o.cal.peek(); got.at() != MaxTime-1 || got.handler() != 0 || got.arg != math.MaxInt32 {
				t.Fatalf("head at %d, handler %d, arg %d", got.at(), got.handler(), got.arg)
			}
			for i := 0; i < 75; i++ {
				o.pop()
			}
			o.pushRec(MaxTime, closureHandler-1, 7)
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
		if o.cal.stats.grows != 1 || o.cal.farCount == 0 || o.cal.overflow.len() == 0 {
			t.Fatalf("grows %d, far %d, overflow %d", o.cal.stats.grows, o.cal.farCount, o.cal.overflow.len())
		}
		fresh := NewCalendarQueue(bound, 0)
		if o.cal.slotShift != fresh.slotShift || len(o.cal.buckets) != 2*len(fresh.buckets) {
			t.Fatalf("grow moved the far-slot boundaries: slot shift %d → %d, %d buckets", fresh.slotShift, o.cal.slotShift, len(o.cal.buckets))
		}
		o.drain()
	})

	t.Run("an equal-time wave across grow", func(t *testing.T) {
		r := xrand.New(9)
		o := newCalOracle(t, bound, 0)
		const wave = Time(3_000_000) // in the near ring
		for i := 0; i < 3000; i++ {
			o.push(Time(r.Intn(12_000_000)))
			if i%10 == 0 {
				o.push(wave)
			}
			if i == 1500 {
				o.peek()
			}
		}
		if o.cal.stats.grows == 0 {
			t.Fatal("the flood never grew the calendar")
		}
		for i := 0; i < 20; i++ {
			o.push(wave)
		}
		o.drain()
	})

	t.Run("the largest handler id and a wrapped generation on one timestamp", func(t *testing.T) {
		run := func(k *Kernel) []string {
			var tr []string
			for len(k.handlers) < int(closureHandler)-1 {
				k.RegisterHandler(func(Time, int32, int32) { tr = append(tr, "padding") })
			}
			top := k.RegisterHandler(func(now Time, node, payload int32) {
				tr = append(tr, fmt.Sprintf("h%d@%v", node, now))
				if payload < 0 {
					k.Schedule(now, HandlerID(len(k.handlers)-1), node+1000, payload+1)
				}
			})
			if top != closureHandler-1 {
				t.Fatalf("top handler id %d, want %d", top, closureHandler-1)
			}
			// Slot 0's next generation is MaxUint32; canceling it wraps
			// the generation to 0 while its stale record is still queued,
			// and the slot's next use queues a live record at generation 0
			// on the same timestamp.
			k.slots = append(k.slots[:0], closureSlot{gen: math.MaxUint32})
			k.freeSlots = append(k.freeSlots[:0], 0)
			at := Time(3 * time.Millisecond)
			for i := int32(0); i < 40; i++ {
				k.Schedule(at, top, i, -2)
				if i%8 == 0 {
					e := k.At(at, func() { tr = append(tr, "stale fired") })
					k.Cancel(e)
					k.At(at, func() { tr = append(tr, fmt.Sprintf("c@%v", k.Now())) })
				}
			}
			if err := k.RunAll(); err != nil {
				t.Fatal(err)
			}
			return tr
		}
		want := run(New())
		if len(want) != 40*3+5 {
			t.Fatalf("heap trace has %d entries, want %d", len(want), 40*3+5)
		}
		for _, pending := range []int{0, 1 << 16} {
			k := New()
			k.SetBoundedDelayHint(bound, pending)
			if got := run(k); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("pending %d: calendar trace %v, heap %v", pending, got, want)
			}
		}
	})
}
