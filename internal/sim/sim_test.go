package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"gossipkit/internal/xrand"
)

func TestEmptyKernel(t *testing.T) {
	k := New()
	if k.Now() != 0 {
		t.Errorf("fresh kernel at %v", k.Now())
	}
	if k.Step() {
		t.Error("Step on empty queue returned true")
	}
	if err := k.RunAll(); err != nil {
		t.Errorf("RunAll on empty queue: %v", err)
	}
}

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.After(30*time.Millisecond, func() { order = append(order, 3) })
	k.After(10*time.Millisecond, func() { order = append(order, 1) })
	k.After(20*time.Millisecond, func() { order = append(order, 2) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != Time(30*time.Millisecond) {
		t.Errorf("clock at %v", k.Now())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	k := New()
	var order []int
	at := Time(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		k.At(at, func() { order = append(order, i) })
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New()
	var hits []Time
	k.After(time.Millisecond, func() {
		hits = append(hits, k.Now())
		k.After(time.Millisecond, func() {
			hits = append(hits, k.Now())
		})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != Time(time.Millisecond) || hits[1] != Time(2*time.Millisecond) {
		t.Errorf("hits = %v", hits)
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e := k.After(time.Millisecond, func() { fired = true })
	if e.Canceled() {
		t.Error("pending event reported canceled")
	}
	if !k.Cancel(e) {
		t.Error("Cancel returned false for pending event")
	}
	if k.Cancel(e) {
		t.Error("double Cancel returned true")
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	k := New()
	var order []int
	var events []*Event
	for i := 0; i < 10; i++ {
		i := i
		events = append(events, k.After(time.Duration(i+1)*time.Millisecond, func() {
			order = append(order, i)
		}))
	}
	k.Cancel(events[4])
	k.Cancel(events[7])
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("fired %d events, want 8: %v", len(order), order)
	}
	prev := -1
	for _, v := range order {
		if v == 4 || v == 7 {
			t.Fatalf("canceled event %d fired", v)
		}
		if v <= prev {
			t.Fatalf("out of order: %v", order)
		}
		prev = v
	}
}

func TestCancelNil(t *testing.T) {
	if New().Cancel(nil) {
		t.Error("Cancel(nil) returned true")
	}
}

func TestRunHorizon(t *testing.T) {
	k := New()
	var fired []int
	for i := 1; i <= 5; i++ {
		i := i
		k.After(time.Duration(i)*time.Second, func() { fired = append(fired, i) })
	}
	if err := k.Run(Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Errorf("fired %v before horizon", fired)
	}
	if k.Pending() != 2 {
		t.Errorf("pending = %d", k.Pending())
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Errorf("fired %v after RunAll", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(0, func() {})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().After(-time.Second, func() {})
}

func TestNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().At(0, nil)
}

func TestBudget(t *testing.T) {
	k := New()
	k.SetBudget(100)
	// Self-perpetuating event chain.
	var tick func()
	count := 0
	tick = func() {
		count++
		k.After(time.Millisecond, tick)
	}
	k.After(time.Millisecond, tick)
	err := k.RunAll()
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if count != 100 {
		t.Errorf("fired %d events, want 100", count)
	}
	if k.Fired() != 100 {
		t.Errorf("Fired() = %d", k.Fired())
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(1500 * time.Millisecond)
	if t1.Seconds() != 1.5 {
		t.Errorf("Seconds = %g", t1.Seconds())
	}
	if t1.Sub(t0) != 1500*time.Millisecond {
		t.Errorf("Sub = %v", t1.Sub(t0))
	}
	if t1.Duration() != 1500*time.Millisecond {
		t.Errorf("Duration = %v", t1.Duration())
	}
	if t1.String() != "1.5s" {
		t.Errorf("String = %q", t1.String())
	}
}

// TestTimeAddSaturates: Time.Add clamps at End and math.MinInt64 instead of
// wrapping, so a delay too long to represent lands past MaxTime — where the
// kernel refuses it — and never in the past.
func TestTimeAddSaturates(t *testing.T) {
	for _, c := range []struct {
		t    Time
		d    time.Duration
		want Time
	}{
		{End / 2, math.MaxInt64 / 2, End - 1},
		{End / 2, math.MaxInt64/2 + 2, End},
		{MaxTime, math.MaxInt64, End},
		{1, math.MaxInt64, End},
		{0, math.MaxInt64, End},
		{-1, math.MinInt64, math.MinInt64},
		{-5, -3, -8},
		{7, 0, 7},
	} {
		if got := c.t.Add(c.d); got != c.want {
			t.Errorf("%d.Add(%d) = %d, want %d", int64(c.t), int64(c.d), int64(got), int64(c.want))
		}
	}
}

// TestScheduleBeyondMaxTime: an event past MaxTime — at a time, after a delay
// whose sum would wrap, typed or closure — is dropped, and Run returns
// ErrTimeRange on both disciplines instead of panicking; the error holds
// until Reset, and an event at MaxTime itself fires.
func TestScheduleBeyondMaxTime(t *testing.T) {
	for _, calendar := range []bool{false, true} {
		k := New()
		if calendar {
			k.SetBoundedDelayHint(time.Millisecond, 0)
		}
		var fired []Time
		rec := k.RegisterHandler(func(now Time, _, _ int32) { fired = append(fired, now) })
		far := k.RegisterHandler(func(Time, int32, int32) {
			k.ScheduleAfter(math.MaxInt64, rec, 0, 0) // used to wrap into the past
		})
		k.Schedule(MaxTime, rec, 0, 0)
		k.Schedule(Time(time.Millisecond), far, 0, 0)
		k.Schedule(Time(2*time.Millisecond), rec, 0, 0)
		err := k.RunAll()
		if !errors.Is(err, ErrTimeRange) || len(fired) != 0 || k.Pending() != 2 {
			t.Fatalf("calendar %v: RunAll = %v after firing %v with %d pending; want ErrTimeRange, none, 2", calendar, err, fired, k.Pending())
		}
		if e := k.At(MaxTime+1, func() { t.Error("an event past MaxTime fired") }); !e.Canceled() {
			t.Errorf("calendar %v: a closure past MaxTime got a live handle", calendar)
		}
		k.SetBudget(0)
		if err := k.Run(End); !errors.Is(err, ErrTimeRange) {
			t.Errorf("calendar %v: the error did not hold: Run = %v", calendar, err)
		}

		k.Reset()
		if calendar {
			k.SetBoundedDelayHint(time.Millisecond, 0)
		}
		rec = k.RegisterHandler(func(now Time, _, _ int32) { fired = append(fired, now) })
		k.Schedule(MaxTime, rec, 0, 0)
		k.At(MaxTime, func() { fired = append(fired, -k.Now()) })
		if err := k.RunAll(); err != nil || len(fired) != 2 || fired[0] != MaxTime || fired[1] != -MaxTime {
			t.Errorf("calendar %v: after Reset: RunAll = %v, fired %v; want nil and MaxTime twice", calendar, err, fired)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		k := New()
		var trace []Time
		for i := 0; i < 50; i++ {
			d := time.Duration((i*37)%17) * time.Millisecond
			k.After(d, func() { trace = append(trace, k.Now()) })
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// BenchmarkKernelRun is the event loop's own judge: RunAll over a hold model
// that keeps n = 5000 typed events pending — des_sweep_5k's group size, one
// message per member airborne — each fired event scheduling its successor
// until b.N have fired. The delays are the workload's two latency models
// drawn as simnet draws them: uniform 1–10 ms on the calendar under its
// bound, and a 1 ms floor plus Exp(3 ms) both on the calendar under the
// band simnet hints for it (1 ms + 7·3 ms) and on the heap. One op is one
// event; a warm kernel makes no allocation.
func BenchmarkKernelRun(b *testing.B) {
	const n = 5000
	uniform := func(r *xrand.RNG) time.Duration { return time.Millisecond + time.Duration(r.Uint64n(9_000_001)) }
	exponential := func(r *xrand.RNG) time.Duration {
		return time.Millisecond + time.Duration(r.ExpFloat64()*float64(3*time.Millisecond))
	}
	for _, bc := range []struct {
		name  string
		band  time.Duration // calendar hint; 0 keeps the heap
		delay func(*xrand.RNG) time.Duration
	}{
		{"calendar-uniform", 10 * time.Millisecond, uniform},
		{"calendar-exp", 22 * time.Millisecond, exponential},
		{"heap", 0, exponential},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k, r := New(), xrand.New(1)
			var (
				h         HandlerID
				remaining int
			)
			hold := func(_ Time, node, _ int32) {
				if remaining > 0 {
					remaining--
					k.ScheduleAfter(bc.delay(r), h, node, 0)
				}
			}
			run := func(events int) {
				k.Reset()
				k.SetBoundedDelayHint(bc.band, n)
				h = k.RegisterHandler(hold)
				remaining = events - n
				for i := 0; i < min(n, events); i++ {
					k.ScheduleAfter(bc.delay(r), h, int32(i), 0)
				}
				if err := k.RunAll(); err != nil {
					b.Fatal(err)
				}
			}
			run(20 * n) // warm the queue's pools and the handler table
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	k := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(time.Duration(i%100)*time.Microsecond, func() {})
		if i%64 == 63 {
			if err := k.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := k.RunAll(); err != nil {
		b.Fatal(err)
	}
}
