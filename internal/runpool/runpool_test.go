package runpool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCount(t *testing.T) {
	if got := Count(0, 10); got < 1 {
		t.Errorf("Count(0,10)=%d", got)
	}
	if got := Count(8, 3); got != 3 {
		t.Errorf("Count(8,3)=%d, want 3", got)
	}
	if got := Count(2, 100); got != 2 {
		t.Errorf("Count(2,100)=%d, want 2", got)
	}
	if got := Count(-5, 0); got != 1 {
		t.Errorf("Count(-5,0)=%d, want 1", got)
	}
}

// TestOrderedObservation: for any worker count, observers fire 0,1,2,...,n-1.
func TestOrderedObservation(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 7, 16} {
		var mu sync.Mutex
		var seen []int
		results := make([]int, n)
		err := Run(context.Background(), n, workers, func(w, i int) error {
			// Jitter completion order so the reorder cursor actually works.
			if i%13 == 0 {
				time.Sleep(time.Duration(i%5) * time.Microsecond)
			}
			results[i] = i * i
			return nil
		}, func(i int) {
			mu.Lock()
			seen = append(seen, i)
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: observed %d items", workers, len(seen))
		}
		for i, v := range seen {
			if v != i {
				t.Fatalf("workers=%d: observation %d was item %d, want strictly increasing order", workers, i, v)
			}
			if results[v] != v*v {
				t.Fatalf("workers=%d: item %d observed before its result landed", workers, v)
			}
		}
	}
}

// TestClaimContract pins what per-worker scratch relies on now that
// items are claimed rather than assigned: every item runs exactly once,
// its worker index lies in [0, workers), and no two items running at once
// share a worker index (the unsynchronized per-worker slot below is a data
// race under -race otherwise). Uneven item costs make the claim order
// differ from any fixed stride.
func TestClaimContract(t *testing.T) {
	const n = 300
	for _, workers := range []int{1, 2, 3, 8} {
		var ran [n]atomic.Int32
		busy := make([]int, workers) // written only by the worker that owns it
		err := Run(context.Background(), n, workers, func(w, i int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("item %d ran on worker %d of %d", i, w, workers)
			}
			busy[w]++
			if busy[w] != 1 {
				return fmt.Errorf("worker %d runs two items at once", w)
			}
			if i%7 == 0 {
				time.Sleep(time.Duration(i%3) * 20 * time.Microsecond)
			}
			ran[i].Add(1)
			busy[w]--
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestClaimOrderHook drives the test-only claim order: reversed and
// shuffled schedules still run every item once and observe them in item
// order.
func TestClaimOrderHook(t *testing.T) {
	const n = 64
	for _, o := range ClaimOrders {
		name, restore := o.Name, SetClaimOrder(o.Order)
		var seen []int
		var ran [n]atomic.Int32
		err := Run(context.Background(), n, 3, func(w, i int) error {
			ran[i].Add(1)
			return nil
		}, func(i int) { seen = append(seen, i) })
		restore()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("%s: item %d ran %d times", name, i, c)
			}
		}
		for k, i := range seen {
			if i != k {
				t.Fatalf("%s: observation %d was item %d", name, k, i)
			}
		}
		if len(seen) != n {
			t.Fatalf("%s: observed %d of %d items", name, len(seen), n)
		}
	}
}

// TestHugeItemCountCancels: the pool's live state is O(worker skew), not
// O(n), so a sweep of 2⁴⁰ items that the observer cancels after five
// reports neither allocates per item nor observes past the cancellation.
func TestHugeItemCountCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen []int
	err := Run(ctx, 1<<40, 2, func(w, i int) error { return nil }, func(i int) {
		seen = append(seen, i)
		if len(seen) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(seen) != 5 {
		t.Fatalf("observed %v, want exactly items 0-4", seen)
	}
	for k, i := range seen {
		if i != k {
			t.Fatalf("observation %d was item %d", k, i)
		}
	}
}

func TestFirstErrorByIndexWins(t *testing.T) {
	const n = 100
	failing := []int{17, 41, 90}
	var ran [n]atomic.Bool
	err := Run(context.Background(), n, 8, func(w, i int) error {
		for _, f := range failing {
			if i == f {
				ran[i].Store(true)
				return fmt.Errorf("item %d failed", i)
			}
		}
		return nil
	}, nil)
	if err == nil {
		t.Fatal("no error returned")
	}
	// Early abort may skip later failing items: which of 17/41/90 run
	// depends on scheduling. The contract is that whichever failures DID
	// run, the reported error is the lowest-indexed of them — and Run only
	// returns after all workers exit, so ran[] is settled here.
	lowest := -1
	for _, f := range failing {
		if ran[f].Load() {
			lowest = f
			break
		}
	}
	if lowest == -1 {
		t.Fatal("Run returned an error but no failing item ran")
	}
	if want := fmt.Sprintf("item %d failed", lowest); err.Error() != want {
		t.Fatalf("err = %v, want %q (failures that ran: 17=%v 41=%v 90=%v)",
			err, want, ran[17].Load(), ran[41].Load(), ran[90].Load())
	}
}

// TestErrorStopsObservationAtCleanPrefix: no item after the failing index
// is ever observed.
func TestErrorStopsObservationAtCleanPrefix(t *testing.T) {
	const n, bad = 60, 20
	var mu sync.Mutex
	var seen []int
	err := Run(context.Background(), n, 4, func(w, i int) error {
		if i == bad {
			return errors.New("bad item")
		}
		return nil
	}, func(i int) {
		mu.Lock()
		seen = append(seen, i)
		mu.Unlock()
	})
	if err == nil {
		t.Fatal("no error")
	}
	for idx, v := range seen {
		if v != idx {
			t.Fatalf("observation %d was item %d: not a clean prefix", idx, v)
		}
		if v >= bad {
			t.Fatalf("item %d observed despite item %d failing", v, bad)
		}
	}
}

// TestObserveNeverConcurrent: delivery happens outside the pool lock, but
// the observer must still never run concurrently with itself.
func TestObserveNeverConcurrent(t *testing.T) {
	const n = 500
	var inFlight, overlaps, calls atomic.Int32
	err := Run(context.Background(), n, 8, func(w, i int) error {
		if i%7 == 0 {
			time.Sleep(time.Duration(i%3) * time.Microsecond)
		}
		return nil
	}, func(i int) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		calls.Add(1)
		time.Sleep(time.Microsecond)
		inFlight.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Fatalf("observed %d items, want %d", calls.Load(), n)
	}
	if overlaps.Load() != 0 {
		t.Fatalf("%d concurrent observer invocations", overlaps.Load())
	}
}

// TestRunOrdered: reduce receives every item's value in strictly
// increasing item order, for any worker count.
func TestRunOrdered(t *testing.T) {
	const n = 300
	for _, workers := range []int{1, 3, 8} {
		var got []int
		sum := 0
		err := RunOrdered(context.Background(), n, workers, func(w, i int) (int, error) {
			if i%11 == 0 {
				time.Sleep(time.Duration(i%4) * time.Microsecond)
			}
			return i * 2, nil
		}, func(i, v int) {
			if v != i*2 {
				t.Errorf("workers=%d: reduce(%d, %d), want value %d", workers, i, v, i*2)
			}
			got = append(got, i)
			sum += v
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: reduced %d items", workers, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: reduction %d was item %d, want strictly increasing order", workers, i, v)
			}
		}
		if want := n * (n - 1); sum != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, sum, want)
		}
	}
}

// TestRunOrderedErrorCleanPrefix: on failure, reduce has received exactly
// a clean prefix [0, k) with k at most the failing index.
func TestRunOrderedErrorCleanPrefix(t *testing.T) {
	const n, bad = 80, 23
	var got []int
	err := RunOrdered(context.Background(), n, 4, func(w, i int) (int, error) {
		if i == bad {
			return 0, errors.New("bad item")
		}
		return i, nil
	}, func(i, v int) {
		got = append(got, i)
	})
	if err == nil {
		t.Fatal("no error")
	}
	for idx, v := range got {
		if v != idx {
			t.Fatalf("reduction %d was item %d: not a clean prefix", idx, v)
		}
		if v >= bad {
			t.Fatalf("item %d reduced despite item %d failing", v, bad)
		}
	}
}

func TestCancellationStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 10_000
	err := Run(ctx, n, 4, func(w, i int) error {
		if started.Add(1) == 8 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got > 100 {
		t.Errorf("%d items started after cancellation, want a prompt stop", got)
	}
}

func TestPreCanceledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := Run(ctx, 50, 4, func(w, i int) error {
		ran.Add(1)
		return nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d items ran under a pre-canceled context", ran.Load())
	}
}

func TestZeroItems(t *testing.T) {
	if err := Run(context.Background(), 0, 4, func(w, i int) error { return errors.New("never") }, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReplicate: a worker's state is built once, on the first item that
// worker claims, and is never shared by two items at once, while results
// still reduce in item order under any claim order; a worker count above n
// builds no spare states, zero items build none, and a pre-cancelled
// context runs nothing.
func TestReplicate(t *testing.T) {
	type state struct {
		builds int
		items  []int
	}
	const n = 97
	for _, o := range ClaimOrders {
		name, restore := o.Name, SetClaimOrder(o.Order)
		for _, workers := range []int{1, 3, 8, 200} {
			var mu sync.Mutex
			var built []*state
			var got []int
			err := Replicate(context.Background(), n, workers, func() *state {
				st := &state{builds: 1}
				mu.Lock()
				built = append(built, st)
				mu.Unlock()
				return st
			}, func(i int, st *state) (int, error) {
				st.items = append(st.items, i) // unsynchronized on purpose: -race proves one item at a time per state
				return 2 * i, nil
			}, func(i, v int) {
				if v != 2*i { // a worker's goroutine: Error, not Fatal
					t.Errorf("%s workers=%d: item %d reduced %d", name, workers, i, v)
				}
				got = append(got, i)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("%s workers=%d: reduction %d was item %d", name, workers, i, v)
				}
			}
			if len(got) != n || len(built) < 1 || len(built) > min(workers, n) {
				t.Fatalf("%s workers=%d: reduced %d of %d items on %d states, want 1 to %d", name, workers, len(got), n, len(built), min(workers, n))
			}
			ran := 0
			for _, st := range built {
				if st.builds != 1 || len(st.items) == 0 {
					t.Fatalf("%s workers=%d: a state was built %d times and ran %v", name, workers, st.builds, st.items)
				}
				ran += len(st.items)
			}
			if ran != n {
				t.Fatalf("%s workers=%d: states ran %d items, want %d", name, workers, ran, n)
			}
		}
		restore()
	}

	never := func() int { t.Error("state built for a sweep that runs nothing"); return 0 }
	run := func(i, st int) (int, error) { return 0, errors.New("never") }
	if err := Replicate(context.Background(), 0, 4, never, run, func(i, v int) {}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Replicate(ctx, 50, 4, never, run, func(i, v int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}
