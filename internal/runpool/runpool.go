// Package runpool is the one worker pool every replication sweep in the
// repository runs on, and Replicate the one way onto it: core's estimators,
// the facade's engines, the scenario cell driver and the figure harness
// each hand it a per-worker state constructor, a body for replication i and
// an in-order reduction (the module's TestAPIGate keeps library code off Run
// and RunOrdered, the pool underneath, which the benchmark replays directly).
// The pool executes n independent, index-identified work items with three
// guarantees the engines above it rely on.
//
// Determinism: workers claim items one at a time from a shared counter, so
// a worker that drew short items takes the next one instead of idling
// behind a fixed share, and which worker runs an item depends on timing.
// Per-worker scratch state (executors, run-state arenas) is therefore
// keyed by the worker index w that Run hands the body, never by the item;
// because items are data-independent and results are reduced in item
// order, the reduced result is identical for ANY worker count and ANY
// claim schedule.
//
// Ordered observation: the observe callback fires exactly once per
// completed item in strictly increasing item order, regardless of the
// completion order across workers (a reorder cursor keeps only the
// completed items not yet delivered; one worker at a time delivers the
// contiguous completed prefix outside the pool's lock, so a slow consumer
// never serializes the pool). Streaming consumers therefore see run 0, 1,
// 2, ... on every execution, and RunOrdered builds on this to reduce
// per-item results in item order while holding only out-of-order
// completions live: the pool's live state is O(worker skew), never O(n).
//
// Cancellation: workers check the context between items and before each
// delivery; cancellation (or the first item error, by item index) stops
// the pool promptly without waiting for unstarted items, an observer that
// cancels sees no later item, and Run returns ctx.Err() so callers can
// translate it into their own sentinel.
package runpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// claimOrder, when non-nil, returns the order in which one Run hands out
// its n items: the k-th claim runs item claimOrder(n)[k]. Only tests set
// it, to show that no result depends on the schedule.
var claimOrder func(n int) []int

// Count normalizes a requested worker count for n work items: non-positive
// means GOMAXPROCS, and the count never exceeds n.
func Count(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes body(w, i) for every item i in [0, n) on `workers`
// goroutines (normalize with Count first; Run clamps again defensively).
// Goroutine w, in [0, workers), claims the lowest unclaimed item whenever
// it is free, so no two items that run at once share a w.
//
// observe, when non-nil, is invoked exactly once per successfully completed
// item, in strictly increasing item order and never concurrently with
// itself; an item is only observed once every earlier item has been
// observed, so an error or cancellation leaves a clean observed prefix
// [0, k). Callbacks run outside the pool's lock, so a slow observer delays
// at most the one worker delivering the current prefix, not the pool.
//
// On context cancellation Run returns ctx.Err(); otherwise it returns the
// error of the lowest-indexed failing item, or nil. In both failure modes
// remaining items are skipped promptly.
func Run(ctx context.Context, n, workers int, body func(w, i int) error, observe func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Count(workers, n)
	var order []int
	if claimOrder != nil {
		order = claimOrder(n)
	}

	var (
		claims     atomic.Int64
		stop       = make(chan struct{})
		stopOnce   sync.Once
		mu         sync.Mutex
		done       = make(map[int]struct{}) // completed, not yet observed
		next       int
		delivering bool
		errIdx     = n
		firstErr   error
	)
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := claims.Add(1) - 1
				if k >= int64(n) {
					return
				}
				i := int(k)
				if order != nil {
					i = order[k]
				}
				select {
				case <-ctx.Done():
					halt()
					return
				case <-stop:
					return
				default:
				}
				if err := body(w, i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					halt()
					return
				}
				if observe != nil {
					mu.Lock()
					done[i] = struct{}{}
					// Deliver the contiguous completed prefix (never past
					// the lowest failed item) OUTSIDE the lock: one
					// deliverer at a time keeps observations ordered and
					// non-concurrent, and it re-scans after each batch so
					// items completed meanwhile are never stranded. A
					// delivered item always stays below any later-recorded
					// errIdx: a failing item never enters done, so the
					// prefix scan cannot pass it. Cancellation is checked
					// before every delivery and never clears, so an
					// observer that cancels is the last one called.
					for !delivering {
						start := next
						end := start
						for end < errIdx {
							if _, ok := done[end]; !ok {
								break
							}
							delete(done, end)
							end++
						}
						if end == start {
							break
						}
						delivering, next = true, end
						mu.Unlock()
						for j := start; j < end && ctx.Err() == nil; j++ {
							observe(j)
						}
						mu.Lock()
						delivering = false
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// RunOrdered is Run for bodies that produce a result per item: each result
// is handed to reduce in strictly increasing item order (never
// concurrently), buffering only out-of-order completions — O(worker skew)
// live results instead of the O(n) slice a caller-side buffer needs, which
// is what makes million-run sweeps consumable through streaming reduction.
// Like Run's observe, an error or cancellation leaves reduce with a clean
// prefix [0, k); the error contract is Run's.
func RunOrdered[T any](ctx context.Context, n, workers int, body func(w, i int) (T, error), reduce func(i int, v T)) error {
	var (
		mu      sync.Mutex
		pending = make(map[int]T)
	)
	return Run(ctx, n, workers, func(w, i int) error {
		v, err := body(w, i)
		if err != nil {
			return err
		}
		mu.Lock()
		pending[i] = v
		mu.Unlock()
		return nil
	}, func(i int) {
		mu.Lock()
		v := pending[i]
		delete(pending, i)
		mu.Unlock()
		reduce(i, v)
	})
}

// Replicate is the one replication driver: RunOrdered on `workers`
// goroutines (non-positive means GOMAXPROCS) with each worker's scratch
// state — an executor, a run-state arena, a probe — built by newState on
// the first item that worker claims and recycled across every item it
// claims after. run(i, st) sees its item and its worker's state, never a
// worker index, so the reduced result is identical for any worker count
// and any claim schedule as long as run derives item i's random stream
// from i alone. The error contract is Run's.
func Replicate[S, T any](ctx context.Context, n, workers int, newState func() S, run func(i int, st S) (T, error), reduce func(i int, v T)) error {
	workers = Count(workers, n)
	states := make([]S, workers)
	built := make([]bool, workers)
	return RunOrdered(ctx, n, workers, func(w, i int) (T, error) {
		if !built[w] {
			states[w], built[w] = newState(), true
		}
		return run(i, states[w])
	}, reduce)
}
