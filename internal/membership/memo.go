package membership

import (
	"sync"

	"gossipkit/internal/xrand"
)

// memoBudget caps the snapshot bytes one ViewMemo retains: about a hundred
// snapshots at n = 10³, c = 2 (≈ 120 KB each), none at n = 10⁵.
const memoBudget = 16 << 20

// ViewMemo shares SCAMP view builds between runs that make them from the
// same random state. A build and the shuffle after it are a pure function
// of (n, c, rounds, swap) and the generator's state, so the memo remembers
// a build with the state it left the generator in and hands both to the
// next caller with equal inputs: the same views, entry for entry in order,
// and the same later draws.
//
// A hit hands out the snapshot itself and forgets it, so every caller owns
// its views (churn unsubscribes into them) and a build serves one repeat.
// A build whose snapshot does not fit the byte budget is not remembered.
// The zero value is ready for use by many goroutines; a nil *ViewMemo
// builds every time.
type ViewMemo struct {
	mu      sync.Mutex
	entries map[memoKey]memoEntry
	bytes   int // retained by entries
	hits    int
}

// memoKey is the whole input of a build and its shuffle; xrand.RNG is a
// comparable value.
type memoKey struct {
	n, c, rounds, swap int
	r                  xrand.RNG
}

type memoEntry struct {
	views *PartialViews
	after xrand.RNG // the generator's state once the shuffle is done
	bytes int
}

// Shuffled returns what NewPartialViews(n, c, r) followed by
// Shuffle(rounds, swap, r) returns, and leaves r in the state they would.
func (m *ViewMemo) Shuffled(n, c, rounds, swap int, r *xrand.RNG) *PartialViews {
	if m == nil {
		return buildShuffled(n, c, rounds, swap, r)
	}
	key := memoKey{n: n, c: c, rounds: rounds, swap: swap, r: *r}
	m.mu.Lock()
	e, ok := m.entries[key]
	if ok {
		delete(m.entries, key)
		m.bytes -= e.bytes
		m.hits++
	}
	m.mu.Unlock()
	if ok {
		*r = e.after
		return e.views
	}
	pv := buildShuffled(n, c, rounds, swap, r)
	m.keep(key, pv, *r)
	return pv
}

// Hits returns how many builds the memo has handed out instead of running.
func (m *ViewMemo) Hits() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// keep retains a snapshot of pv, built under key, unless it would overrun
// the budget or a concurrent build of the same key got there first.
func (m *ViewMemo) keep(key memoKey, pv *PartialViews, after xrand.RNG) {
	entries := 0
	for _, v := range pv.views {
		entries += len(v)
	}
	size := 4*entries + 24*len(pv.views)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.entries[key]; dup || m.bytes+size > memoBudget {
		return
	}
	if m.entries == nil {
		m.entries = make(map[memoKey]memoEntry)
	}
	m.entries[key] = memoEntry{views: pv.snapshot(entries), after: after, bytes: size}
	m.bytes += size
}

func buildShuffled(n, c, rounds, swap int, r *xrand.RNG) *PartialViews {
	pv := NewPartialViews(n, c, r)
	pv.Shuffle(rounds, swap, r)
	return pv
}

// snapshot copies the views, entry for entry, into one arena of the given
// size, each row capped at its length so that a later append moves that
// view to the heap instead of writing into its neighbour.
func (pv *PartialViews) snapshot(entries int) *PartialViews {
	arena := make([]int32, 0, entries)
	out := &PartialViews{views: make([][]int32, len(pv.views))}
	for i, v := range pv.views {
		at := len(arena)
		arena = append(arena, v...)
		out.views[i] = arena[at:len(arena):len(arena)]
	}
	return out
}
