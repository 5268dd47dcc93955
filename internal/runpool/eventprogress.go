package runpool

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// EventUpdate is one progress snapshot of a single long execution,
// denominated in kernel events fired rather than completed runs — a
// per-run observer is useless for one n=10⁷ run that IS the whole
// workload.
type EventUpdate struct {
	// Events is the total kernel events fired so far; EstTotal the
	// caller's estimate of the final count (0 when unknown).
	Events, EstTotal int64
	// VirtualMs is the execution's current virtual time in milliseconds.
	VirtualMs float64
	// Elapsed is wall-clock time since the tracker was built.
	Elapsed time.Duration
	// RatePerSec is the mean events/second so far.
	RatePerSec float64
}

// String renders the snapshot as a single status line.
func (u EventUpdate) String() string {
	s := fmt.Sprintf("%d events", u.Events)
	if u.EstTotal > 0 {
		s = fmt.Sprintf("%d/~%d events (%.1f%%)", u.Events, u.EstTotal,
			100*float64(u.Events)/float64(u.EstTotal))
	}
	return fmt.Sprintf("%s %.2gM ev/s t=%.0fms elapsed %s",
		s, u.RatePerSec/1e6, u.VirtualMs, u.Elapsed.Round(time.Millisecond))
}

// EventProgress adapts the sharded runtime's barrier callback
// (core.ShardOptions.Progress) into throttled EventUpdates: the runtime
// reports (events fired, virtual now) at every window barrier, and the
// tracker emits at most one update per `every` interval. Barriers arrive
// from the coordinator goroutine only; the mutex keeps a hook called from
// elsewhere safe.
type EventProgress struct {
	mu       sync.Mutex
	estTotal int64
	every    time.Duration
	emit     func(EventUpdate)
	now      func() time.Time
	start    time.Time
	last     time.Time
	events   int64
	virtual  time.Duration
}

// NewEventProgress builds a tracker emitting through emit; estTotal is the
// estimated final event count (0 for unknown — updates then omit the
// percentage); every <= 0 defaults to one second.
func NewEventProgress(estTotal int64, every time.Duration, emit func(EventUpdate)) *EventProgress {
	if every <= 0 {
		every = time.Second
	}
	p := &EventProgress{estTotal: estTotal, every: every, emit: emit, now: time.Now}
	p.start = p.now()
	p.last = p.start
	return p
}

// ObserveEvents records one barrier observation: the cumulative events
// fired and the barrier's virtual time. Pass it (or call it from) a
// ShardOptions.Progress hook.
func (p *EventProgress) ObserveEvents(events uint64, virtual time.Duration) {
	p.mu.Lock()
	p.events = int64(events)
	p.virtual = virtual
	u, fire := p.snapshotLocked(), false
	if p.emit != nil && p.now().Sub(p.last) >= p.every {
		p.last = p.now()
		fire = true
	}
	p.mu.Unlock()
	if fire {
		p.emit(u)
	}
}

func (p *EventProgress) snapshotLocked() EventUpdate {
	u := EventUpdate{
		Events:    p.events,
		EstTotal:  p.estTotal,
		VirtualMs: float64(p.virtual) / float64(time.Millisecond),
		Elapsed:   p.now().Sub(p.start),
	}
	if secs := u.Elapsed.Seconds(); secs > 0 && p.events > 0 {
		u.RatePerSec = float64(p.events) / secs
	}
	return u
}

// EventWriter returns an emit function printing one status line per
// EventUpdate to w — the CLI glue for live progress on single long
// sharded runs.
func EventWriter(w io.Writer) func(EventUpdate) {
	return func(u EventUpdate) { fmt.Fprintf(w, "progress: %s\n", u) }
}
