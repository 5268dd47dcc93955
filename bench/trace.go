package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer: its name, start and end (since the recorder's epoch), the span
// that caused it, and the counts it processed.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1 for a root
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. It is harness-side
// only (this PR may not instrument the program) and single-goroutine. A nil
// recorder records nothing, so untraced runs share the traced code path.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
	// off suspends recording without unwinding the stack: the traced run
	// alternates recorded and unrecorded iterations to measure its own
	// overhead.
	off bool
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// record switches recording on or off.
func (r *recorder) record(on bool) {
	if r != nil {
		r.off = !on
	}
}

// begin opens a span under the innermost open span and returns its id
// (-1 when not recording).
func (r *recorder) begin(name string) int {
	if r == nil || r.off {
		return -1
	}
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(r.epoch)})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int, counts map[string]int64) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
	r.spans[id].Counts = counts
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTime is the span's duration minus the part of that interval its
// child spans cover (overlapping children are counted once).
func selfTime(spans []span, id int) time.Duration {
	s := spans[id]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, c := range spans {
		if c.Parent != id {
			continue
		}
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered, edge := time.Duration(0), s.Start
	for _, k := range kids {
		if k.b <= edge {
			continue
		}
		covered += k.b - max(k.a, edge)
		edge = k.b
	}
	return s.End - s.Start - covered
}

// writeChromeTrace renders the spans as Chrome trace-event JSON (complete
// "X" events; load at chrome://tracing or in Perfetto). Span id, parent and
// counts ride in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(selfTime(spans, i)) / 1e3}
		for k, v := range s.Counts {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
