package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestRecorderParentLinks(t *testing.T) {
	r := newRecorder()
	root := r.begin("workload")
	it := r.begin("iteration")
	call := r.begin("facade.Run")
	r.end(call, map[string]int64{"runs": 3})
	r.end(it, nil)
	lad := r.begin("ladder")
	r.end(lad, nil)
	r.end(root, nil)

	want := []struct {
		name   string
		parent int
	}{{"workload", -1}, {"iteration", 0}, {"facade.Run", 1}, {"ladder", 0}}
	if len(r.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(r.spans), len(want))
	}
	for i, w := range want {
		s := r.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.ID != i {
			t.Errorf("span %d = %q parent %d id %d, want %q parent %d", i, s.Name, s.Parent, s.ID, w.name, w.parent)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if r.spans[2].Counts["runs"] != 3 {
		t.Errorf("counts not recorded: %v", r.spans[2].Counts)
	}
	if len(r.stack) != 0 {
		t.Errorf("stack not unwound: %v", r.stack)
	}
}

// TestRecorderOffAndNil: a suspended or nil recorder records nothing and
// keeps the stack consistent for spans opened before the suspension.
func TestRecorderOffAndNil(t *testing.T) {
	var none *recorder
	none.record(true)
	none.end(none.begin("x"), nil) // must not panic

	r := newRecorder()
	outer := r.begin("outer")
	r.record(false)
	skipped := r.begin("skipped")
	if skipped != -1 {
		t.Fatalf("suspended recorder opened span %d", skipped)
	}
	r.end(skipped, nil)
	r.record(true)
	inner := r.begin("inner")
	r.end(inner, nil)
	r.end(outer, nil)
	if len(r.spans) != 2 || r.spans[1].Parent != outer {
		t.Fatalf("spans %+v", r.spans)
	}
}

// TestSelfTime: a span's self time is its duration minus the part of the
// interval its children cover, overlaps counted once and children clipped
// to the parent.
func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Start: ms(10), End: ms(30)},
		{ID: 2, Parent: 0, Start: ms(20), End: ms(50)},  // overlaps span 1
		{ID: 3, Parent: 0, Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 4, Parent: 1, Start: ms(12), End: ms(18)},  // a grandchild: not subtracted from span 0
	}
	for id, want := range map[int]time.Duration{0: ms(50), 1: ms(14), 2: ms(30), 4: ms(6)} {
		if got := selfTime(spans, id); got != want {
			t.Errorf("selfTime(span %d) = %v, want %v", id, got, want)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := newRecorder()
	a := r.begin("a")
	b := r.begin("b")
	r.end(b, map[string]int64{"msgs": 7})
	r.end(a, nil)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, r.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "b" || doc.TraceEvents[1].Ph != "X" {
		t.Fatalf("events %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[1].Args["parent"] != float64(0) || doc.TraceEvents[1].Args["msgs"] != float64(7) {
		t.Errorf("args %+v", doc.TraceEvents[1].Args)
	}
}
