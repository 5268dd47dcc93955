package runpool

import (
	"strings"
	"testing"
	"time"
)

func TestEventProgressThrottlesAndSnapshots(t *testing.T) {
	clock := time.Unix(0, 0)
	var got []EventUpdate
	p := NewEventProgress(1000, time.Second, func(u EventUpdate) { got = append(got, u) })
	p.now = func() time.Time { return clock }
	p.start, p.last = clock, clock

	p.ObserveEvents(10, 5*time.Millisecond) // same instant: throttled
	if len(got) != 0 {
		t.Fatalf("emitted %d updates inside the throttle window", len(got))
	}
	clock = clock.Add(2 * time.Second)
	p.ObserveEvents(500, 80*time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("emitted %d updates, want 1", len(got))
	}
	u := got[0]
	if u.Events != 500 || u.EstTotal != 1000 || u.VirtualMs != 80 {
		t.Fatalf("update %+v", u)
	}
	if u.RatePerSec != 250 {
		t.Fatalf("rate %g, want 250 ev/s", u.RatePerSec)
	}
	if u.Elapsed != 2*time.Second {
		t.Fatalf("elapsed %v, want 2s", u.Elapsed)
	}
}

func TestEventUpdateString(t *testing.T) {
	u := EventUpdate{Events: 500, EstTotal: 1000, VirtualMs: 80, Elapsed: 2 * time.Second, RatePerSec: 250}
	s := u.String()
	for _, want := range []string{"500/~1000", "50.0%", "t=80ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
	if s := (EventUpdate{Events: 7}).String(); !strings.Contains(s, "7 events") || strings.Contains(s, "%") {
		t.Errorf("unknown-total rendering %q", s)
	}
}
