package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/membership"
	"gossipkit/internal/xrand"
)

// TestEveryFiresRepeatedly checks that a recurring crash step tracks the
// spread: a periodic 2% crash while the spread is in flight removes far
// more members than its one-shot counterpart, and the run still drains.
func TestEveryFiresRepeatedly(t *testing.T) {
	cfg := testConfig(400)
	oneShot := New("one-shot", "").At(2*time.Millisecond, CrashFraction(0.02))
	recurring := New("recurring", "").Every(2*time.Millisecond, CrashFraction(0.02))

	one, err := Run(oneShot, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(recurring, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if one.Crashed == 0 || rec.Crashed == 0 {
		t.Fatalf("campaigns did nothing: one-shot=%d recurring=%d", one.Crashed, rec.Crashed)
	}
	// The default latency spreads the run over tens of milliseconds, so a
	// 2ms recurrence must fire many times before the spread drains.
	if rec.Crashed < 3*one.Crashed {
		t.Errorf("recurring crash fired too rarely: %d crashed vs one-shot %d", rec.Crashed, one.Crashed)
	}
}

// TestEveryUntilBoundsTheWindow checks a bounded recurrence fires inside
// [start, until] and then stops even though the until window outlives the
// spread's own events (publish keeps generating fresh traffic each firing,
// so only the bound can end it).
func TestEveryUntilBoundsTheWindow(t *testing.T) {
	cfg := testConfig(300)
	s := New("bounded", "").
		EveryUntil(5*time.Millisecond, 10*time.Millisecond, 200*time.Millisecond, FlashCrowd(1))
	rep, err := Run(s, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Firings at 5,15,...,195ms = 20; each publishes one member (counted
	// even when the member already has m, as a re-gossip).
	if rep.Published != 20 {
		t.Errorf("bounded recurrence published %d times, want 20", rep.Published)
	}
}

// TestEveryDeterminism: recurring campaigns must stay a pure function of
// the seed.
func TestEveryDeterminism(t *testing.T) {
	s := New("recurring-churn", "").
		Every(3*time.Millisecond, CrashFraction(0.01)).
		EveryUntil(0, 7*time.Millisecond, 50*time.Millisecond, Regossip(2))
	cfg := testConfig(300)
	first, err := Run(s, cfg, 4321)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	for i := 0; i < 3; i++ {
		again, err := Run(s, cfg, 4321)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(again)
		if string(a) != string(b) {
			t.Fatalf("recurring run diverged:\n%s\n%s", a, b)
		}
	}
}

// TestEveryJSONRoundTrip checks the spec encoding of recurring steps.
func TestEveryJSONRoundTrip(t *testing.T) {
	s := New("periodic", "crash 1% every 10ms for 100ms").
		EveryUntil(10*time.Millisecond, 10*time.Millisecond, 100*time.Millisecond, CrashFraction(0.01))
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"every": "10ms"`) || !strings.Contains(string(data), `"until": "100ms"`) {
		t.Fatalf("spec missing every/until fields:\n%s", data)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Steps[0].Every.Std() != 10*time.Millisecond || parsed.Steps[0].Until.Std() != 100*time.Millisecond {
		t.Errorf("round-trip lost recurrence: %+v", parsed.Steps[0])
	}

	// A hand-written spec using the "every" field parses too.
	handwritten := `{"name":"drip","steps":[{"at":"5ms","every":"10ms","action":{"op":"crash","frac":0.01}}]}`
	if _, err := Parse([]byte(handwritten)); err != nil {
		t.Fatalf("hand-written recurring spec rejected: %v", err)
	}
}

// TestRecurrenceValidation rejects malformed recurring steps.
func TestRecurrenceValidation(t *testing.T) {
	bad := []*Scenario{
		{Name: "neg-every", Steps: []Step{{At: 0, Every: -1, Action: Heal()}}},
		{Name: "neg-until", Steps: []Step{{At: 0, Every: Duration(time.Millisecond), Until: -1, Action: Heal()}}},
		{Name: "until-no-every", Steps: []Step{{At: 0, Until: Duration(time.Second), Action: Heal()}}},
		{Name: "until-before-at", Steps: []Step{{
			At: Duration(50 * time.Millisecond), Every: Duration(time.Millisecond),
			Until: Duration(10 * time.Millisecond), Action: Heal(),
		}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validation accepted a malformed recurring step", s.Name)
		}
	}
	// Self-sustaining ops (publish/regossip generate gossip traffic every
	// firing) must carry an until bound or the run can never drain.
	unbounded := New("self-sustaining", "").Every(5*time.Millisecond, FlashCrowd(1))
	if err := unbounded.Validate(); err == nil {
		t.Error("validation accepted an unbounded recurring publish")
	}
	unboundedRegossip := New("self-sustaining-2", "").Every(5*time.Millisecond, Regossip(1))
	if err := unboundedRegossip.Validate(); err == nil {
		t.Error("validation accepted an unbounded recurring regossip")
	}
	bounded := New("ok", "").EveryUntil(0, 5*time.Millisecond, 50*time.Millisecond, FlashCrowd(1))
	if err := bounded.Validate(); err != nil {
		t.Errorf("bounded recurring publish rejected: %v", err)
	}
}

// TestGridSweep checks the (scenario × q × fanout) grid: full coverage,
// worker-count invariance, and the CSV surface.
func TestGridSweep(t *testing.T) {
	scenarios := []*Scenario{
		New("baseline", ""),
		New("wave", "").At(4*time.Millisecond, CrashFraction(0.1)),
	}
	cfg := Axes{
		Run:      testConfig(200),
		Qs:       []float64{0.8, 1.0},
		Fanouts:  []dist.Distribution{dist.NewPoisson(3), dist.NewPoisson(6)},
		Seeds:    2,
		BaseSeed: 77,
		Workers:  1,
	}
	got, err := gridView(scenarios, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 2*2*2 {
		t.Fatalf("grid has %d cells, want 8", len(got.Cells))
	}
	for _, c := range got.Cells {
		if c.Runs != 2 {
			t.Errorf("cell %s/q=%g/%s has %d runs, want 2", c.Scenario, c.Q, c.Fanout, c.Runs)
		}
		if c.Reliability.Mean <= 0 {
			t.Errorf("cell %s/q=%g/%s has zero reliability", c.Scenario, c.Q, c.Fanout)
		}
	}
	// Higher fanout at equal q must not hurt mean reliability on baseline.
	if got.Cells[0].Reliability.Mean > got.Cells[1].Reliability.Mean+0.05 {
		t.Errorf("fanout 6 worse than fanout 3: %+v vs %+v", got.Cells[1], got.Cells[0])
	}

	aJSON, _ := json.Marshal(got)
	cfg.Workers = 4
	again, err := gridView(scenarios, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bJSON, _ := json.Marshal(again)
	if string(aJSON) != string(bJSON) {
		t.Fatal("grid sweep result depends on worker count")
	}

	csv := got.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("grid CSV has %d lines, want header + 8 cells:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "scenario,q,fanout,runs,") {
		t.Errorf("grid CSV header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "baseline,0.8,Poisson(3),2,") {
		t.Errorf("grid CSV first cell: %s", lines[1])
	}
}

// TestGridSweepDefaults: (q, fanout) is one labeled pair — with only Qs or
// only Fanouts set, the other falls back to the base Params.
func TestGridSweepDefaults(t *testing.T) {
	for _, ax := range []Axes{
		{Run: testConfig(150), Seeds: 2, BaseSeed: 3, Qs: []float64{1}},
		{Run: testConfig(150), Seeds: 2, BaseSeed: 3, Fanouts: []dist.Distribution{dist.NewPoisson(5)}},
	} {
		got, err := gridView([]*Scenario{New("baseline", "")}, ax, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cells) != 1 || got.Cells[0].Q != 1 || got.Cells[0].Fanout != "Poisson(5)" ||
			len(got.Qs) != 1 || len(got.Fanouts) != 1 {
			t.Fatalf("default grid: qs %v fanouts %v cells %+v", got.Qs, got.Fanouts, got.Cells)
		}
	}
	if _, err := gridView(nil, Axes{Run: testConfig(150)}, nil); err == nil {
		t.Error("empty grid sweep accepted")
	}
	shared := Axes{Run: testConfig(150), Seeds: 1}
	shared.Run.Params.View = membership.NewPartialViews(150, 2, xrand.New(1))
	if _, err := gridView([]*Scenario{New("baseline", "")}, shared, nil); err == nil {
		t.Error("grid sweep accepted a shared membership view")
	}
}
