package scenario

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/membership"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

func testConfig(n int) RunConfig {
	return RunConfig{
		Params: core.Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: 1},
	}
}

// sweepView runs Axes.Sweep and returns the product's sweep view.
func sweepView(scenarios []*Scenario, ax Axes, observe Observer) (*SweepResult, error) {
	p, err := ax.Sweep(context.Background(), scenarios, observe)
	if err != nil {
		return nil, err
	}
	return p.SweepResult(), nil
}

// gridView runs Axes.Sweep and returns the product's (scenario × q × fanout)
// view.
func gridView(scenarios []*Scenario, ax Axes, observe Observer) (*GridResult, error) {
	p, err := ax.Sweep(context.Background(), scenarios, observe)
	if err != nil {
		return nil, err
	}
	return p.GridResult(), nil
}

// TestSeedRule: the product's one seed function reproduces the three
// formulas the sweep, grid and comparison drivers each had, and the
// protocol and topology rows never enter it.
func TestSeedRule(t *testing.T) {
	const base = 2008
	sweep := func(si, ri int) uint64 {
		return base + uint64(si)*0x9e3779b97f4a7c15 + uint64(ri)*0xbf58476d1ce4e5b9 + 1
	}
	grid := func(si, qi, fi, ri int) uint64 {
		return base + uint64(si)*0x9e3779b97f4a7c15 + uint64(qi)*0xbf58476d1ce4e5b9 +
			uint64(fi)*0x94d049bb133111eb + uint64(ri)*0xd6e8feb86659fd93 + 1
	}
	plain := Axes{BaseSeed: base}
	compare := Axes{BaseSeed: base, Executors: []Executor{PaperExecutor("paper"), PaperExecutor("b")},
		Topologies: []topology.Spec{{}, {Kind: topology.KOut, K: 4}}}
	qOnly := Axes{BaseSeed: base, Qs: []float64{0.5, 1}}
	fanOnly := Axes{BaseSeed: base, Fanouts: []dist.Distribution{dist.NewPoisson(3)}}
	for si := range 3 {
		for ri := range 3 {
			if got, want := plain.seed(si, 0, 0, ri), sweep(si, ri); got != want {
				t.Errorf("sweep seed(%d, %d) = %x, want %x", si, ri, got, want)
			}
			if got, want := compare.seed(si, 0, 0, ri), sweep(si, ri); got != want {
				t.Errorf("compare seed(%d, %d) = %x, want %x", si, ri, got, want)
			}
			for qi := range 2 {
				for fi := range 2 {
					for _, ax := range []Axes{qOnly, fanOnly} {
						if got, want := ax.seed(si, qi, fi, ri), grid(si, qi, fi, ri); got != want {
							t.Errorf("grid seed(%d, %d, %d, %d) = %x, want %x", si, qi, fi, ri, got, want)
						}
					}
				}
			}
		}
	}
}

// TestProductOrder: Axes.Sweep streams runs in the flattening
// ((((ti·|P|+pi)·|S|+si)·|Q|+qi)·|F|+fi)·Seeds+ri, labels exactly the
// axes that are set, and seeds each run from (si, qi, fi, ri) alone.
func TestProductOrder(t *testing.T) {
	scenarios := []*Scenario{New("a", ""), New("b", "").At(0, CrashFraction(0.1))}
	ax := Axes{
		Run:        testConfig(60),
		Executors:  []Executor{PaperExecutor("p0"), PaperExecutor("p1")},
		Topologies: []topology.Spec{{}, {Kind: topology.KOut, K: 4}},
		Qs:         []float64{0.5, 0.9, 1},
		Seeds:      2,
		BaseSeed:   11,
		Workers:    3,
	}
	nt, np, ns, nq, nf := 2, 2, 2, 3, 1
	var got []RunReport
	p, err := ax.Sweep(context.Background(), scenarios, func(i int, rep RunReport) {
		if i != len(got) {
			t.Fatalf("run %d observed at position %d", i, len(got))
		}
		got = append(got, rep)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nt*np*ns*nq*nf*ax.Seeds || len(p.Cells) != nt*np*ns*nq*nf {
		t.Fatalf("%d runs in %d cells", len(got), len(p.Cells))
	}
	for i, rep := range got {
		ri, c := i%ax.Seeds, i/ax.Seeds
		fi, qi, si, pi, ti := c%nf, c/nf%nq, c/nf/nq%ns, c/nf/nq/ns%np, c/nf/nq/ns/np
		if rep.Scenario != scenarios[si].Name || rep.Protocol != ax.Executors[pi].Protocol() ||
			rep.Seed != ax.seed(si, qi, fi, ri) {
			t.Errorf("run %d: %s/%s seed %x, want %s/%s seed %x", i, rep.Protocol, rep.Scenario, rep.Seed,
				ax.Executors[pi].Protocol(), scenarios[si].Name, ax.seed(si, qi, fi, ri))
		}
		cell := p.Cells[c]
		want := Cell{Topology: ax.Topologies[ti].String(), Protocol: ax.Executors[pi].Protocol(),
			Q: ax.Qs[qi], Fanout: "Poisson(5)"}
		if cell.Topology != want.Topology || cell.Protocol != want.Protocol || cell.Q != want.Q || cell.Fanout != want.Fanout {
			t.Errorf("cell %d labeled %+v, want %+v", c, cell, want)
		}
	}
	plain, err := Axes{Run: testConfig(60)}.Sweep(context.Background(), scenarios, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plain.Cells {
		if c.Topology != "" || c.Protocol != "" || c.Q != 0 || c.Fanout != "" {
			t.Errorf("unlabeled product labeled a cell: %+v", c)
		}
	}
}

func TestDefaultSuite(t *testing.T) {
	suite := DefaultSuite()
	if len(suite) < 6 {
		t.Fatalf("bundled suite has %d scenarios, want >= 6", len(suite))
	}
	seen := map[string]bool{}
	for _, s := range suite {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	if s, ok := ByName("crash-wave"); !ok || s.Name != "crash-wave" {
		t.Error("ByName failed to find crash-wave")
	}
	if _, ok := ByName("no-such"); ok {
		t.Error("ByName found a nonexistent scenario")
	}
}

// TestRunDeterminism is the repo's time-varying-fault determinism check: a
// campaign combining a mid-run crash wave with a partition that heals must
// yield byte-identical reports across repeated runs with the same seed.
func TestRunDeterminism(t *testing.T) {
	s := New("crash-partition-heal", "mid-run crash + partition then heal").
		At(4*time.Millisecond, CrashFraction(0.15)).
		At(8*time.Millisecond, Partition(0.5, 1.0)).
		At(40*time.Millisecond, Heal()).
		At(45*time.Millisecond, Regossip(6))
	cfg := testConfig(500)
	first, err := Run(s, cfg, 1234)
	if err != nil {
		t.Fatal(err)
	}
	firstJSON, _ := json.Marshal(first)
	for i := 0; i < 3; i++ {
		rep, err := Run(s, cfg, 1234)
		if err != nil {
			t.Fatal(err)
		}
		repJSON, _ := json.Marshal(rep)
		if string(repJSON) != string(firstJSON) {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, repJSON, firstJSON)
		}
	}
	if first.Crashed == 0 {
		t.Error("campaign crashed nobody")
	}
	other, err := Run(s, cfg, 1235)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other, first) {
		t.Error("different seeds produced identical reports")
	}
}

// TestHealRestoresDelivery checks the semantic claim behind partition
// scenarios: an unhealed partition durably cuts delivery roughly in half,
// while healing followed by a re-gossip wave restores it.
func TestHealRestoresDelivery(t *testing.T) {
	cut := New("partition-only", "half partitioned away, never heals").
		At(3*time.Millisecond, Partition(0.5, 1.0))
	healed := New("partition-healed", "same partition, healed and re-gossiped").
		At(3*time.Millisecond, Partition(0.5, 1.0)).
		At(60*time.Millisecond, Heal()).
		At(65*time.Millisecond, Regossip(8))
	cfg := testConfig(400)
	var cutRel, healRel float64
	for seed := uint64(10); seed < 14; seed++ {
		c, err := Run(cut, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Run(healed, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		cutRel += c.Reliability
		healRel += h.Reliability
	}
	cutRel /= 4
	healRel /= 4
	if cutRel > 0.75 {
		t.Errorf("unhealed partition delivered %.3f, expected a durable cut", cutRel)
	}
	if healRel < 0.90 {
		t.Errorf("healed partition delivered only %.3f, expected restored delivery", healRel)
	}
	if healRel-cutRel < 0.2 {
		t.Errorf("healing gained only %.3f (cut %.3f, healed %.3f)", healRel-cutRel, cutRel, healRel)
	}
}

func TestSweepWorkerInvariance(t *testing.T) {
	suite := DefaultSuite()[:4]
	base := Axes{Run: testConfig(300), Seeds: 3, BaseSeed: 7}
	one := base
	one.Workers = 1
	many := base
	many.Workers = 8
	a, err := sweepView(suite, one, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweepView(suite, many, nil)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("sweep differs across worker counts:\n%s\nvs\n%s", aj, bj)
	}
}

func TestChurnDonatesArcs(t *testing.T) {
	s := New("churn", "burst of departures").
		At(5*time.Millisecond, ChurnFraction(0.1))
	cfg := testConfig(400)
	cfg.PartialViewCopies = 2
	rep, err := Run(s, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Departed == 0 {
		t.Error("nobody departed")
	}
	if rep.ArcsDonated == 0 {
		t.Error("departures donated no arcs despite SCAMP partial views")
	}
	// Without partial views, churn degenerates to crashes: no donations.
	full, err := Run(s, testConfig(400), 99)
	if err != nil {
		t.Fatal(err)
	}
	if full.ArcsDonated != 0 {
		t.Errorf("full view donated %d arcs", full.ArcsDonated)
	}
	if full.Departed == 0 {
		t.Error("full-view churn crashed nobody")
	}
}

func TestFlashCrowdAndRestart(t *testing.T) {
	s := New("crash-restart-flash", "crash, restart, extra publishers").
		At(4*time.Millisecond, CrashFraction(0.3)).
		At(30*time.Millisecond, RestartFraction(1)).
		At(35*time.Millisecond, FlashCrowd(4)).
		At(36*time.Millisecond, Regossip(6))
	rep, err := Run(s, testConfig(400), 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarted == 0 || rep.Published == 0 {
		t.Fatalf("campaign did not exercise restart/publish: %+v", rep)
	}
	if rep.UpAtEnd != 400 {
		t.Errorf("full restart left %d/400 up", rep.UpAtEnd)
	}
	if rep.SurvivorReliability < 0.9 {
		t.Errorf("restart + re-gossip recovered only %.3f", rep.SurvivorReliability)
	}
}

// TestRestartNeverResurrectsMaskDead guards the fail-stop contract: members
// failed by the static AliveRatio mask have no handler, so restarting them
// would create zombies that absorb messages (deflating survivor metrics) or
// let flash-crowd publishes push Reliability past 1. Restart must pick only
// scenario-crashed members.
func TestRestartNeverResurrectsMaskDead(t *testing.T) {
	s := New("restart-under-mask", "crash some, restart everything restartable, flash-crowd widely").
		At(4*time.Millisecond, CrashFraction(0.2)).
		At(20*time.Millisecond, RestartFraction(1)).
		At(25*time.Millisecond, FlashCrowd(50)).
		At(26*time.Millisecond, Regossip(10))
	cfg := testConfig(500)
	cfg.Params.AliveRatio = 0.7 // 150 mask-dead members must stay dead
	for seed := uint64(1); seed <= 5; seed++ {
		rep, err := Run(s, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if rep.UpAtEnd > 350 {
			t.Fatalf("seed %d: %d members up at end, but only 350 were ever alive", seed, rep.UpAtEnd)
		}
		if rep.Reliability > 1 {
			t.Fatalf("seed %d: reliability %g > 1 — a mask-dead member was published to", seed, rep.Reliability)
		}
		if rep.SurvivorReliability > 1 {
			t.Fatalf("seed %d: survivor reliability %g > 1", seed, rep.SurvivorReliability)
		}
	}
}

func TestSweepRejectsSharedMutableState(t *testing.T) {
	suite := DefaultSuite()[:1]
	shared := testConfig(100)
	shared.Params.View = membership.NewPartialViews(100, 1, xrand.New(1))
	if _, err := sweepView(suite, Axes{Run: shared, Seeds: 2}, nil); err == nil {
		t.Error("sweep accepted a shared Params.View")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, s := range DefaultSuite() {
		data, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(again) {
			t.Errorf("%s: round trip changed the spec", s.Name)
		}
	}
}

func TestParseHandwrittenSpec(t *testing.T) {
	spec := `{
		"name": "ops-drill",
		"description": "zone loss during a loss episode",
		"steps": [
			{"at": "2ms", "action": {"op": "loss", "p": 0.1}},
			{"at": "5ms", "action": {"op": "crash-zone", "lo": 0.25, "hi": 0.5}},
			{"at": 15000000, "action": {"op": "clear-loss"}}
		]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Steps) != 3 || s.Steps[2].At.Std() != 15*time.Millisecond {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := Run(s, testConfig(300), 3); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadActions(t *testing.T) {
	bad := []*Scenario{
		New("x", "").At(0, Action{Op: "warp"}),
		New("x", "").At(0, CrashFraction(1.5)),
		New("x", "").At(0, Partition(0.5, 0.5)),
		New("x", "").At(0, Action{Op: OpPublish}),
		New("x", "").At(-time.Millisecond, Heal()),
		New("", ""),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}
