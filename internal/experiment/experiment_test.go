package experiment

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testCfg keeps unit-test runtime modest while exercising every code path.
var testCfg = Config{Seed: 7, Scale: 0.15}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) < 14 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	want := []string{"fig2", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig6", "fig7"}
	for _, id := range want {
		e, err := ByID(id)
		if err != nil {
			t.Fatalf("missing %s: %v", id, err)
		}
		if e.Run == nil || e.Description == "" || e.Paper == "" {
			t.Errorf("%s incompletely registered", id)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestConfigRuns(t *testing.T) {
	if got := (Config{Scale: 1}).runs(20, 3); got != 20 {
		t.Errorf("full scale runs = %d", got)
	}
	if got := (Config{Scale: 0.1}).runs(20, 3); got != 3 {
		t.Errorf("scaled-down runs = %d, want floor 3", got)
	}
	if got := (Config{}).runs(20, 3); got != 20 {
		t.Errorf("zero scale (=1.0) runs = %d", got)
	}
	// A hostile scale never reaches the float→int conversion unbounded:
	// NaN is the default like every other non-positive value, and anything
	// above MaxScale is MaxScale.
	for _, c := range []struct {
		scale float64
		want  int
	}{
		{math.NaN(), 20},
		{math.Inf(-1), 20},
		{math.Inf(1), 20 * MaxScale},
		{1e18, 20 * MaxScale},
		{1e300, 20 * MaxScale},
		{MaxScale, 20 * MaxScale},
	} {
		if got := (Config{Scale: c.scale}).runs(20, 3); got != c.want {
			t.Errorf("Scale %g: runs = %d, want %d", c.scale, got, c.want)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	f, err := Fig2(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 5 {
		t.Fatalf("series = %d, want 5 (one per q)", len(f.Series))
	}
	// Each curve is increasing in S and curves are ordered by 1/q.
	for _, s := range f.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Fatalf("%s not increasing at %d", s.Name, i)
			}
		}
	}
	q02, q10 := f.Series[0], f.Series[4]
	for i := range q02.Y {
		if q02.Y[i] < q10.Y[i] {
			t.Fatalf("q=0.2 curve below q=1.0 at %d", i)
		}
	}
	// Top of the q=0.2 curve sits below the paper's 50-mark.
	if top := q02.Y[len(q02.Y)-1]; top < 40 || top > 50 {
		t.Errorf("z(S→1, q=0.2) = %.2f, paper plot tops near 46", top)
	}
}

func TestFig3Shape(t *testing.T) {
	f, err := Fig3(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	// t decreases in S, from ~24 at S=0.25 down to 1.
	if s.Y[0] < 15 || s.Y[0] > 30 {
		t.Errorf("t(S=0.25) = %g, paper plot starts near 20", s.Y[0])
	}
	if s.Y[len(s.Y)-1] != 1 {
		t.Errorf("t(S→1) = %g, want 1", s.Y[len(s.Y)-1])
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] > s.Y[i-1] {
			t.Fatalf("t not non-increasing at %d", i)
		}
	}
}

func TestFig4aReproducesPaperShape(t *testing.T) {
	f, err := Fig4a(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 8 {
		t.Fatalf("series = %d, want 8 (4 q × sim+analysis)", len(f.Series))
	}
	for i := 0; i < len(f.Series); i += 2 {
		sim, ana := f.Series[i], f.Series[i+1]
		if len(sim.X) != 15 || len(ana.X) != 15 {
			t.Fatalf("sweep length %d/%d, want 15", len(sim.X), len(ana.X))
		}
		// Simulation tracks analysis. q=0.1 has only 100 alive members,
		// so its subcritical largest component carries a visible
		// finite-size floor (~0.15); give it the wider band.
		tol := 0.12
		if strings.HasPrefix(sim.Name, "q=0.1") {
			tol = 0.22
		}
		for j := range sim.Y {
			if math.Abs(sim.Y[j]-ana.Y[j]) > tol {
				t.Errorf("%s: gap %.3f at f=%.1f", sim.Name, math.Abs(sim.Y[j]-ana.Y[j]), sim.X[j])
			}
		}
	}
	// q=0.1 stays low everywhere (subcritical for f <= 6.7 up to the
	// finite-size floor of 100 alive members).
	q01 := f.Series[0]
	for j, y := range q01.Y {
		if y > 0.25 {
			t.Errorf("q=0.1 reliability %.3f at f=%.1f, should be near 0", y, q01.X[j])
		}
	}
	// q=1.0 reaches high reliability at the top of the sweep.
	q10 := f.Series[6]
	if q10.Y[len(q10.Y)-1] < 0.95 {
		t.Errorf("q=1.0 top-of-sweep reliability %.3f", q10.Y[len(q10.Y)-1])
	}
}

func TestFig6ReproducesPaperShape(t *testing.T) {
	f, err := Fig6(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(f.Series))
	}
	sim := f.Series[0]
	if len(sim.X) != 21 {
		t.Fatalf("histogram bins = %d, want 21", len(sim.X))
	}
	var mass float64
	mode := 0
	for k, y := range sim.Y {
		mass += y
		if y > sim.Y[mode] {
			mode = k
		}
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("simulated PMF mass = %g", mass)
	}
	if mode < 18 {
		t.Errorf("mode at %d, paper figure spikes near 20", mode)
	}
	if len(f.Notes) < 3 {
		t.Errorf("expected analysis notes, got %v", f.Notes)
	}
}

func TestAblationsRun(t *testing.T) {
	// Every ablation must run clean at test scale and carry notes.
	for _, id := range []string{
		"ablation-fanout-shape",
		"ablation-critical-point",
		"ablation-failure-mask",
		"ablation-finite-size",
		"ablation-partial-view",
		"ablation-reach-vs-giant",
		"ablation-message-loss",
		"ablation-epidemic-curve",
		"ablation-protocol-comparison",
	} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			f, err := e.Run(testCfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Series) == 0 {
				t.Error("no series")
			}
			if len(f.Notes) == 0 {
				t.Error("no notes")
			}
			if f.ID != id {
				t.Errorf("figure ID %q != experiment ID %q", f.ID, id)
			}
		})
	}
}

func TestCurvesOverlay(t *testing.T) {
	f, err := CurvesOverlay(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d, want measured+recurrence for each of 2 campaigns", len(f.Series))
	}
	if len(f.Notes) != 2 {
		t.Fatalf("notes = %d, want one divergence note per campaign: %v", len(f.Notes), f.Notes)
	}
	for _, s := range f.Series {
		if len(s.X) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
		// π(t)/n curves are fractions and nondecreasing (cumulative
		// infections on both the measured and analytic side).
		for i, y := range s.Y {
			if y < 0 || y > 1.001 {
				t.Errorf("%s: point %d = %g outside [0,1]", s.Name, i, y)
			}
			if i > 0 && y < s.Y[i-1]-1e-9 {
				t.Errorf("%s: curve decreases at point %d (%g -> %g)", s.Name, i, s.Y[i-1], y)
			}
		}
	}
	// The crash waves remove 30% of the group while the static-q
	// recurrence assumes everyone stays up: the measured plateau must sit
	// visibly below the prediction — the divergence this overlay exists
	// to expose.
	measured, predicted := f.Series[0], f.Series[1]
	if !strings.Contains(measured.Name, "crash-wave") {
		t.Fatalf("series order changed: %q", measured.Name)
	}
	mFinal := measured.Y[len(measured.Y)-1]
	pFinal := predicted.Y[len(predicted.Y)-1]
	if mFinal > pFinal-0.05 {
		t.Errorf("crash-wave measured plateau %.4f not below static-q prediction %.4f", mFinal, pFinal)
	}
	if !strings.Contains(f.Notes[0], "diverge") {
		t.Errorf("crash-wave note carries no divergence finding: %q", f.Notes[0])
	}
}

func TestStreamRoundInterval(t *testing.T) {
	f, err := StreamRoundInterval(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want one per offered load", len(f.Series))
	}
	if len(f.Notes) == 0 {
		t.Error("no notes")
	}
	for _, s := range f.Series {
		if len(s.X) != 7 {
			t.Fatalf("%s: %d ratios, want 7", s.Name, len(s.X))
		}
		// The x-axis is interval/bound; find reliability at the shortest
		// interval and at the latency bound itself.
		var atShort, atBound float64
		for i, x := range s.X {
			switch x {
			case s.X[0]:
				atShort = s.Y[i]
			case 1.0:
				atBound = s.Y[i]
			}
		}
		// Shrinking the round interval below the latency bound truncates
		// the active window before the spread completes: reliability at
		// the shortest interval must sit visibly below the at-bound value.
		if atShort > atBound-0.05 {
			t.Errorf("%s: reliability %.4f at ratio %.1f not below %.4f at the bound",
				s.Name, atShort, s.X[0], atBound)
		}
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("%s: reliability %g outside [0,1]", s.Name, y)
			}
		}
	}
}

func TestAblationReachVsGiantOrdering(t *testing.T) {
	f, err := AblationReachVsGiant(Config{Seed: 3, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	giant, reach := f.Series[0], f.Series[1]
	// At every fanout the directed reach sits at or below the giant
	// fraction.
	for i := range giant.Y {
		if reach.Y[i] > giant.Y[i]+0.03 {
			t.Errorf("f=%.1f: reach %.3f above giant %.3f", giant.X[i], reach.Y[i], giant.Y[i])
		}
	}
}

func TestCSVOutput(t *testing.T) {
	f := &Figure{
		ID: "t", Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b,with comma", X: []float64{2, 3}, Y: []float64{5, 6}},
		},
	}
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d: %q", len(lines), csv)
	}
	if lines[0] != "x,a,b;with comma" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,10," {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,20,5" {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestASCIIOutput(t *testing.T) {
	f := &Figure{
		ID: "t", Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "a", X: []float64{0, 1}, Y: []float64{0, 1}}},
	}
	f.Note("hello %d", 42)
	out := f.ASCII(40, 10)
	if !strings.Contains(out, "hello 42") || !strings.Contains(out, "a") {
		t.Errorf("ascii output missing pieces:\n%s", out)
	}
}

// TestExperimentsHonourCancel: every figure that simulates runs its
// replications on runpool.Replicate under Config.Ctx, so a cancelled
// context stops it — before the first replication when already cancelled,
// and mid-sweep with every worker joined when cancelled from outside.
func TestExperimentsHonourCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		if e.ID == "fig2" || e.ID == "fig3" {
			continue // closed-form: nothing to cancel
		}
		if _, err := e.Run(Config{Seed: 7, Scale: 0.15, Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: error %v, want context.Canceled", e.ID, err)
		}
	}

	t.Run("mid-run", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		canceller := make(chan struct{})
		go func() {
			defer close(canceller)
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := AblationMessageLoss(Config{Seed: 7, Scale: 4, Ctx: ctx})
		<-canceller
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("returned after %v, want within 1s", d)
		}
		// wg.Wait returns at a worker's Done, a moment before the goroutine
		// itself is gone: give the count that moment.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutines: %d before the figure, %d two seconds after its cancellation", before, after)
		}
	})
}
