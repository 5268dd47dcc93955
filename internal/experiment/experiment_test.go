package experiment

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gossipkit/internal/xrand"
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

// claimSeeds names the environment variable that turns TestClaims into a
// seed scan: GOSSIPKIT_CLAIM_SEEDS=50 runs the registry at seeds 1…50 and
// reports each claim's failure rate instead of failing on one miss.
const claimSeeds = "GOSSIPKIT_CLAIM_SEEDS"

// maxClaimFailRate is the failure rate over a seed scan above which a
// claim's tolerance is wrong.
const maxClaimFailRate = 0.05

// TestClaims runs every registered experiment at testCfg's scale and fails
// on any claim that does not hold. Under GOSSIPKIT_CLAIM_SEEDS=N it runs
// seeds 1…N instead, logs every failed claim with its seed, each failing
// claim's rate, the rate at which the figure has any failed claim and the
// rate at which the whole registry has one, and fails only on a claim above
// maxClaimFailRate.
func TestClaims(t *testing.T) {
	seeds := []uint64{testCfg.Seed}
	if v := os.Getenv(claimSeeds); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("%s=%q: want a positive seed count", claimSeeds, v)
		}
		seeds = seeds[:0]
		for s := 1; s <= n; s++ {
			seeds = append(seeds, uint64(s))
		}
	}
	scan := len(seeds) > 1
	anyFailed := map[uint64]bool{} // seeds at which some claim failed
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			fails := map[string]int{}
			var ids []string
			figFails := 0
			for _, seed := range seeds {
				f, err := e.Run(Config{Seed: seed, Scale: testCfg.Scale})
				if err != nil {
					t.Fatal(err)
				}
				if f.ID != e.ID || len(f.Series) == 0 || len(f.Claims) == 0 {
					t.Fatalf("figure %q: %d series, %d claims", f.ID, len(f.Series), len(f.Claims))
				}
				failed, once := false, map[string]bool{}
				for _, c := range f.Claims {
					if once[c.ID] {
						t.Fatalf("seed %d: claim id %q repeats", seed, c.ID)
					}
					once[c.ID] = true
					if _, ok := fails[c.ID]; !ok {
						ids = append(ids, c.ID)
						fails[c.ID] = 0
					}
					if !c.Pass {
						fails[c.ID]++
						failed = true
						if !scan {
							t.Error(c)
						} else {
							t.Logf("seed %d: %v", seed, c)
						}
					}
				}
				if failed {
					figFails++
					anyFailed[seed] = true
				}
			}
			if !scan {
				return
			}
			t.Logf("%s: %d claims, any failed at %d/%d seeds", e.ID, len(ids), figFails, len(seeds))
			for _, id := range ids {
				if k := fails[id]; k > 0 {
					rate := float64(k) / float64(len(seeds))
					t.Logf("  %-44s %d/%d (%.0f%%)", id, k, len(seeds), 100*rate)
					if rate > maxClaimFailRate {
						t.Errorf("%s fails at %d/%d seeds, above %.0f%%", id, k, len(seeds), 100*maxClaimFailRate)
					}
				}
			}
		})
	}
	if scan {
		t.Logf("registry: some claim failed at %d/%d seeds", len(anyFailed), len(seeds))
	}
}

func TestAblationsRun(t *testing.T) {
	// Every ablation resolves by its public ID, runs clean at test scale
	// and carries claims.
	for _, id := range []string{
		"ablation-fanout-shape",
		"ablation-critical-point",
		"ablation-failure-mask",
		"ablation-partial-view",
		"ablation-reach-vs-giant",
		"ablation-message-loss",
		"ablation-epidemic-curve",
		"ablation-protocol-comparison",
	} {
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
			if len(f.Claims) == 0 {
				t.Error("no claims")
			}
			if f.ID != id {
				t.Errorf("figure ID %q != experiment ID %q", f.ID, id)
			}
		})
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

// TestSeedsShareNoStream holds the package to its one seeding rule: no
// file but experiment.go reads Config.Seed or builds a generator with
// xrand.New, so every replication stream is Config.stream's split of
// xrand.New(Seed). A per-run seed of Seed ^ i makes -seed 1 and -seed 2
// draw the same runs (1^2 == 2^1), so a seed scan of such a figure is not
// a set of independent trials.
func TestSeedsShareNoStream(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "experiment.go" {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); (ok && x.Name == "xrand" && sel.Sel.Name == "New") || sel.Sel.Name == "Seed" {
				t.Errorf("%s: %s.%s outside Config.stream: derive the stream with cfg.stream or cfg.seed",
					fset.Position(sel.Pos()), types.ExprString(sel.X), sel.Sel.Name)
			}
			return true
		})
	}
}

// TestStreamsDisjoint: Config.stream never hands two (seed, figure, point,
// run) paths the same generator.
func TestStreamsDisjoint(t *testing.T) {
	seen := map[xrand.RNG]string{}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, id := range []string{"fig4a", "fig4b", "ablation-message-loss"} {
			for point := 0; point < 8; point++ {
				for run := 0; run < 8; run++ {
					key := fmt.Sprintf("seed %d %s point %d run %d", seed, id, point, run)
					r := *Config{Seed: seed}.stream(id, point, run)
					if prev, ok := seen[r]; ok {
						t.Fatalf("%s draws the stream of %s", key, prev)
					}
					seen[r] = key
				}
			}
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
	f.claim(Claim{ID: "hello", Source: "Eq. 1", Measured: 42, Rel: "≈", Model: 42, Against: "answer"})
	f.claim(Claim{ID: "bye", Source: "Eq. 2", Measured: 1, Rel: ">", Model: 2, Against: "two"})
	out := f.ASCII(40, 10)
	if !strings.Contains(out, "pass hello [Eq. 1]: 42") || !strings.Contains(out, "FAIL bye [Eq. 2]: 1") || !strings.Contains(out, "a") {
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
