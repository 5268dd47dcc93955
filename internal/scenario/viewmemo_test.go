package scenario

import (
	"context"
	"reflect"
	"testing"

	"gossipkit/internal/protocols"
)

// TestViewMemoSweepMatchesSingleRuns pins the comparison sweep's shared
// SCAMP builds: lpbcast and RDG rows at equal N and ViewCopies, under a
// crash campaign and a churn campaign (which unsubscribes into the views
// each run got), at one and three workers. Every run report equals the
// same cell run alone through Run, which has no memo, and the sweep must
// have taken hits — at one worker exactly one per (scenario, seed), since
// the RDG row repeats each of the lpbcast row's builds. Two seeds put a
// row's repeat four runs after its build, on another worker of three.
func TestViewMemoSweepMatchesSingleRuns(t *testing.T) {
	const n = 200
	var scenarios []*Scenario
	for _, name := range []string{"crash-wave", "churn-burst"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("bundled scenario %q missing", name)
		}
		scenarios = append(scenarios, s)
	}
	rows := []Executor{
		NewProtocolExecutor(protocols.LpbcastParams{N: n, Fanout: 4, Rounds: 10, BufferSize: 8, Events: 3, AliveRatio: 1, ViewCopies: 2}),
		NewProtocolExecutor(protocols.RDGParams{N: n, Fanout: 4, PushRounds: 10, RecoveryRounds: 5, AliveRatio: 1, ViewCopies: 2, PayloadProb: 0.8}),
	}
	for _, workers := range []int{1, 3} {
		ax := Axes{Executors: rows, Seeds: 2, BaseSeed: 11, Workers: workers}
		var got []RunReport
		p, err := ax.Sweep(context.Background(), scenarios, func(_ int, rep RunReport) { got = append(got, rep) })
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range got {
			cell, ri := i/ax.Seeds, i%ax.Seeds
			row, si := cell/len(scenarios), cell%len(scenarios)
			cfg := ax.Run
			cfg.Executor = rows[row]
			want, err := Run(scenarios[si], cfg, ax.seed(si, 0, 0, ri))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Scenario == "churn-burst" && rep.ArcsDonated == 0 {
				t.Errorf("run %d: churn-burst donated no arcs, so it never touched the views", i)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("workers %d, run %d (%s/%s): sweep report differs from the run alone:\n%+v\n%+v",
					workers, i, rep.Protocol, rep.Scenario, rep, want)
			}
		}
		if len(got) != len(rows)*len(scenarios)*ax.Seeds {
			t.Fatalf("workers %d: %d reports", workers, len(got))
		}
		if p.ViewHits == 0 {
			t.Errorf("workers %d: the sweep took no memo hits", workers)
		}
		if repeats := len(scenarios) * ax.Seeds; workers == 1 && p.ViewHits != repeats {
			t.Errorf("workers 1: %d memo hits, want %d", p.ViewHits, repeats)
		}
	}
}
