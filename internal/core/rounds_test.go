package core

import (
	"context"
	"math"
	"testing"

	"gossipkit/internal/genfunc"
	"gossipkit/internal/xrand"
)

func TestTraceRoundsBasics(t *testing.T) {
	p := poissonParams(500, 4, 0.9)
	tr := newExecutor(p).trace(xrand.New(1))
	if len(tr.Infected) != tr.Result.Rounds+1 {
		t.Fatalf("trace length %d, rounds %d", len(tr.Infected), tr.Result.Rounds)
	}
	if tr.Infected[0] != 1 {
		t.Errorf("round 0 infections = %d, want 1 (the source)", tr.Infected[0])
	}
	// Cumulative and monotone; final value equals Delivered.
	for i := 1; i < len(tr.Infected); i++ {
		if tr.Infected[i] < tr.Infected[i-1] {
			t.Fatalf("trace not monotone at round %d", i)
		}
	}
	if got := tr.Infected[len(tr.Infected)-1]; got != tr.Result.Delivered {
		t.Errorf("final trace %d != delivered %d", got, tr.Result.Delivered)
	}
}

func TestTraceRoundsInvalidParams(t *testing.T) {
	p := poissonParams(1, 4, 0.9)
	if _, err := MeanTraceRounds(context.Background(), p, 1, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestRecurrenceModelValidation(t *testing.T) {
	for _, c := range []struct {
		n      int
		z, q   float64
		rounds int
	}{
		{1, 4, 0.9, 5},
		{100, -1, 0.9, 5},
		{100, 4, 1.5, 5},
		{100, 4, 0.9, -1},
	} {
		if _, err := RecurrenceModel(c.n, c.z, c.q, c.rounds); err == nil {
			t.Errorf("RecurrenceModel(%v) accepted", c)
		}
	}
}

func TestRecurrenceModelShape(t *testing.T) {
	cum, err := RecurrenceModel(1000, 4, 0.9, 30)
	if err != nil {
		t.Fatal(err)
	}
	if cum[0] != 1 {
		t.Errorf("round 0 = %g", cum[0])
	}
	// Monotone, bounded by alive count.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1]-1e-9 {
			t.Fatalf("not monotone at %d", i)
		}
		if cum[i] > 900+1e-9 {
			t.Fatalf("exceeds alive count at %d: %g", i, cum[i])
		}
	}
	// Plateau approaches n·q·S.
	s, _ := genfunc.PoissonReliability(4, 0.9)
	plateau := cum[len(cum)-1]
	if math.Abs(plateau-900*s) > 900*0.02 {
		t.Errorf("plateau %.1f, want ~%.1f", plateau, 900*s)
	}
	// Early phase is exponential-ish: round 2 ≈ 1 + z + z² ballpark.
	if cum[2] < 10 || cum[2] > 30 {
		t.Errorf("early growth cum[2] = %.1f", cum[2])
	}
}

func TestRecurrenceMatchesSimulatedTrace(t *testing.T) {
	// The mean simulated infection curve must track the recurrence
	// model round by round. Condition on outbreak by using enough runs
	// and comparing plateaus within a die-out allowance.
	n, z, q := 2000, 5.0, 0.9
	p := poissonParams(n, z, q)
	sim, err := MeanTraceRounds(context.Background(), p, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	model, err := RecurrenceModel(n, z, q, len(sim)-1)
	if err != nil {
		t.Fatal(err)
	}
	// The simulation mean includes ~(1-S) die-out runs, scaling the
	// whole curve by ≈ outbreak probability; compare shapes after
	// normalizing both plateaus.
	simPlat := sim[len(sim)-1]
	modPlat := model[len(model)-1]
	if simPlat <= 0 || modPlat <= 0 {
		t.Fatal("degenerate plateaus")
	}
	for r := 3; r < len(sim) && r < len(model); r++ {
		a := sim[r] / simPlat
		b := model[r] / modPlat
		if math.Abs(a-b) > 0.12 {
			t.Errorf("round %d: normalized sim %.3f vs model %.3f", r, a, b)
		}
	}
}

func TestRoundsToCoverage(t *testing.T) {
	r99, err := RoundsToCoverage(1000, 4, 1.0, 0.99, 50)
	if err != nil {
		t.Fatal(err)
	}
	// log-time spread: ~log_4(1000) ≈ 5 plus tail.
	if r99 < 4 || r99 > 15 {
		t.Errorf("rounds to 99%% coverage = %d", r99)
	}
	r50, err := RoundsToCoverage(1000, 4, 1.0, 0.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r50 >= r99 {
		t.Errorf("50%% coverage (%d) not before 99%% (%d)", r50, r99)
	}
	if _, err := RoundsToCoverage(1000, 4, 1.0, 0, 50); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := RoundsToCoverage(1, 4, 1.0, 0.5, 50); err == nil {
		t.Error("invalid group accepted")
	}
}

func TestRoundsToCoverageGrowsLogarithmically(t *testing.T) {
	r1, _ := RoundsToCoverage(1000, 4, 1.0, 0.99, 100)
	r2, _ := RoundsToCoverage(100000, 4, 1.0, 0.99, 100)
	if r2 > r1+6 {
		t.Errorf("100x group size added %d rounds; expected O(log) growth", r2-r1)
	}
}

func TestMeanTraceRoundsDeterministic(t *testing.T) {
	p := poissonParams(300, 4, 0.9)
	a, err := MeanTraceRounds(context.Background(), p, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeanTraceRounds(context.Background(), p, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
	if _, err := MeanTraceRounds(context.Background(), p, 0, 1); err == nil {
		t.Error("zero runs accepted")
	}
}

func BenchmarkTraceRounds2000(b *testing.B) {
	p := poissonParams(2000, 4, 0.9)
	ex, r := newExecutor(p), xrand.New(1)
	for i := 0; i < b.N; i++ {
		ex.trace(r)
	}
}
