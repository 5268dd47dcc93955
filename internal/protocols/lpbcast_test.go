package protocols

import (
	"math"
	"testing"

	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

func TestLpbcastValidate(t *testing.T) {
	good := LpbcastParams{
		N: 200, Fanout: 3, Rounds: 10, BufferSize: 8, Events: 2, AliveRatio: 0.9,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if err := (LpbcastParams{N: 200, Fanout: 3, Rounds: 10, BufferSize: 8, Events: 2, ViewCopies: 199}).Validate(); err != nil {
		t.Fatalf("view copies N-1 rejected: %v", err)
	}
	muts := []func(*LpbcastParams){
		func(p *LpbcastParams) { p.N = 1 },
		func(p *LpbcastParams) { p.Fanout = 0 },
		func(p *LpbcastParams) { p.Rounds = 0 },
		func(p *LpbcastParams) { p.BufferSize = 0 },
		func(p *LpbcastParams) { p.Events = 0 },
		func(p *LpbcastParams) { p.AliveRatio = -1 },
		func(p *LpbcastParams) { p.Source = 200 },
		func(p *LpbcastParams) { p.ViewCopies = -1 },
		func(p *LpbcastParams) { p.ViewCopies = 200 },
		func(p *LpbcastParams) { p.ViewCopies = math.MaxInt },
	}
	for i, mut := range muts {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestLpbcastSingleEventHighReliability(t *testing.T) {
	p := LpbcastParams{
		N: 500, Fanout: 3, Rounds: 12, BufferSize: 16, Events: 1,
		AliveRatio: 0.9, ViewCopies: 1,
	}
	res, err := RunLpbcast(p, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.AliveCount != 450 {
		t.Fatalf("alive = %d", res.AliveCount)
	}
	if res.MeanReliability < 0.95 {
		t.Errorf("single-event reliability %.4f", res.MeanReliability)
	}
	if res.MessagesSent == 0 {
		t.Error("no messages counted")
	}
}

func TestLpbcastBufferPressureHurtsWorstEvent(t *testing.T) {
	// With Events >> BufferSize, old rumors age out before spreading:
	// the worst event's delivery must drop measurably below a run with
	// ample buffers.
	base := LpbcastParams{
		N: 400, Fanout: 3, Rounds: 10, Events: 24, AliveRatio: 1, ViewCopies: 1,
	}
	ample := base
	ample.BufferSize = 64
	tight := base
	tight.BufferSize = 2
	var ampleMin, tightMin stats.Running
	for seed := uint64(0); seed < 8; seed++ {
		a, err := RunLpbcast(ample, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ampleMin.Add(a.MinReliability)
		b, err := RunLpbcast(tight, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		tightMin.Add(b.MinReliability)
	}
	if tightMin.Mean() >= ampleMin.Mean()-0.05 {
		t.Errorf("buffer pressure invisible: tight %.4f vs ample %.4f",
			tightMin.Mean(), ampleMin.Mean())
	}
}

func TestLpbcastPerEventAccounting(t *testing.T) {
	p := LpbcastParams{
		N: 300, Fanout: 3, Rounds: 8, BufferSize: 8, Events: 4,
		AliveRatio: 0.8, ViewCopies: 1,
	}
	res, err := RunLpbcast(p, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeliveredPerEvent) != 4 {
		t.Fatalf("events = %d", len(res.DeliveredPerEvent))
	}
	for e, d := range res.DeliveredPerEvent {
		if d < 1 || d > res.AliveCount {
			t.Errorf("event %d delivered to %d of %d", e, d, res.AliveCount)
		}
	}
	if res.MinReliability > res.MeanReliability+1e-9 {
		t.Error("min exceeds mean")
	}
}

func TestAntiEntropyValidate(t *testing.T) {
	good := AntiEntropyParams{N: 100, Rounds: 10, Mode: PushPull, AliveRatio: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	for i, bad := range []AntiEntropyParams{
		{N: 1, Rounds: 5, AliveRatio: 1},
		{N: 100, Rounds: -1, AliveRatio: 1},
		{N: 100, Rounds: 5, Mode: Mode(7), AliveRatio: 1},
		{N: 100, Rounds: 5, AliveRatio: 2},
		{N: 100, Rounds: 5, AliveRatio: 1, Source: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAntiEntropyPushPullFullCoverage(t *testing.T) {
	p := AntiEntropyParams{N: 1000, Rounds: 0, Mode: PushPull, AliveRatio: 0.9}
	res, err := RunAntiEntropy(p, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != 1 {
		t.Errorf("push-pull reliability %.4f", res.Reliability)
	}
	// Classic result: push-pull completes in O(log n) rounds.
	if res.Rounds > 20 {
		t.Errorf("push-pull took %d rounds for n=1000", res.Rounds)
	}
	// Infection curve is monotone, starts at 1, ends at alive count.
	curve := res.InfectedPerRound
	if curve[0] != 1 || curve[len(curve)-1] != res.AliveCount {
		t.Errorf("curve endpoints: %d .. %d", curve[0], curve[len(curve)-1])
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
}

func TestAntiEntropyModeOrdering(t *testing.T) {
	// At a fixed small round budget, push-pull >= push and >= pull in
	// coverage (push stalls in the endgame, pull in the start).
	const rounds = 6
	var push, pull, both stats.Running
	for seed := uint64(0); seed < 10; seed++ {
		a, err := RunAntiEntropy(AntiEntropyParams{N: 2000, Rounds: rounds, Mode: Push, AliveRatio: 1}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		push.Add(a.Reliability)
		b, err := RunAntiEntropy(AntiEntropyParams{N: 2000, Rounds: rounds, Mode: Pull, AliveRatio: 1}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		pull.Add(b.Reliability)
		c, err := RunAntiEntropy(AntiEntropyParams{N: 2000, Rounds: rounds, Mode: PushPull, AliveRatio: 1}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		both.Add(c.Reliability)
	}
	if both.Mean() < push.Mean()-1e-9 || both.Mean() < pull.Mean()-1e-9 {
		t.Errorf("push-pull %.4f not dominating push %.4f / pull %.4f",
			both.Mean(), push.Mean(), pull.Mean())
	}
}

func TestAntiEntropyPullNeedsSeeding(t *testing.T) {
	// Pull-only from a single source: in round 1 only callers that pick
	// the source get infected — expected growth is slow at first but
	// still completes given enough rounds.
	p := AntiEntropyParams{N: 300, Rounds: 0, Mode: Pull, AliveRatio: 1}
	res, err := RunAntiEntropy(p, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != 1 {
		t.Errorf("pull never completed: %.4f", res.Reliability)
	}
}

func TestAntiEntropyMessageCost(t *testing.T) {
	p := AntiEntropyParams{N: 500, Rounds: 5, Mode: Push, AliveRatio: 1}
	res, err := RunAntiEntropy(p, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Push: one message per alive member per round.
	if res.MessagesSent != 500*res.Rounds {
		t.Errorf("push messages %d, want %d", res.MessagesSent, 500*res.Rounds)
	}
	p.Mode = PushPull
	res2, err := RunAntiEntropy(p, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if res2.MessagesSent != 2*500*res2.Rounds {
		t.Errorf("push-pull messages %d, want %d", res2.MessagesSent, 2*500*res2.Rounds)
	}
}

func TestModeString(t *testing.T) {
	if Push.String() != "push" || Pull.String() != "pull" || PushPull.String() != "push-pull" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestAntiEntropyLogisticGrowthPhase(t *testing.T) {
	// Push-only epidemic: fraction infected follows the logistic map
	// i_{t+1} = i_t + i_t(1 - i_t) approximately (each infected member
	// pushes to one uniform peer). Verify the early doubling behavior.
	p := AntiEntropyParams{N: 10000, Rounds: 5, Mode: Push, AliveRatio: 1}
	res, err := RunAntiEntropy(p, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	curve := res.InfectedPerRound
	for r := 1; r < len(curve) && curve[r] < 1000; r++ {
		ratio := float64(curve[r]) / float64(curve[r-1])
		if math.Abs(ratio-2) > 0.5 {
			t.Errorf("round %d growth ratio %.2f, want ~2 in early phase", r, ratio)
		}
	}
}

func BenchmarkLpbcast(b *testing.B) {
	p := LpbcastParams{
		N: 500, Fanout: 3, Rounds: 10, BufferSize: 16, Events: 4,
		AliveRatio: 0.9, ViewCopies: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := RunLpbcast(p, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAntiEntropyPushPull(b *testing.B) {
	p := AntiEntropyParams{N: 1000, Rounds: 0, Mode: PushPull, AliveRatio: 0.9}
	r := xrand.New(1)
	for i := 0; i < b.N; i++ {
		if _, err := RunAntiEntropy(p, r); err != nil {
			b.Fatal(err)
		}
	}
}
