package protocols

import (
	"math"
	"testing"

	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

func TestRDGValidate(t *testing.T) {
	good := RDGParams{N: 200, Fanout: 3, PushRounds: 6, RecoveryRounds: 3, AliveRatio: 0.9}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if err := (RDGParams{N: 200, Fanout: 3, PushRounds: 6, ViewCopies: 199}).Validate(); err != nil {
		t.Fatalf("view copies N-1 rejected: %v", err)
	}
	muts := []func(*RDGParams){
		func(p *RDGParams) { p.N = 1 },
		func(p *RDGParams) { p.Fanout = 0 },
		func(p *RDGParams) { p.PushRounds = 0 },
		func(p *RDGParams) { p.RecoveryRounds = -1 },
		func(p *RDGParams) { p.AliveRatio = 2 },
		func(p *RDGParams) { p.Source = -1 },
		func(p *RDGParams) { p.ViewCopies = -1 },
		func(p *RDGParams) { p.ViewCopies = 200 },
		func(p *RDGParams) { p.ViewCopies = math.MaxInt },
		func(p *RDGParams) { p.PayloadProb = math.NaN() },
	}
	for i, mut := range muts {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRDGHighReliability(t *testing.T) {
	p := RDGParams{
		N: 800, Fanout: 3, PushRounds: 10, RecoveryRounds: 4,
		AliveRatio: 0.9, ViewCopies: 1,
	}
	res, err := RunRDG(p, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability < 0.97 {
		t.Errorf("RDG reliability %.4f", res.Reliability)
	}
	if res.DeliveredByPush+res.DeliveredByPull != res.Delivered {
		t.Errorf("accounting: push %d + pull %d != delivered %d",
			res.DeliveredByPush, res.DeliveredByPull, res.Delivered)
	}
}

func TestRDGRecoveryHelps(t *testing.T) {
	// With buffer-limited pushes (payload rides only 60% of messages),
	// awareness outruns the payload and the NACK pulls must close the
	// gap.
	base := RDGParams{
		N: 1000, Fanout: 3, PushRounds: 6, RecoveryRounds: 0,
		AliveRatio: 1, ViewCopies: 1, PayloadProb: 0.6,
	}
	withRec := base
	withRec.RecoveryRounds = 6
	var noRec, rec stats.Running
	for seed := uint64(0); seed < 10; seed++ {
		a, err := RunRDG(base, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		noRec.Add(a.Reliability)
		b, err := RunRDG(withRec, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		rec.Add(b.Reliability)
		if b.DeliveredByPull < 0 || b.DeliveredByPull > b.Delivered {
			t.Errorf("pull accounting out of range: %d of %d", b.DeliveredByPull, b.Delivered)
		}
	}
	if rec.Mean() <= noRec.Mean() {
		t.Errorf("recovery did not help: %.4f vs %.4f", rec.Mean(), noRec.Mean())
	}
}

func TestRDGAwareMissesBounded(t *testing.T) {
	p := RDGParams{
		N: 500, Fanout: 3, PushRounds: 8, RecoveryRounds: 5,
		AliveRatio: 0.8, ViewCopies: 1,
	}
	res, err := RunRDG(p, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// After generous recovery, aware-but-missing members should be rare.
	if res.AwareMisses > res.AliveCount/20 {
		t.Errorf("aware misses %d of %d alive", res.AwareMisses, res.AliveCount)
	}
}

func BenchmarkRDG(b *testing.B) {
	p := RDGParams{
		N: 1000, Fanout: 3, PushRounds: 8, RecoveryRounds: 3,
		AliveRatio: 0.9, ViewCopies: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := RunRDG(p, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
