package protocols

import (
	"math"
	"testing"

	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

func TestPbcastValidate(t *testing.T) {
	good := PbcastParams{N: 100, Fanout: 3, Rounds: 5, AliveRatio: 0.9}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	for name, bad := range map[string]PbcastParams{
		"tiny group": {N: 1, Fanout: 3, Rounds: 5, AliveRatio: 0.9},
		"neg fanout": {N: 100, Fanout: -1, Rounds: 5, AliveRatio: 0.9},
		"no rounds":  {N: 100, Fanout: 3, Rounds: 0, AliveRatio: 0.9},
		"bad q":      {N: 100, Fanout: 3, Rounds: 5, AliveRatio: 1.5},
		"bad source": {N: 100, Fanout: 3, Rounds: 5, AliveRatio: 0.9, Source: 100},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPbcastReachesEveryoneWithEnoughRounds(t *testing.T) {
	// Round-based anti-entropy removes the die-out mode: with fanout 3
	// and ~log n rounds, reliability 1 should be routine.
	r := xrand.New(1)
	for trial := 0; trial < 10; trial++ {
		res, err := RunPbcast(PbcastParams{N: 1000, Fanout: 3, Rounds: 15, AliveRatio: 1}, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reliability != 1 {
			t.Fatalf("trial %d: reliability %.4f", trial, res.Reliability)
		}
	}
}

func TestPbcastNeverDiesOutUnlikeSingleShot(t *testing.T) {
	// Even with fanout 1 per round the source keeps gossiping, so the
	// mean reliability over many runs must beat the single-shot
	// branching process's survival-limited mean.
	r := xrand.New(3)
	var acc stats.Running
	for trial := 0; trial < 50; trial++ {
		res, err := RunPbcast(PbcastParams{N: 300, Fanout: 1, Rounds: 25, AliveRatio: 1}, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered < 2 {
			t.Fatalf("pbcast died in round 1 despite source regossiping")
		}
		acc.Add(res.Reliability)
	}
	if acc.Mean() < 0.9 {
		t.Errorf("pbcast fanout-1 mean reliability %.4f, want > 0.9", acc.Mean())
	}
}

func TestPbcastStopsEarlyWhenComplete(t *testing.T) {
	r := xrand.New(5)
	res, err := RunPbcast(PbcastParams{N: 50, Fanout: 10, Rounds: 1000, AliveRatio: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds >= 1000 {
		t.Errorf("ran all %d rounds despite full coverage", res.Rounds)
	}
	if res.Reliability != 1 {
		t.Errorf("reliability %.4f", res.Reliability)
	}
}

func TestPbcastWithFailures(t *testing.T) {
	r := xrand.New(7)
	res, err := RunPbcast(PbcastParams{N: 1000, Fanout: 4, Rounds: 20, AliveRatio: 0.6}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.AliveCount != 600 {
		t.Fatalf("alive = %d", res.AliveCount)
	}
	if res.Reliability < 0.99 {
		t.Errorf("reliability %.4f with q=0.6 and 20 rounds", res.Reliability)
	}
}

func TestLRGValidate(t *testing.T) {
	good := LRGParams{N: 100, Degree: 6, GossipProb: 0.7, RepairRounds: 2, AliveRatio: 0.9}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	for name, bad := range map[string]LRGParams{
		"degree 0":    {N: 100, Degree: 0, GossipProb: 0.7, AliveRatio: 0.9},
		"degree >= n": {N: 10, Degree: 10, GossipProb: 0.7, AliveRatio: 0.9},
		"bad prob":    {N: 100, Degree: 6, GossipProb: 1.2, AliveRatio: 0.9},
		"NaN prob":    {N: 100, Degree: 6, GossipProb: math.NaN(), AliveRatio: 0.9},
		"neg repair":  {N: 100, Degree: 6, GossipProb: 0.5, RepairRounds: -1, AliveRatio: 0.9},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLRGRepairImprovesReliability(t *testing.T) {
	// The LRG thesis: local retransmission patches the holes that
	// probabilistic flooding leaves.
	base := LRGParams{N: 2000, Degree: 8, GossipProb: 0.5, RepairRounds: 0, AliveRatio: 1}
	withRepair := base
	withRepair.RepairRounds = 5
	var noRep, rep stats.Running
	for seed := uint64(0); seed < 15; seed++ {
		a, err := RunLRG(base, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		noRep.Add(a.Reliability)
		b, err := RunLRG(withRepair, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		rep.Add(b.Reliability)
	}
	if rep.Mean() <= noRep.Mean() {
		t.Errorf("repair did not help: %.4f vs %.4f", rep.Mean(), noRep.Mean())
	}
	if rep.Mean() < 0.9 {
		t.Errorf("LRG with repair only reached %.4f", rep.Mean())
	}
}

func TestLRGGossipProbMonotone(t *testing.T) {
	means := make([]float64, 0, 3)
	for _, pg := range []float64{0.3, 0.6, 0.9} {
		var acc stats.Running
		for seed := uint64(0); seed < 10; seed++ {
			res, err := RunLRG(LRGParams{
				N: 1500, Degree: 8, GossipProb: pg, RepairRounds: 0, AliveRatio: 1,
			}, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(res.Reliability)
		}
		means = append(means, acc.Mean())
	}
	if !(means[0] <= means[1]+0.02 && means[1] <= means[2]+0.02) {
		t.Errorf("reliability not monotone in gossip prob: %v", means)
	}
}

func TestFloodingAlwaysPerfect(t *testing.T) {
	r := xrand.New(11)
	for _, q := range []float64{0.2, 0.5, 1.0} {
		res, err := RunFlooding(FloodingParams{N: 500, AliveRatio: q}, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reliability != 1 {
			t.Errorf("q=%g: flooding reliability %.4f", q, res.Reliability)
		}
		// Message cost is delivered×(n−1).
		if res.MessagesSent != res.Delivered*(500-1) {
			t.Errorf("message accounting: %d sent, %d delivered", res.MessagesSent, res.Delivered)
		}
	}
}

func TestFloodingValidate(t *testing.T) {
	if err := (FloodingParams{N: 1, AliveRatio: 1}).Validate(); err == nil {
		t.Error("tiny group accepted")
	}
	if err := (FloodingParams{N: 10, AliveRatio: -1}).Validate(); err == nil {
		t.Error("bad ratio accepted")
	}
	if err := (FloodingParams{N: 10, AliveRatio: 1, Source: 10}).Validate(); err == nil {
		t.Error("bad source accepted")
	}
}

func TestProtocolCostOrdering(t *testing.T) {
	// The fundamental trade-off the paper's intro frames: flooding costs
	// ~n× more messages than gossip at comparable reliability.
	r := xrand.New(13)
	flood, err := RunFlooding(FloodingParams{N: 1000, AliveRatio: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	gossip, err := RunPbcast(PbcastParams{N: 1000, Fanout: 4, Rounds: 15, AliveRatio: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	if gossip.Reliability < 0.999 {
		t.Fatalf("gossip baseline unreliable: %.4f", gossip.Reliability)
	}
	if flood.MessagesSent < gossip.MessagesSent*10 {
		t.Errorf("flooding %d msgs vs gossip %d msgs: expected ≥10x gap",
			flood.MessagesSent, gossip.MessagesSent)
	}
}

func BenchmarkPbcast1000(b *testing.B) {
	r := xrand.New(1)
	p := PbcastParams{N: 1000, Fanout: 4, Rounds: 15, AliveRatio: 0.9}
	for i := 0; i < b.N; i++ {
		if _, err := RunPbcast(p, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRG2000(b *testing.B) {
	r := xrand.New(1)
	p := LRGParams{N: 2000, Degree: 8, GossipProb: 0.6, RepairRounds: 3, AliveRatio: 0.9}
	for i := 0; i < b.N; i++ {
		if _, err := RunLRG(p, r); err != nil {
			b.Fatal(err)
		}
	}
}
