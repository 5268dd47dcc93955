package gossipkit

import (
	"context"
	"errors"
	"testing"
	"time"

	"gossipkit/internal/golden"
)

// baselineGoldenSpecs is one parameter set per related-work baseline.
func baselineGoldenSpecs() []ProtocolSpec {
	return []ProtocolSpec{
		PbcastParams{N: 300, Fanout: 3, Rounds: 8, AliveRatio: 0.9},
		LpbcastParams{N: 300, Fanout: 3, Rounds: 8, BufferSize: 4, Events: 2, AliveRatio: 0.9, ViewCopies: 2},
		AntiEntropyParams{N: 300, Rounds: 10, Mode: PushPull, AliveRatio: 0.9},
		RDGParams{N: 300, Fanout: 3, PushRounds: 6, RecoveryRounds: 3, AliveRatio: 0.9, ViewCopies: 2, PayloadProb: 0.9},
		LRGParams{N: 300, Degree: 6, GossipProb: 0.8, RepairRounds: 3, AliveRatio: 0.9},
		FloodingParams{N: 300, AliveRatio: 0.9},
	}
}

// baselineEngine is the facade engine that runs spec over net.
func baselineEngine(spec ProtocolSpec, net NetConfig) Engine {
	return Baseline{Protocol: spec, Net: net}
}

// TestBaselineGolden pins every baseline engine's Outcome — reports, sweep
// aggregate, merged telemetry and moments — on the ideal and a lossy
// jittered network, on an overlay and under a probe.
// testdata/baseline.golden was captured from the six per-protocol engines
// of commit 6e0b886, the last one that had them.
func TestBaselineGolden(t *testing.T) {
	g := golden.Open(t, "testdata/baseline.golden",
		"One engine per protocol (Pbcast, Lpbcast, AntiEntropy, RDG, LRG, Flooding) at commit\n"+
			"6e0b886, the last one that had them; re-encoded field-wise at 2be1c47, where every old\n"+
			"digest matched. case = protocol/case")
	defer g.Close(t)
	lossy := NetConfig{Latency: UniformLatency(time.Millisecond, 5*time.Millisecond), Loss: BernoulliLoss(0.05)}
	cases := []struct {
		name string
		net  NetConfig
		runs int // 0: a single Run
		opts []Option
	}{
		{"zero", NetConfig{}, 4, nil},
		{"lossy", lossy, 4, []Option{WithWorkers(3)}},
		{"kout", NetConfig{}, 0, []Option{WithTopology(KOutTopology(6))}},
		{"probe", NetConfig{}, 2, []Option{WithProbe(ProbeOptions{})}},
	}
	for _, spec := range baselineGoldenSpecs() {
		for _, c := range cases {
			eng := baselineEngine(spec, c.net)
			opts := append([]Option{WithSeed(17)}, c.opts...)
			var out *Outcome
			var err error
			if c.runs == 0 {
				out, err = Run(context.Background(), eng, opts...)
			} else {
				out, err = RunMany(context.Background(), eng, c.runs, opts...)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Protocol(), c.name, err)
			}
			g.Check(t, spec.Protocol()+"/"+c.name, out)
		}
	}
}

// TestBaselineWithoutProtocol: a Baseline with no protocol is invalid
// parameters on either entry point, and still has a name to report.
func TestBaselineWithoutProtocol(t *testing.T) {
	for _, spec := range []Baseline{{}, {Protocol: nil, Net: NetConfig{Loss: BernoulliLoss(0.1)}}} {
		if name := spec.Name(); name != "baseline" {
			t.Errorf("Name() = %q, want baseline", name)
		}
		if _, err := Run(context.Background(), spec); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("Run: err %v, want ErrInvalidParams", err)
		}
		if _, err := RunMany(context.Background(), spec, 3); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("RunMany: err %v, want ErrInvalidParams", err)
		}
	}
}
