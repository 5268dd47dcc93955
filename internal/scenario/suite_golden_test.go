package scenario

import (
	"strings"
	"testing"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
)

// TestRegossipHeartbeatGolden pins the sweep summary of the bundled
// recurring campaign (the Every-based regossip heartbeat) bit for bit:
// the sweep is a pure function of (scenario, config, seeds) and must stay
// byte-stable across refactors of the runner, the kernel, and the worker
// pool — the same guarantee the release sweeps rely on. If an intentional
// change to the scenario or the substrate moves these numbers, regenerate
// the constant and say so in the commit.
func TestRegossipHeartbeatGolden(t *testing.T) {
	const golden = "scenario,runs,reliability,reliability_stddev,survivor_reliability,spread_ms,mean_messages,mean_up_at_end,static_prediction,effective_prediction,static_gap,effective_gap\n" +
		"regossip-heartbeat,4,0.784583,0.010661,0.923039,103.471,2405.8,510.0,0.993023,0.984783,-0.208440,-0.061744\n"

	s, ok := ByName("regossip-heartbeat")
	if !ok {
		t.Fatal("regossip-heartbeat missing from the bundled suite")
	}
	// The heartbeat must actually recur: one bounded recurring step.
	recurring := 0
	for _, st := range s.Steps {
		if st.Every > 0 {
			recurring++
			if st.Until == 0 {
				t.Error("recurring regossip without an until bound would never drain")
			}
		}
	}
	if recurring == 0 {
		t.Fatal("regossip-heartbeat has no recurring step")
	}

	cfg := Axes{
		Run: RunConfig{
			Params:            core.Params{N: 600, Fanout: dist.NewPoisson(5), AliveRatio: 1},
			PartialViewCopies: 2,
		},
		Seeds: 4, BaseSeed: 2008, Workers: 3,
	}
	// Worker-count invariance is part of the pinned contract.
	for _, workers := range []int{1, 3} {
		c := cfg
		c.Workers = workers
		res, err := sweepView([]*Scenario{s}, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.CSV(); got != golden {
			t.Errorf("workers=%d: heartbeat sweep summary moved:\ngot:  %s\nwant: %s",
				workers, strings.TrimSpace(got), strings.TrimSpace(golden))
		}
	}
}

// TestHeartbeatRecoversUnderLoss checks the semantic claim behind the
// bundled heartbeat. The campaign's 20% ambient loss thins an effective
// Poisson(3) fanout to ~2.4 — close to the lossy critical point, where a
// single-shot spread fizzles for much of the group. The recurring
// re-gossip wave must recover substantially more of the survivors than
// the identical campaign without the heartbeat.
func TestHeartbeatRecoversUnderLoss(t *testing.T) {
	base := New("no-heartbeat", "loss + crash wave, no recovery").
		At(0, Loss(0.20)).
		At(6e6, CrashFraction(0.15)) // 6ms, same prefix as the heartbeat
	with, _ := ByName("regossip-heartbeat")
	cfg := RunConfig{
		Params:            core.Params{N: 600, Fanout: dist.NewPoisson(3), AliveRatio: 1},
		PartialViewCopies: 2,
	}
	var bare, healed float64
	const seeds = 6
	for seed := uint64(50); seed < 50+seeds; seed++ {
		b, err := Run(base, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Run(with, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		bare += b.SurvivorReliability
		healed += h.SurvivorReliability
	}
	bare /= seeds
	healed /= seeds
	// Measured ~0.48 bare vs ~0.76 healed; leave a wide margin.
	if healed < bare+0.15 {
		t.Errorf("heartbeat recovered little: %.4f without vs %.4f with", bare, healed)
	}
	if healed < 0.70 {
		t.Errorf("heartbeat left survivors at %.4f, want >= 0.70", healed)
	}
}
