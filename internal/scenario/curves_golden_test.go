package scenario

import (
	"strings"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/obs"
)

// TestCrashWaveCurvesGolden pins the probed π(t)/in-flight curve CSV of
// the bundled crash-wave campaign bit for bit — the `gossipscenario run
// -curves csv` output path. Like the sweep-summary goldens, the curves
// are a pure function of (scenario, config, seeds) and must stay
// byte-stable for any worker count; the probe itself must not move the
// underlying results (pinned separately by the facade's probe tests). If
// an intentional substrate change moves these numbers, regenerate the
// constant and say so in the commit.
func TestCrashWaveCurvesGolden(t *testing.T) {
	const golden = `label,t_ms,runs,infected_mean,infected_stddev,inflight_mean,sent_mean,delivered_mean,dropped_loss_mean,dropped_crash_mean,dropped_down_mean,dropped_part_mean
crash-wave,0,2,1,0,0,0,0,0,0,0,0
crash-wave,20,2,33,39.59797974644666,127.5,169,35.5,0,6,0,0
crash-wave,40,2,123.5,91.21677477306463,217.5,618.5,293.5,0,107.5,0,0
crash-wave,60,2,176,38.18376618407357,123,869,545,0,201,0,0
crash-wave,80,2,201.5,4.949747468305833,58,1000.5,693.5,0,249,0,0
crash-wave,100,2,204.5,0.7071067811865476,5,1014,742,0,267,0,0
crash-wave,120,2,204.5,0.7071067811865476,0,1014,746,0,268,0,0
`

	s, ok := ByName("crash-wave")
	if !ok {
		t.Fatal("crash-wave missing from the bundled suite")
	}
	cfg := Axes{
		Run: RunConfig{
			Params:            core.Params{N: 300, Fanout: dist.NewPoisson(5), AliveRatio: 1},
			PartialViewCopies: 2,
		},
		Seeds: 2, BaseSeed: 2008,
		Probe: &obs.Options{CurveTick: 20 * time.Millisecond},
	}
	for _, workers := range []int{1, 3} {
		c := cfg
		c.Workers = workers
		res, err := sweepView([]*Scenario{s}, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.CurvesCSV()
		if err != nil {
			t.Fatal(err)
		}
		if got != golden {
			t.Errorf("workers=%d: crash-wave curves moved:\ngot:\n%s\nwant:\n%s",
				workers, strings.TrimSpace(got), strings.TrimSpace(golden))
		}
	}
}
