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
crash-wave,20,2,36,31.11269837220809,134,185.5,41.5,0,10,0,0
crash-wave,40,2,150.5,57.27564927611035,298.5,746.5,323,0,125,0,0
crash-wave,60,2,206,4.242640687119285,109,1042.5,679.5,0,254,0,0
crash-wave,80,2,212,2.8284271247461903,5,1067,777.5,0,284.5,0,0
crash-wave,100,2,212,2.8284271247461903,0,1067,781.5,0,285.5,0,0
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
