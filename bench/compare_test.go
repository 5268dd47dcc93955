package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func setOf(runS, rss float64, iters summary) runSet {
	return runSet{
		Fingerprint: fingerprint{CPUModel: "cpu A", NProc: 2, GOMAXPROCS: 2},
		Workloads: []workloadResult{{
			Name: "rumor_1m",
			Metrics: map[string]metricValue{
				"setup_s": {3, "s"}, "run_s": {runS, "s"}, "msgs_per_s": {4.4e6 / runS, "1/s"}, "peak_rss_mb": {rss, "MiB"},
			},
			IterationS: &iters,
			SetupS:     &summary{N: 2, Q1: 2.95, Median: 3, Q3: 3.05},
		}},
	}
}

func verdicts(t *testing.T, a, b runSet) map[string]string {
	t.Helper()
	rows, err := compareSets([]runSet{a}, []runSet{b})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r.Metric] = r.Verdict
	}
	return out
}

func TestCompareBounds(t *testing.T) {
	steady := summary{N: 3, Q1: 1.98, Median: 2, Q3: 2.04}
	base := setOf(2.0, 400, steady)

	// Inside every bound, in both directions.
	got := verdicts(t, base, setOf(2.1, 410, steady))
	for m, v := range got {
		if v != verdictOK {
			t.Errorf("%s: %s, want ok", m, v)
		}
	}
	// run_s and msgs_per_s worse by more than their bounds; RSS too.
	got = verdicts(t, base, setOf(2.0*(1+boundOf("run_s")+0.1), 400*(1+boundOf("peak_rss_mb")+0.01), steady))
	for _, m := range []string{"run_s", "msgs_per_s", "peak_rss_mb"} {
		if got[m] != verdictRegression {
			t.Errorf("%s: %s, want %s", m, got[m], verdictRegression)
		}
	}
	if got["setup_s"] != verdictOK {
		t.Errorf("setup_s: %s, want ok", got["setup_s"])
	}
	// A large improvement is never a regression (direction matters for
	// the higher-is-better metric).
	got = verdicts(t, base, setOf(1.0, 200, steady))
	for m, v := range got {
		if v != verdictOK {
			t.Errorf("improvement flagged on %s: %s", m, v)
		}
	}
}

func boundOf(metric string) float64 {
	for _, d := range endToEnd {
		if d.Name == metric {
			return d.Bound
		}
	}
	panic(metric)
}

// TestCompareUnresolved: where a set's own spread exceeds the bound, a
// change of that size cannot be resolved either way.
func TestCompareUnresolved(t *testing.T) {
	steady := summary{N: 3, Q1: 1.98, Median: 2, Q3: 2.04}
	noisy := summary{N: 3, Q1: 1.6, Median: 2, Q3: 2.6} // IQR 50 % of the median
	got := verdicts(t, setOf(2.0, 400, steady), setOf(3.5, 400, noisy))
	if got["run_s"] != verdictUnresolved || got["msgs_per_s"] != verdictUnresolved {
		t.Errorf("noisy timing rows = %s / %s, want unresolved", got["run_s"], got["msgs_per_s"])
	}
	if got["peak_rss_mb"] != verdictOK {
		t.Errorf("peak_rss_mb: %s, want ok (it has no spread of its own)", got["peak_rss_mb"])
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	steady := summary{N: 3, Q1: 1.98, Median: 2, Q3: 2.04}
	a, b := setOf(2, 400, steady), setOf(2, 400, steady)
	for name, mutate := range map[string]func(*fingerprint){
		"cpu model":  func(f *fingerprint) { f.CPUModel = "cpu B" },
		"nproc":      func(f *fingerprint) { f.NProc = 1 },
		"gomaxprocs": func(f *fingerprint) { f.GOMAXPROCS = 4 },
	} {
		other := b
		mutate(&other.Fingerprint)
		if _, err := compareSets([]runSet{a}, []runSet{other}); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("%s mismatch: err = %v, want a refusal", name, err)
		}
	}
	// Fields that do not make timings incomparable may differ.
	other := b
	other.Fingerprint.GitRev, other.Fingerprint.Seed = "abc", 9
	if _, err := compareSets([]runSet{a}, []runSet{other}); err != nil {
		t.Errorf("differing rev/seed refused: %v", err)
	}
	traced := b
	traced.Trace = true
	if _, err := compareSets([]runSet{a}, []runSet{traced}); err == nil {
		t.Error("traced vs untraced compared")
	}
	foreign := b
	foreign.Fingerprint.NProc = 8
	if _, err := compareSets([]runSet{a, foreign}, []runSet{b}); err == nil {
		t.Error("a side pooled run sets of two hosts")
	}
}

// TestCompareRepetitions: a side of several repeated run sets reads as
// their median, and from three repetitions on its spread is the spread
// across them — one disturbed repetition neither regresses the row nor
// hides a real change.
func TestCompareRepetitions(t *testing.T) {
	steady := summary{N: 3, Q1: 1.98, Median: 2, Q3: 2.04}
	base := []runSet{setOf(2.0, 400, steady), setOf(2.02, 400, steady), setOf(1.98, 400, steady)}
	disturbed := []runSet{setOf(2.0, 400, steady), setOf(3.4, 400, steady), setOf(2.04, 400, steady)}
	rows, err := compareSets(base, disturbed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Metric == "run_s" {
			if r.B != 2.04 {
				t.Errorf("side B reads %g, want the median 2.04", r.B)
			}
			if r.Verdict != verdictUnresolved {
				t.Errorf("run_s with one repetition 70 %% off: %s, want unresolved (spread %.2f)", r.Verdict, r.Spread)
			}
		}
	}
	slower := []runSet{setOf(2.9, 400, steady), setOf(3.0, 400, steady), setOf(3.1, 400, steady)}
	rows, err = compareSets(base, slower)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Metric == "run_s" && r.Verdict != verdictRegression {
			t.Errorf("three steady repetitions 50 %% slower: %s, want %s", r.Verdict, verdictRegression)
		}
	}
}

// TestCompareMainExitCodes drives the subcommand end to end on files.
func TestCompareMainExitCodes(t *testing.T) {
	steady := summary{N: 3, Q1: 1.98, Median: 2, Q3: 2.04}
	dir := t.TempDir()
	write := func(name string, s runSet) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, s); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", setOf(2, 400, steady))
	same := write("b.json", setOf(2.05, 401, steady))
	slow := write("c.json", setOf(4, 400, steady))
	otherHost := setOf(2, 400, steady)
	otherHost.Fingerprint.NProc = 64
	foreign := write("d.json", otherHost)

	var out bytes.Buffer
	if code := compareMain([]string{a + "," + same, same}, &out); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "rumor_1m") || !strings.Contains(out.String(), "0 regressions, 0 unresolved") {
		t.Errorf("report lacks the workload row or the tally:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{a, slow}, &out); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("regressed set: exit %d\n%s", code, out.String())
	}
	if code := compareMain([]string{a, foreign}, &out); code != 2 {
		t.Errorf("foreign host: exit %d, want 2", code)
	}
	if code := compareMain([]string{a}, &out); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	if code := compareMain([]string{a, filepath.Join(dir, "missing.json")}, &out); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	_ = os.Remove(a)
}
