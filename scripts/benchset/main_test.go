package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSet writes a one-workload run set as the benchmark's -out does.
func writeSet(t *testing.T, dir, name string, rss, msgs float64, digest string) string {
	t.Helper()
	body := fmt.Sprintf(`{"fingerprint":{"seed":1},"claim":null,"workloads":[{"name":"rumor_1m",`+
		`"metrics":{"peak_rss_mb":{"value":%g,"unit":"MiB"},"msgs_per_s":{"value":%g,"unit":"1/s"}},`+
		`"failed_ops":0,"result_digest":%q}]}`, rss, msgs, digest)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGatherAndVerdict: the gathered file embeds every run set unedited
// in its place, and the verdict reads medians, wins and the gap in each
// metric's better direction, flagging a pair whose digests differ; the
// other run sets get their medians and digests.
func TestGatherAndVerdict(t *testing.T) {
	dir := t.TempDir()
	decl := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(decl, []byte(`{"end_to_end":[{"name":"peak_rss_mb","better":"lower"},{"name":"msgs_per_s","better":"higher"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-pr", "7", "-parent-rev", "aaa", "-change-rev", "bbb", "-claim", "rumor_1m/peak_rss_mb/1",
		"-benchmark", decl, "-o", filepath.Join(dir, "BENCH_7.json")}
	for i, c := range []float64{25, 24, 26, 36} {
		p := writeSet(t, dir, fmt.Sprintf("p%d.json", i), 32+float64(i), 100, "d1")
		digest := "d1"
		if i == 3 {
			digest = "d2"
		}
		args = append(args, "-pair", fmt.Sprintf("parent-first:%s:%s", p, writeSet(t, dir, fmt.Sprintf("c%d.json", i), c, 90, digest)))
	}
	args = append(args, "-other", writeSet(t, dir, "o.json", 1, 1, "d9"))
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"pair 4 rumor_1m: digest d1 → d2",
		"rumor_1m msgs_per_s (seed 1): parent median 100 (IQR 100–100), change median 90; change better in 0/4 pairs; gain -10 against the parent's IQR 0\n",
		"rumor_1m peak_rss_mb (seed 1): parent median 33.5 (IQR 32.75–34.25), change median 25.5; change better in 3/4 pairs; gain 8 against the parent's IQR 1.5  (claimed)\n",
		"other rumor_1m peak_rss_mb (seed 1): median 1 (IQR 1–1) over 1 run sets\n",
		"other rumor_1m (seed 1): digests d9, failed_ops 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verdict lacks %q:\n%s", want, out)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "BENCH_7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "c2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, f.Pairs[2].Change); err != nil {
		t.Fatal(err)
	}
	if f.PR != 7 || f.ParentRev != "aaa" || f.Claim == nil || f.Claim.Seed != 1 || len(f.Pairs) != 4 || len(f.Other) != 1 ||
		f.Pairs[2].Order != "parent-first" || compact.String() != string(raw) {
		t.Errorf("gathered file %+v; pair 3's change %s, want %s", f, compact.String(), raw)
	}
}

// TestBadCommandLine: a missing pair, a malformed pair or claim is exit 2,
// an unreadable run set exit 1.
func TestBadCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-pr", "7"}, 2},
		{[]string{"-pr", "7", "-pair", "p.json:c.json"}, 1},
		{[]string{"-pr", "7", "-pair", "parent-first:missing.json:missing.json"}, 1},
		{[]string{"-pr", "7", "-claim", "rumor_1m/peak_rss_mb", "-pair", "parent-first:a:b"}, 2},
		{[]string{"-pr", "7", "-pair", "parent-first:a:b", "stray"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.code, stderr.String())
		}
	}
}

// TestPairSeedsDiffer: a pair whose two runs were made at different seeds
// is no comparison, so the verdict refuses it (exit 1).
func TestPairSeedsDiffer(t *testing.T) {
	dir := t.TempDir()
	p := writeSet(t, dir, "p.json", 32, 100, "d1")
	c := filepath.Join(dir, "c.json")
	b, err := os.ReadFile(writeSet(t, dir, "c1.json", 25, 100, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c, bytes.Replace(b, []byte(`"seed":1`), []byte(`"seed":2`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-pr", "7", "-benchmark", "../../BENCHMARK.json", "-pair", "parent-first:" + p + ":" + c}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "parent seed 1, change seed 2") {
		t.Errorf("exit %d, stderr %q; want 1 naming both seeds", code, stderr.String())
	}
}
