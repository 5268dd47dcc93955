// Command benchset gathers the benchmark's run sets into one committed
// file, BENCH_<PR>.json, and prints the verdict a change's numbers are
// quoted from.
//
// Each run set is a file the benchmark wrote with -out (go -C bench run .
// -seed 1 -workload W -out F), embedded unedited. A pair is one parent run
// and one change run of the same workload and seed, made back to back in
// the given order; other run sets (digest checks, seed scans) ride along
// without a verdict.
//
//	go run ./scripts/benchset -pr 56 -parent-rev abc123 -change-rev def456 \
//	    -claim rumor_1m/peak_rss_mb/1 -o BENCH_56.json \
//	    -pair parent-first:p1.json:c1.json -pair change-first:p2.json:c2.json \
//	    -other d1.json
//
// For every workload, end-to-end metric (BENCHMARK.json says which way is
// better) and seed it prints the parent's and the change's medians, the
// pairs the change wins, and the median gap against the parent's
// interquartile range; it also flags a pair whose result digests differ or
// that failed an operation. The other run sets get their medians and
// digests alone. It exits 1 on an unreadable input or a pair whose two
// runs differ in seed, and 2 on a bad command line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// claim names the metric a change claims to improve.
type claim struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Seed     uint64 `json:"seed"`
}

// pair is one parent run set and one change run set, in run order.
type pair struct {
	Order  string          `json:"order"`
	Parent json.RawMessage `json:"parent"`
	Change json.RawMessage `json:"change"`
}

// benchFile is BENCH_<PR>.json.
type benchFile struct {
	PR        int               `json:"pr"`
	ParentRev string            `json:"parent_rev"`
	ChangeRev string            `json:"change_rev"`
	Claim     *claim            `json:"claim"`
	Pairs     []pair            `json:"pairs"`
	Other     []json.RawMessage `json:"other"`
}

// runSet is the part of a benchmark run set the verdict reads.
type runSet struct {
	Fingerprint struct {
		Seed uint64 `json:"seed"`
	} `json:"fingerprint"`
	Workloads []struct {
		Name    string `json:"name"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
		FailedOps    int    `json:"failed_ops"`
		ResultDigest string `json:"result_digest"`
	} `json:"workloads"`
}

// listFlag collects a repeated flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, " ") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchset", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var pairs, others listFlag
	pr := fs.Int("pr", 0, "the change's number, as in BENCH_<pr>.json")
	parentRev := fs.String("parent-rev", "", "the parent commit the parent runs were built from")
	changeRev := fs.String("change-rev", "", "the commit the change runs were built from")
	claimArg := fs.String("claim", "", "workload/metric/seed the change claims to improve (none if empty)")
	bench := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration naming each metric's better direction")
	out := fs.String("o", "", "write the gathered file here (print the verdict only if empty)")
	fs.Var(&pairs, "pair", "order:parent.json:change.json, order parent-first or change-first (repeatable)")
	fs.Var(&others, "other", "a run set to keep without a verdict (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *pr <= 0 || len(pairs) == 0 {
		fmt.Fprintln(stderr, "benchset: want -pr N and at least one -pair, and no arguments")
		return 2
	}
	f := benchFile{PR: *pr, ParentRev: *parentRev, ChangeRev: *changeRev, Other: []json.RawMessage{}}
	if *claimArg != "" {
		c, err := parseClaim(*claimArg)
		if err != nil {
			fmt.Fprintln(stderr, "benchset:", err)
			return 2
		}
		f.Claim = &c
	}
	err := gather(&f, pairs, others)
	var better map[string]string
	if err == nil {
		better, err = directions(*bench)
	}
	if err == nil {
		err = verdict(stdout, f, better)
	}
	if err == nil && *out != "" {
		var b []byte
		if b, err = json.MarshalIndent(f, "", " "); err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchset:", err)
		return 1
	}
	return 0
}

func parseClaim(s string) (claim, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return claim{}, fmt.Errorf("-claim %q: want workload/metric/seed", s)
	}
	seed, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return claim{}, fmt.Errorf("-claim %q: %v", s, err)
	}
	return claim{Workload: parts[0], Metric: parts[1], Seed: seed}, nil
}

// gather reads every named run set into f, unedited.
func gather(f *benchFile, pairs, others []string) error {
	for _, p := range pairs {
		parts := strings.Split(p, ":")
		if len(parts) != 3 || parts[0] != "parent-first" && parts[0] != "change-first" {
			return fmt.Errorf("-pair %q: want parent-first|change-first:parent.json:change.json", p)
		}
		parent, err := readRunSet(parts[1])
		if err != nil {
			return err
		}
		change, err := readRunSet(parts[2])
		if err != nil {
			return err
		}
		f.Pairs = append(f.Pairs, pair{Order: parts[0], Parent: parent, Change: change})
	}
	for _, o := range others {
		raw, err := readRunSet(o)
		if err != nil {
			return err
		}
		f.Other = append(f.Other, raw)
	}
	return nil
}

func readRunSet(path string) (json.RawMessage, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(rs.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads: not a benchmark run set", path)
	}
	return json.RawMessage(b), nil
}

// directions reads each end-to-end metric's better direction.
func directions(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	better := map[string]string{}
	for _, m := range decl.EndToEnd {
		better[m.Name] = m.Better
	}
	if len(better) == 0 {
		return nil, errors.New(path + ": no end_to_end metrics")
	}
	return better, nil
}

// series is one workload's metric at one seed over the pairs.
type series struct{ parent, change []float64 }

// seriesKey names a series: workload, metric and seed.
type seriesKey struct {
	workload, metric string
	seed             uint64
}

func (k seriesKey) String() string {
	return fmt.Sprintf("%s %s (seed %d)", k.workload, k.metric, k.seed)
}

// sortKeys orders keys by workload, metric, then seed.
func sortKeys(keys []seriesKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.metric != b.metric {
			return a.metric < b.metric
		}
		return a.seed < b.seed
	})
}

// verdict prints, per workload, metric and seed, the medians, the
// change's wins and the median gap against the parent's IQR, then every
// pair whose digests differ or that failed an operation, then the other
// run sets' medians and digests.
func verdict(w io.Writer, f benchFile, better map[string]string) error {
	data := map[seriesKey]*series{}
	var keys []seriesKey
	for i, p := range f.Pairs {
		var parent, change runSet
		if err := json.Unmarshal(p.Parent, &parent); err != nil {
			return err
		}
		if err := json.Unmarshal(p.Change, &change); err != nil {
			return err
		}
		seed := parent.Fingerprint.Seed
		if change.Fingerprint.Seed != seed {
			return fmt.Errorf("pair %d: parent seed %d, change seed %d", i+1, seed, change.Fingerprint.Seed)
		}
		for _, pw := range parent.Workloads {
			for _, cw := range change.Workloads {
				if cw.Name != pw.Name {
					continue
				}
				if pw.ResultDigest != cw.ResultDigest || pw.FailedOps != 0 || cw.FailedOps != 0 {
					fmt.Fprintf(w, "pair %d %s: digest %s → %s, failed_ops %d → %d\n",
						i+1, pw.Name, pw.ResultDigest, cw.ResultDigest, pw.FailedOps, cw.FailedOps)
				}
				for name, pm := range pw.Metrics {
					cm, ok := cw.Metrics[name]
					if _, known := better[name]; !ok || !known {
						continue
					}
					k := seriesKey{pw.Name, name, seed}
					if data[k] == nil {
						data[k] = &series{}
						keys = append(keys, k)
					}
					data[k].parent = append(data[k].parent, pm.Value)
					data[k].change = append(data[k].change, cm.Value)
				}
			}
		}
	}
	sortKeys(keys)
	for _, k := range keys {
		s := data[k]
		lower := better[k.metric] == "lower"
		wins := 0
		for i := range s.parent {
			if lower && s.change[i] < s.parent[i] || !lower && s.change[i] > s.parent[i] {
				wins++
			}
		}
		pq1, pmed, pq3 := quartiles(s.parent)
		_, cmed, _ := quartiles(s.change)
		gap := pmed - cmed
		if !lower {
			gap = -gap
		}
		mark := ""
		if f.Claim != nil && f.Claim.Workload == k.workload && f.Claim.Metric == k.metric && f.Claim.Seed == k.seed {
			mark = "  (claimed)"
		}
		fmt.Fprintf(w, "%s: parent median %.4g (IQR %.4g–%.4g), change median %.4g; change better in %d/%d pairs; gain %.4g against the parent's IQR %.4g%s\n",
			k, pmed, pq1, pq3, cmed, wins, len(s.parent), gap, pq3-pq1, mark)
	}
	return others(w, f.Other, better)
}

// others prints, per workload, metric and seed, the median and IQR of the
// other run sets, with the digests and failed operations they reported.
func others(w io.Writer, sets []json.RawMessage, better map[string]string) error {
	values := map[seriesKey][]float64{}
	digests := map[string][]string{}
	failed := map[string]int{}
	var keys []seriesKey
	for _, raw := range sets {
		var rs runSet
		if err := json.Unmarshal(raw, &rs); err != nil {
			return err
		}
		for _, wl := range rs.Workloads {
			id := fmt.Sprintf("%s (seed %d)", wl.Name, rs.Fingerprint.Seed)
			if !slices.Contains(digests[id], wl.ResultDigest) {
				digests[id] = append(digests[id], wl.ResultDigest)
			}
			failed[id] += wl.FailedOps
			for name, m := range wl.Metrics {
				if _, known := better[name]; !known {
					continue
				}
				k := seriesKey{wl.Name, name, rs.Fingerprint.Seed}
				if values[k] == nil {
					keys = append(keys, k)
				}
				values[k] = append(values[k], m.Value)
			}
		}
	}
	sortKeys(keys)
	for _, k := range keys {
		q1, med, q3 := quartiles(values[k])
		fmt.Fprintf(w, "other %s: median %.4g (IQR %.4g–%.4g) over %d run sets\n", k, med, q1, q3, len(values[k]))
	}
	ids := make([]string, 0, len(digests))
	for id := range digests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "other %s: digests %s, failed_ops %d\n", id, strings.Join(digests[id], " "), failed[id])
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolated linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + float64((pos-float64(i))*(s[i+1]-s[i]))
	}
	return at(0.25), at(0.5), at(0.75)
}
