// Command bench is the repository's benchmark: seven named workloads
// driven through the public facade, four end-to-end metrics measured with
// tracing off, and a per-layer ladder measured by a separate traced run.
// Every later performance or simplicity PR is judged by its numbers, so the
// rule is: a PR that claims a gain may not edit bench/ or BENCHMARK.json.
// A change to the benchmark is its own PR, alters no other code and claims
// no gain (this one does not).
//
// Usage, from the repository root (bench/ is its own module):
//
//	go -C bench run . -seed 1 -out run.json            every workload, end-to-end metrics
//	go -C bench run . -seed 1 -trace 1 -out trace.json every workload, per-layer metrics + span files in bench/out/
//	go -C bench run . -workload rumor_1m -seed 1       one workload (the form the driver uses; it also passes -seconds)
//	go -C bench run . compare A.json B.json            apply the per-metric bounds to two run sets of one host
//
// Flags are -seed, -workload, -trace, -out and the driver's -seconds;
// there are deliberately no size or repetition flags — sizes and iteration
// counts are constants of the benchmark, identical on every commit. The
// last line of standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"}; the process exits non-zero when a check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the nominal time one run
// spends on warm iterations on the build host.
const defaultSeconds = 8

// runSet is the output file: one seed, every workload asked for, traced or
// not, tagged with the host it ran on.
type runSet struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Trace       bool        `json:"trace"`
	Seconds     int         `json:"seconds"`
	// Claim is always null: the benchmark claims no gain.
	Claim     *string          `json:"claim"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		seed    = flag.Uint64("seed", 1, "seed every workload input derives from")
		name    = flag.String("workload", "", "run one workload (default: all seven, in order)")
		trace   = flag.Int("trace", 0, "1 runs the separate traced run and reports the per-layer metrics")
		out     = flag.String("out", "", "write the run set as JSON to this file")
		seconds = flag.Int("seconds", defaultSeconds, "nominal seconds of warm iterations per run (scales the constant iteration counts)")
		role    = flag.String("role", "", "internal: child process role")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d outside [1, 60]", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	if *role != "" {
		if len(selected) != 1 {
			fatal(fmt.Errorf("-role needs -workload"))
		}
		if err := runChild(*role, selected[0], *seed, *seconds, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	set := runSet{Fingerprint: hostFingerprint(*seed), Trace: *trace == 1, Seconds: *seconds}
	printFingerprint(set.Fingerprint)
	for _, w := range selected {
		produce := measureWorkload
		if set.Trace {
			produce = traceWorkload
		}
		res, err := produce(w, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		printWorkload(res)
		set.Workloads = append(set.Workloads, res)
	}
	crossFailures := crossCheck(set.Workloads)
	for _, f := range crossFailures {
		fmt.Println("FAILED cross-check:", f)
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fatal(err)
		}
	}

	// The contract line: one object, last on standard output.
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	final.Failed = len(crossFailures)
	for _, res := range set.Workloads {
		final.Attempted += res.Ops
		final.Failed += res.FailedOps
		for k, v := range res.Metrics {
			if len(set.Workloads) > 1 {
				k = res.Name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// crossCheck applies the checks that need two workloads of one run set:
// the stream pair's mean reliabilities agree within the repo's ±0.05 pin,
// and the sharded kernel sees the alive set the single kernel saw.
func crossCheck(results []workloadResult) []string {
	by := map[string]workloadResult{}
	for _, r := range results {
		if !r.Trace {
			by[r.Name] = r
		}
	}
	var failures []string
	if a, ok := by["stream_perid"]; ok {
		if b, ok := by["stream_batch"]; ok && math.Abs(a.meanReliability-b.meanReliability) > 0.05 {
			failures = append(failures, fmt.Sprintf("stream pair mean reliability %.4f (per-id) vs %.4f (batch) differ by more than 0.05", a.meanReliability, b.meanReliability))
		}
	}
	if a, ok := by["rumor_1m"]; ok {
		if b, ok := by["rumor_1m_sharded"]; ok && a.aliveCount != b.aliveCount {
			failures = append(failures, fmt.Sprintf("alive count %d (single kernel) vs %d (sharded) at one seed", a.aliveCount, b.aliveCount))
		}
	}
	return failures
}

func printFingerprint(fp fingerprint) {
	dirty := ""
	if fp.GitDirty {
		dirty = "+dirty"
	}
	fmt.Printf("host: %s | nproc %d | GOMAXPROCS %d | %s %s/%s | kernel %s | rev %s%s | seed %d | workers %d | shards %d\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.GOOS, fp.GOARCH, fp.Kernel, fp.GitRev, dirty, fp.Seed, fp.Workers, fp.Shards)
}

func printWorkload(r workloadResult) {
	kind := "end-to-end, tracing off"
	if r.Trace {
		kind = "per-layer, traced run"
	}
	fmt.Printf("\nworkload %s (%s)\n", r.Name, kind)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Metrics[k]
		fmt.Printf("  %-40s %14.6g %s%s\n", k, v.Value, v.Unit, sampleNote(r, k))
	}
	fmt.Printf("  ops %d  failed_ops %d  bench.dieouts %d  result_digest %s\n", r.Ops, r.FailedOps, r.Dieouts, r.Digest)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
	for _, u := range r.Unresolved {
		fmt.Println("  unresolved:", u)
	}
	if r.TraceFile != "" {
		fmt.Println("  spans:", r.TraceFile)
	}
}

// sampleNote spells out what a number stands on.
func sampleNote(r workloadResult, metric string) string {
	var s *summary
	var what string
	switch metric {
	case "run_s":
		s, what = r.IterationS, "quietest pass of %d warm iterations, whose whole walls were"
	case "setup_s":
		s, what = r.SetupS, "median of %d cold starts:"
	}
	if s == nil {
		return ""
	}
	note := fmt.Sprintf("   "+what+" min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
	if _, ok := highestPercentile(s.N); !ok {
		note += " (too few samples for any percentile beyond the median)"
	}
	return note
}
