package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// Load shape: a host-side closed loop, one process at a time. The parent
// re-executes this binary once per child role so that peak RSS and heap
// state belong to one workload, and so that set-up is paid from a cold
// process every time it is measured.
const (
	roleSetup   = "setup"   // cold iteration 0 only, under the stop-the-world collector: set-up time and peak RSS
	roleMeasure = "measure" // cold iteration 0, then the warm iterations: set-up time and the timing metrics
	roleLadder  = "ladder"  // the traced run: spans plus per-layer replays
)

// stwCollector makes the setup child's collector stop the world. Under the
// default concurrent collector ru_maxrss is decided by how far two busy
// workers out-allocate a mark phase that the host's other tenants slow
// down: fig5_model read 15–31 MiB from run to run, and 12.4–13.0 MiB with
// this set. Peak RSS is therefore taken from this child, which makes it the
// memory the workload demands rather than the memory a noisy host let it
// overshoot to; the timing metrics come from the measure child, which runs
// the collector as users do.
const stwCollector = "GODEBUG=gcstoptheworld=1"

// childResult is what a child prints as its last line of standard output.
type childResult struct {
	Workload      string      `json:"workload"`
	Role          string      `json:"role"`
	ColdEndUnixNs int64       `json:"cold_end_unix_ns"`
	Iterations    []iteration `json:"iterations"` // index 0 is the cold one
	Ops           int         `json:"ops"`
	FailedOps     int         `json:"failed_ops"`
	Dieouts       int         `json:"dieouts"`
	Failures      []string    `json:"failures,omitempty"`
	Digest        string      `json:"result_digest"`
	MaxRSSKB      int64       `json:"max_rss_kb"`
	// MeanReliability and AliveCount let the parent cross-check workload
	// pairs (stream wire formats, single vs sharded kernel).
	MeanReliability float64 `json:"mean_reliability"`
	AliveCount      int     `json:"alive_count"`
	// Layer metrics and the span file, ladder role only.
	Layers     map[string]float64 `json:"layers,omitempty"`
	Unresolved []string           `json:"unresolved,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

// runChild is the body of a re-executed process.
func runChild(role string, w workload, seed uint64, seconds int, stdout io.Writer) error {
	procs := benchProcs()
	runtime.GOMAXPROCS(procs)
	e := &env{
		ctx: context.Background(), sz: fullSizes, seed: seed,
		workers: procs, shards: benchShards(procs), col: newCollector(),
	}
	res := childResult{Workload: w.name, Role: role}
	switch role {
	case roleSetup:
		if err := w.run(e, 0); err != nil {
			return err
		}
	case roleMeasure:
		if err := w.run(e, w.warmIters(seconds)); err != nil {
			return err
		}
	case roleLadder:
		layers, unresolved, traceFile, err := runLadder(e, w)
		if err != nil {
			return err
		}
		res.Layers, res.Unresolved, res.TraceFile = layers, unresolved, traceFile
	default:
		return fmt.Errorf("unknown role %q", role)
	}
	c := e.col
	res.ColdEndUnixNs = c.coldEnd.UnixNano()
	res.Iterations = c.iters
	res.Ops, res.FailedOps, res.Dieouts = c.ops, c.failedOps, c.dieouts
	res.Failures = c.failures
	res.Digest = c.digestString()
	if c.relN > 0 {
		res.MeanReliability = c.relSum / float64(c.relN)
	}
	res.AliveCount = c.aliveCount
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	res.MaxRSSKB = int64(ru.Maxrss) // KiB on Linux
	return json.NewEncoder(stdout).Encode(res)
}

// spawn re-executes this binary in the given role and decodes the result
// it prints. t0 is taken before the process exists: set-up time includes
// process start, runtime init and first-touch faults.
func spawn(role string, w workload, seed uint64, seconds int) (res childResult, t0 time.Time, err error) {
	exe, err := os.Executable()
	if err != nil {
		return res, t0, fmt.Errorf("locating own binary: %w", err)
	}
	cmd := exec.Command(exe, "-role", role, "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds))
	if role == roleSetup {
		cmd.Env = append(os.Environ(), stwCollector)
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 = time.Now()
	if err := cmd.Run(); err != nil {
		return res, t0, fmt.Errorf("%s child of %s: %w", role, w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, t0, fmt.Errorf("%s child of %s printed no result: %w", role, w.name, err)
	}
	return res, t0, nil
}

// workloadResult is one workload's record in the output file.
type workloadResult struct {
	Name    string                 `json:"name"`
	Trace   bool                   `json:"trace"`
	Metrics map[string]metricValue `json:"metrics"`
	// IterationS summarizes the whole warm iterations' wall times (run_s
	// is their quietPass); SetupS the cold starts. With this few samples
	// the median is the only percentile that has samples beyond it (see
	// highestPercentile).
	IterationS *summary `json:"iteration_s_samples,omitempty"`
	SetupS     *summary `json:"setup_s_samples,omitempty"`
	Ops        int      `json:"ops"`
	FailedOps  int      `json:"failed_ops"`
	Dieouts    int      `json:"dieouts"`
	Failures   []string `json:"failures,omitempty"`
	Digest     string   `json:"result_digest"`
	Unresolved []string `json:"unresolved,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`

	meanReliability float64
	aliveCount      int
}

// measureWorkload produces one workload's end-to-end metrics from two cold
// processes: the setup child, then the measure child. setup_s is the median
// of their two cold starts; a third would cost another 4 s on the n=10⁶
// workloads and the driver's 22 runs per workload would not fit.
func measureWorkload(w workload, seed uint64, seconds int) (workloadResult, error) {
	var setups []float64
	var peakKB int64
	var m childResult
	for _, role := range []string{roleSetup, roleMeasure} {
		res, t0, err := spawn(role, w, seed, seconds)
		if err != nil {
			return workloadResult{}, err
		}
		setups = append(setups, time.Unix(0, res.ColdEndUnixNs).Sub(t0).Seconds())
		if role == roleSetup {
			peakKB = res.MaxRSSKB
		}
		m = res
	}
	warm := m.Iterations[1:]
	var walls []float64
	var msgs float64
	for _, it := range warm {
		walls = append(walls, it.WallS)
		msgs += float64(it.Msgs)
	}
	runS := quietPass(warm)
	ws, ss := summarize(walls), summarize(setups)
	return workloadResult{
		Name: w.name,
		Metrics: map[string]metricValue{
			"setup_s":     {ss.Median, "s"},
			"run_s":       {runS, "s"},
			"msgs_per_s":  {msgs / float64(len(warm)) / runS, "1/s"},
			"peak_rss_mb": {float64(peakKB) / 1024, "MiB"},
		},
		IterationS: &ws, SetupS: &ss,
		Ops: m.Ops, FailedOps: m.FailedOps, Dieouts: m.Dieouts, Failures: m.Failures, Digest: m.Digest,
		meanReliability: m.MeanReliability, aliveCount: m.AliveCount,
	}, nil
}

// quietPass is the benchmark's estimate of one warm iteration's wall time
// on an undisturbed host: for every facade call the iteration makes, the
// quickest of its warm repetitions, summed (for a one-call iteration, the
// quickest iteration). Interference from other tenants only ever adds
// time, in bursts shorter than an iteration; on the build host the median
// iteration moved by 15–30 % between back-to-back runs of one binary while
// this sum moved by a third of that (bench/README.md has the series).
func quietPass(warm []iteration) float64 {
	quickest := func(of func(iteration) float64) float64 {
		best := of(warm[0])
		for _, it := range warm {
			best = min(best, of(it))
		}
		return best
	}
	if len(warm[0].Calls) == 0 {
		return quickest(func(it iteration) float64 { return it.WallS })
	}
	var sum float64
	for c := range warm[0].Calls {
		sum += quickest(func(it iteration) float64 { return it.Calls[c] })
	}
	return sum
}

// traceWorkload produces one workload's per-layer metrics from the
// separate traced run.
func traceWorkload(w workload, seed uint64, seconds int) (workloadResult, error) {
	res, _, err := spawn(roleLadder, w, seed, seconds)
	if err != nil {
		return workloadResult{}, err
	}
	metrics := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		v, ok := res.Layers[d.Name]
		if !ok {
			return workloadResult{}, fmt.Errorf("traced run of %s did not emit %s", w.name, d.Name)
		}
		metrics[d.Name] = metricValue{v, d.Unit}
	}
	return workloadResult{
		Name: w.name, Trace: true, Metrics: metrics,
		Ops: res.Ops, FailedOps: res.FailedOps, Dieouts: res.Dieouts, Failures: res.Failures, Digest: res.Digest,
		Unresolved: res.Unresolved, TraceFile: res.TraceFile,
	}, nil
}
