package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// toyEnv is a workload environment at the test suite's toy sizes.
func toyEnv(seed uint64) *env {
	return &env{ctx: context.Background(), sz: toySizes, seed: seed, workers: 2, shards: 2, col: newCollector()}
}

const smokeSeed = 1

// TestWorkloadsSmoke runs all seven workloads at toy scale (n=1000–2000, one
// cold and one warm iteration) with their checks on: no op may fail.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			e := toyEnv(smokeSeed)
			if err := w.run(e, 1); err != nil {
				t.Fatal(err)
			}
			c := e.col
			if c.failedOps != 0 {
				t.Fatalf("failed_ops %d: %v", c.failedOps, c.failures)
			}
			if len(c.iters) != 2 || c.ops == 0 {
				t.Fatalf("%d iterations, %d ops; want 2 iterations", len(c.iters), c.ops)
			}
			for i, it := range c.iters {
				if it.WallS <= 0 || it.Msgs <= 0 {
					t.Errorf("iteration %d: wall %g s, %d msgs", i, it.WallS, it.Msgs)
				}
			}
		})
	}
}

// TestResultDigestRepeats: simulated statistics are deterministic, so two
// runs at one seed print the same digest — on one worker or two kernels —
// and another seed prints another.
func TestResultDigestRepeats(t *testing.T) {
	for _, name := range []string{"rumor_1m", "rumor_1m_sharded"} {
		w, _ := workloadByName(name)
		digest := func(seed uint64) string {
			e := toyEnv(seed)
			if err := w.run(e, 1); err != nil {
				t.Fatal(err)
			}
			return e.col.digestString()
		}
		a, b, c := digest(smokeSeed), digest(smokeSeed), digest(smokeSeed+1)
		if a != b {
			t.Errorf("%s: digests %s and %s at one seed", name, a, b)
		}
		if a == c {
			t.Errorf("%s: digest %s at two seeds", name, a)
		}
	}
}

// TestLadderSmoke runs the traced run at toy scale: every declared
// per-layer metric must come out finite, the must-be-zero counters zero, and
// the span tree well formed.
func TestLadderSmoke(t *testing.T) {
	t.Chdir(t.TempDir()) // the span file goes to ./out
	for _, name := range []string{"rumor_1m"} {
		w, _ := workloadByName(name)
		e := toyEnv(smokeSeed)
		layers, _, traceFile, err := runLadder(e, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range perLayer {
			if _, ok := layers[d.Name]; !ok {
				t.Errorf("%s: %s not emitted", name, d.Name)
			}
		}
		if len(layers) != len(perLayer) {
			t.Errorf("%s: %d metrics emitted, %d declared", name, len(layers), len(perLayer))
		}
		for _, zero := range []string{"facade.result_mismatches", "stream.ledger_open", "simnet.slabs_in_use_end", "simnet.inflight_end"} {
			if layers[zero] != 0 {
				t.Errorf("%s: %s = %g, want 0", name, zero, layers[zero])
			}
		}
		if e.col.failedOps != 0 {
			t.Errorf("%s: failed_ops %d: %v", name, e.col.failedOps, e.col.failures)
		}
		spans := e.rec.spans
		if len(spans) == 0 || spans[0].Parent != -1 {
			t.Fatalf("%s: no root span", name)
		}
		seen := map[string]bool{}
		for i, s := range spans {
			seen[s.Name] = true
			if i > 0 && (s.Parent < 0 || s.Parent >= i) {
				t.Errorf("%s: span %d (%s) has parent %d", name, i, s.Name, s.Parent)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) never ended", name, i, s.Name)
			}
		}
		for _, want := range []string{"iteration", "facade.Run", "ladder", "core.exec", "simnet.send", "sim.calendar"} {
			if !seen[want] {
				t.Errorf("%s: no %q span", name, want)
			}
		}
		data, err := os.ReadFile(traceFile[len("bench/"):])
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("%s: span file is not JSON: %v", name, err)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSONAgreesWithCode: every workload and metric the file
// declares is one the code emits, and vice versa, with the same units,
// directions and bounds; names and units fit the contract's alphabets.
func TestBenchmarkJSONAgreesWithCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("BENCHMARK.json has the extra key %q", key)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %q / code %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: file %+v, code %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v outside the contract", m)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: file %+v, code %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v outside the contract", m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}
