package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // per-layer metrics carry no bound
)

// compareRow is one workload × metric pairing of two run sets.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   float64
	// Worse is how much B is worse than A as a share of A (negative when
	// B is better), in the metric's own direction.
	Worse   float64
	Spread  float64 // the larger of the two sets' own IQR/median for this metric
	Bound   float64
	Verdict string
}

// worsening returns how much b is worse than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies a metric's bound: a row whose own run-to-run spread is
// wider than the bound cannot resolve a change of that size either way.
func judge(d metricDef, worse, spread float64) string {
	switch {
	case d.Bound == 0:
		return verdictInfo
	case spread > d.Bound:
		return verdictUnresolved
	case worse > d.Bound:
		return verdictRegression
	}
	return verdictOK
}

// side is one side of a comparison: one or more run sets of one host, each
// a repetition of the same command.
type side struct {
	fingerprint fingerprint
	trace       bool
	order       []string                    // workload names, first-seen order
	reps        map[string][]workloadResult // repetitions per workload
}

// pool merges repeated run sets into one side, refusing sets that may not
// be set side by side.
func pool(sets []runSet) (side, error) {
	s := side{fingerprint: sets[0].Fingerprint, trace: sets[0].Trace, reps: map[string][]workloadResult{}}
	for _, set := range sets {
		if !set.Fingerprint.sameHost(s.fingerprint) {
			return side{}, refusal(s.fingerprint, set.Fingerprint)
		}
		if set.Trace != s.trace {
			return side{}, fmt.Errorf("refusing to compare a traced run set with an untraced one")
		}
		for _, r := range set.Workloads {
			if _, seen := s.reps[r.Name]; !seen {
				s.order = append(s.order, r.Name)
			}
			s.reps[r.Name] = append(s.reps[r.Name], r)
		}
	}
	return s, nil
}

func refusal(a, b fingerprint) error {
	return fmt.Errorf("refusing to compare: host fingerprints differ (%q nproc %d GOMAXPROCS %d vs %q nproc %d GOMAXPROCS %d); a host gap is not a regression",
		a.CPUModel, a.NProc, a.GOMAXPROCS, b.CPUModel, b.NProc, b.GOMAXPROCS)
}

// value is a side's reading of one metric — the median over its
// repetitions — and its own spread: the IQR/median across repetitions when
// there are at least three, else the widest spread a single run recorded.
func (s side) value(name string, d metricDef) (v, spread float64, ok bool) {
	var vals []float64
	for _, r := range s.reps[name] {
		m, present := r.Metrics[d.Name]
		if !present {
			return 0, 0, false
		}
		vals = append(vals, m.Value)
		spread = max(spread, ownSpread(r, d.Name))
	}
	sum := summarize(vals)
	if sum.N >= 3 {
		spread = sum.spread()
	}
	return sum.Median, spread, sum.N > 0
}

// ownSpread is the IQR/median one run recorded for one metric: the warm
// iterations' for the two timing metrics, the cold starts' for setup_s, and
// nothing for the single-valued peak RSS.
func ownSpread(r workloadResult, metric string) float64 {
	switch metric {
	case "run_s", "msgs_per_s":
		if r.IterationS != nil {
			return r.IterationS.spread()
		}
	case "setup_s":
		if r.SetupS != nil {
			return r.SetupS.spread()
		}
	}
	return 0
}

// compareSets pairs two sides row by row, each workload on its own rows.
// It refuses sides from different hosts or of different kinds.
func compareSets(a, b []runSet) ([]compareRow, error) {
	sa, err := pool(a)
	if err != nil {
		return nil, err
	}
	sb, err := pool(b)
	if err != nil {
		return nil, err
	}
	if !sa.fingerprint.sameHost(sb.fingerprint) {
		return nil, refusal(sa.fingerprint, sb.fingerprint)
	}
	if sa.trace != sb.trace {
		return nil, fmt.Errorf("refusing to compare a traced run set with an untraced one")
	}
	defs := endToEnd
	if sa.trace {
		defs = perLayer
	}
	var rows []compareRow
	for _, name := range sa.order {
		if _, ok := sb.reps[name]; !ok {
			continue
		}
		for _, d := range defs {
			va, spreadA, okA := sa.value(name, d)
			vb, spreadB, okB := sb.value(name, d)
			if !okA || !okB {
				return nil, fmt.Errorf("workload %s: metric %s missing from one of the sets", name, d.Name)
			}
			row := compareRow{
				Workload: name, Metric: d.Name, Unit: d.Unit, A: va, B: vb, Bound: d.Bound,
				Worse: worsening(d, va, vb), Spread: max(spreadA, spreadB),
			}
			row.Verdict = judge(d, row.Worse, row.Spread)
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the two sides share no workload")
	}
	return rows, nil
}

// compareMain implements `bench compare A.json B.json`, where either side
// may be a comma-separated list of repeated run sets (their medians are
// compared): exit 0 when no row regressed, 1 on a regression, 2 when the
// files cannot be compared.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	var sides [2][]runSet
	for i, list := range args {
		for _, path := range strings.Split(list, ",") {
			var set runSet
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &set)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
				return 2
			}
			sides[i] = append(sides[i], set)
		}
	}
	rows, err := compareSets(sides[0], sides[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	regressions, unresolved := 0, 0
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(w, "\n%s\n", r.Workload)
			last = r.Workload
		}
		bound := ""
		if r.Bound > 0 {
			bound = fmt.Sprintf("bound %.0f%%  own spread %.1f%%", r.Bound*100, r.Spread*100)
		}
		fmt.Fprintf(w, "  %-40s %14.6g -> %14.6g %-6s worse by %+6.1f%%  %-12s %s\n",
			r.Metric, r.A, r.B, r.Unit, r.Worse*100, r.Verdict, bound)
		switch r.Verdict {
		case verdictRegression:
			regressions++
		case verdictUnresolved:
			unresolved++
		}
	}
	fmt.Fprintf(w, "\n%d rows: %d regressions, %d unresolved (own spread wider than the bound)\n", len(rows), regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}
