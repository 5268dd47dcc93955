package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gossipkit/internal/obs"
)

// This file cuts a Product into the three JSON documents its callers
// print — a sweep (no labeled axis), a (scenario × q × fanout) grid and a
// (protocol × scenario [× topology]) comparison — and renders every one of
// them through the one CSV writer.

// SweepResult is the view of a product with no labeled axis: one Summary
// per scenario.
type SweepResult struct {
	N         int       `json:"n"`
	Fanout    string    `json:"fanout"`
	Q         float64   `json:"q"`
	Seeds     int       `json:"seeds"`
	BaseSeed  uint64    `json:"base_seed"`
	Scenarios []Summary `json:"scenarios"`
	// Curves holds one merged telemetry aggregate per scenario (parallel
	// to Scenarios) when the sweep ran under Axes.Probe; nil otherwise.
	// Excluded from the JSON encoding so probed and unprobed sweep JSON
	// stay byte-identical; render with CurvesCSV.
	Curves []*obs.Merged `json:"-"`
}

// SweepResult returns the product's sweep view.
func (p *Product) SweepResult() *SweepResult {
	params := p.Axes.Run.Params
	r := &SweepResult{N: params.N, Q: params.AliveRatio, Seeds: p.Axes.Seeds, BaseSeed: p.Axes.BaseSeed, Curves: p.Curves}
	// Protocol-executor sweeps carry no paper params: the fanout (and N)
	// live in the executor's spec, so the header fields stay zero.
	if params.Fanout != nil {
		r.Fanout = params.Fanout.Name()
	}
	for _, c := range p.Cells {
		r.Scenarios = append(r.Scenarios, c.Summary)
	}
	return r
}

// GridCell is the aggregate of one (scenario, q, fanout) grid point.
type GridCell struct {
	Q      float64 `json:"q"`
	Fanout string  `json:"fanout"`
	Summary
}

// GridResult is the view of a product with a labeled (q, fanout) pair, in
// (scenario, q, fanout) order.
type GridResult struct {
	N        int        `json:"n"`
	Seeds    int        `json:"seeds"`
	BaseSeed uint64     `json:"base_seed"`
	Qs       []float64  `json:"qs"`
	Fanouts  []string   `json:"fanouts"`
	Cells    []GridCell `json:"cells"`
}

// GridResult returns the product's (scenario × q × fanout) view.
func (p *Product) GridResult() *GridResult {
	r := &GridResult{N: p.Axes.Run.Params.N, Seeds: p.Axes.Seeds, BaseSeed: p.Axes.BaseSeed, Qs: p.Axes.Qs}
	for _, f := range p.Axes.Fanouts {
		r.Fanouts = append(r.Fanouts, f.Name())
	}
	for _, c := range p.Cells {
		r.Cells = append(r.Cells, GridCell{Q: c.Q, Fanout: c.Fanout, Summary: c.Summary})
	}
	return r
}

// CompareCell is the aggregate of one (protocol, scenario) grid point —
// or, with a topology axis, one (topology, protocol, scenario) point.
type CompareCell struct {
	Protocol string `json:"protocol"`
	// Topology labels the overlay row on three-axis grids; empty on
	// two-axis grids, keeping their JSON byte-identical.
	Topology string `json:"topology,omitempty"`
	Summary
}

// CompareResult is the view of a product with a protocol axis, in
// (topology, protocol, scenario) order (the topology axis is outermost and
// absent on two-axis grids).
type CompareResult struct {
	Seeds     int      `json:"seeds"`
	BaseSeed  uint64   `json:"base_seed"`
	Protocols []string `json:"protocols"`
	Scenarios []string `json:"scenarios"`
	// Topologies labels the overlay axis; empty for two-axis grids.
	Topologies []string      `json:"topologies,omitempty"`
	Cells      []CompareCell `json:"cells"`
}

// CompareResult returns the product's comparison view.
func (p *Product) CompareResult() *CompareResult {
	r := &CompareResult{Seeds: p.Axes.Seeds, BaseSeed: p.Axes.BaseSeed}
	for _, ex := range p.Axes.Executors {
		r.Protocols = append(r.Protocols, ex.Protocol())
	}
	for _, s := range p.Scenarios {
		r.Scenarios = append(r.Scenarios, s.Name)
	}
	for _, t := range p.Axes.Topologies {
		r.Topologies = append(r.Topologies, t.String())
	}
	for _, c := range p.Cells {
		r.Cells = append(r.Cells, CompareCell{Protocol: c.Protocol, Topology: c.Topology, Summary: c.Summary})
	}
	return r
}

// CompareConfig is the comparison grid's configuration: the Axes with
// Executors (and optionally Topologies) set.
type CompareConfig = Axes

// CompareCtx is Axes.Sweep under the name and signature the benchmark's
// ladder calls.
func CompareCtx(ctx context.Context, scenarios []*Scenario, cfg CompareConfig, observe Observer) (*Product, error) {
	return cfg.Sweep(ctx, scenarios, observe)
}

// CSV renders the sweep as one row per scenario.
func (r *SweepResult) CSV() string {
	return writeCSV(len(r.Scenarios), func(i int) Cell { return Cell{Summary: r.Scenarios[i]} }, false, false, false)
}

// CSV renders the full grid, one row per (scenario, q, fanout) cell — the
// regression-tracking format: diffs of this file localize which corner of
// the parameter plane moved.
func (r *GridResult) CSV() string {
	return writeCSV(len(r.Cells), func(i int) Cell {
		return Cell{Q: r.Cells[i].Q, Fanout: r.Cells[i].Fanout, Summary: r.Cells[i].Summary}
	}, false, false, true)
}

// CSV renders the full comparison grid, one row per cell; grids with a
// topology axis gain a `topology` column and the giant-component-corrected
// prediction column.
func (r *CompareResult) CSV() string {
	return writeCSV(len(r.Cells), func(i int) Cell {
		return Cell{Protocol: r.Cells[i].Protocol, Topology: r.Cells[i].Topology, Summary: r.Cells[i].Summary}
	}, true, len(r.Topologies) > 0, false)
}

// writeCSV renders rows cells, row(i) the i-th, fields CSV-escaped, with
// exactly the columns of the labeled axes: a key column per axis
// (protocol, scenario, topology, q, fanout), the shared measurements, the
// model gaps when there is no protocol axis (a baseline has no model to
// miss) and the giant-component-corrected prediction when there is a
// topology axis.
func writeCSV(rows int, row func(i int) Cell, protocol, topology, params bool) string {
	var b strings.Builder
	fprintfIf(&b, protocol, "protocol,")
	b.WriteString("scenario,")
	fprintfIf(&b, topology, "topology,")
	fprintfIf(&b, params, "q,fanout,")
	b.WriteString("runs,reliability,reliability_stddev,survivor_reliability,spread_ms,mean_messages,mean_up_at_end,static_prediction,effective_prediction")
	fprintfIf(&b, !protocol, ",static_gap,effective_gap")
	fprintfIf(&b, topology, ",corrected_prediction")
	b.WriteByte('\n')
	for i := range rows {
		c := row(i)
		fprintfIf(&b, protocol, "%s,", csvField(c.Protocol))
		fmt.Fprintf(&b, "%s,", csvField(c.Scenario))
		fprintfIf(&b, topology, "%s,", csvField(c.Topology))
		fprintfIf(&b, params, "%g,%s,", c.Q, csvField(c.Fanout))
		fmt.Fprintf(&b, "%d,%.6f,%.6f,%.6f,%.3f,%.1f,%.1f,%.6f,%.6f", c.Runs,
			c.Reliability.Mean, c.Reliability.StdDev, c.SurvivorReliability.Mean,
			c.SpreadMs.Mean, c.MeanMessages, c.MeanUpAtEnd,
			c.StaticPrediction, c.EffectivePrediction)
		fprintfIf(&b, !protocol, ",%.6f,%.6f", c.StaticGap, c.EffectiveGap)
		fprintfIf(&b, topology, ",%.6f", c.CorrectedPrediction)
		b.WriteByte('\n')
	}
	return b.String()
}

// fprintfIf writes to b only when on: the column of an axis that may be
// absent.
func fprintfIf(b *strings.Builder, on bool, format string, a ...any) {
	if on {
		fmt.Fprintf(b, format, a...)
	}
}

// csvField escapes one CSV cell per RFC 4180: a field containing commas,
// quotes, or newlines is quoted, with embedded quotes doubled. Fields
// without such characters pass through unchanged, which keeps the bundled
// suite's golden CSVs byte-stable.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CurvesCSV renders the per-scenario merged virtual-time series (π(t),
// in-flight, per-kind counters) as one CSV, scenarios labeled in the
// first column. It errors when the sweep did not run under a probe.
func (r *SweepResult) CurvesCSV() (string, error) {
	if len(r.Curves) == 0 {
		return "", fmt.Errorf("scenario: sweep has no curves; run it with Axes.Probe set")
	}
	var b strings.Builder
	for si, g := range r.Curves {
		if err := g.WriteCurveCSV(&b, r.Scenarios[si].Scenario, si == 0); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// Table renders the sweep as an aligned ASCII table sorted by survivor
// reliability (worst first), with the model gaps called out.
func (r *SweepResult) Table() string {
	rows := append([]Summary(nil), r.Scenarios...)
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].SurvivorReliability.Mean < rows[j].SurvivorReliability.Mean
	})
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: n=%d P=%s q=%g seeds=%d\n", r.N, r.Fanout, r.Q, r.Seeds)
	fmt.Fprintf(&b, "%-18s %5s  %10s %10s  %9s  %9s %9s\n",
		"scenario", "runs", "rel", "survivors", "spread", "static", "eff.gap")
	for _, s := range rows {
		fmt.Fprintf(&b, "%-18s %5d  %10.4f %10.4f  %7.1fms  %9.4f %+9.4f\n",
			s.Scenario, s.Runs, s.Reliability.Mean, s.SurvivorReliability.Mean,
			s.SpreadMs.Mean, s.StaticPrediction, s.EffectiveGap)
	}
	return b.String()
}

// Table renders the comparison as an aligned ASCII matrix: one line per
// protocol × scenario (× topology when that axis is present, with the
// corrected prediction beside it), grouped by scenario, survivor
// reliability and spread side by side.
func (r *CompareResult) Table() string {
	topo := len(r.Topologies) > 0
	var b strings.Builder
	fmt.Fprintf(&b, "comparison: %d protocols x %d scenarios", len(r.Protocols), len(r.Scenarios))
	fprintfIf(&b, topo, " x %d topologies", len(r.Topologies))
	fmt.Fprintf(&b, ", %d seeds\n%-18s %-18s ", r.Seeds, "scenario", "protocol")
	fprintfIf(&b, topo, "%-12s ", "topology")
	fmt.Fprintf(&b, "%10s %10s %9s %12s", "rel", "survivors", "spread", "messages")
	fprintfIf(&b, topo, " %10s", "corrected")
	b.WriteByte('\n')
	// Cells run scenario-minor, so one scenario's rows are every
	// len(Scenarios)-th cell, in (topology, protocol) order.
	for si := range r.Scenarios {
		for i := si; i < len(r.Cells); i += len(r.Scenarios) {
			c := r.Cells[i]
			fmt.Fprintf(&b, "%-18s %-18s ", c.Scenario, c.Protocol)
			fprintfIf(&b, topo, "%-12s ", c.Topology)
			fmt.Fprintf(&b, "%10.4f %10.4f %7.1fms %12.1f", c.Reliability.Mean,
				c.SurvivorReliability.Mean, c.SpreadMs.Mean, c.MeanMessages)
			fprintfIf(&b, topo, " %10.4f", c.CorrectedPrediction)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
