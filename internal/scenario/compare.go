package scenario

import (
	"context"
	"fmt"
	"strings"

	"gossipkit/internal/core"
	"gossipkit/internal/protocols"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// This file is the (protocol × scenario) comparison grid: every campaign
// in a suite run against every protocol executor — the paper's own
// algorithm next to the six related-work baselines, all on the same
// kernel+simnet substrate, so "how does pbcast weather the crash wave that
// the paper's algorithm shrugs off?" is one sweep instead of two
// simulators.

// NewProtocolExecutor wraps a baseline protocol spec (protocols.PbcastParams,
// LpbcastParams, AntiEntropyParams, RDGParams, LRGParams, FloodingParams)
// as a scenario Executor on the shared DES runtime: the campaign's crashes,
// partitions, loss episodes, and publishes inject through the same NetRun
// seam as paper runs. The executor ignores RunConfig.Params — the protocol
// spec carries its own group size and parameters — and has no analytic
// model (Predict always reports ok=false).
func NewProtocolExecutor(spec protocols.Spec) Executor {
	return protocolExecutor{spec: spec}
}

// PaperExecutor returns the paper's-algorithm executor with an explicit
// protocol label for comparison rows (the default, unlabeled executor
// keeps single-protocol sweep output byte-stable by labeling rows "").
func PaperExecutor(label string) Executor { return paperExecutor{label: label} }

type protocolExecutor struct {
	spec protocols.Spec
}

func (e protocolExecutor) Protocol() string { return e.spec.Protocol() }

func (e protocolExecutor) Shape(RunConfig) (int, int) { return protocols.Shape(e.spec) }

func (e protocolExecutor) Execute(cfg RunConfig, r *xrand.RNG, inject func(*core.NetRun), arena *core.NetArena) (core.NetResult, error) {
	des := protocols.DESConfig{Net: cfg.Net, RoundInterval: cfg.RoundInterval, Probe: cfg.Probe,
		Topology: cfg.Topology}
	out, err := protocols.RunOnDES(e.spec, des, r, inject, arena)
	return out.NetResult, err
}

func (protocolExecutor) Predict(RunConfig, float64) (float64, bool) { return 0, false }

// CompareConfig parameterizes a (protocol × scenario) comparison grid.
type CompareConfig struct {
	// Run configures each execution. Run.Executor is ignored — the grid
	// supplies each row's executor from Executors.
	Run RunConfig
	// Executors are the protocol rows of the grid, each typically built
	// with NewProtocolExecutor or PaperExecutor. Executors must be
	// stateless values: workers share them across cells.
	Executors []Executor
	// Seeds is the number of seeded replications per cell (>= 1).
	Seeds int
	// BaseSeed derives each cell's seed; the grid is a pure function of
	// it. A cell's seed depends only on (scenario, replication) — NOT on
	// the protocol row — so every protocol faces byte-identical campaign
	// randomness (the same crash victims at the same instants), and the
	// paper row reproduces the single-protocol SweepCtx cells exactly.
	BaseSeed uint64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. The result
	// is identical for any worker count.
	Workers int
	// Topologies, when non-empty, adds a topology axis: every
	// (protocol, scenario) pair runs once per overlay spec, labeled in
	// CompareCell.Topology and as a `topology` CSV column (plus the
	// giant-component-corrected prediction column). Empty keeps the
	// two-axis grid and its CSV byte-identical. Like the protocol row,
	// the topology row does NOT perturb cell seeds, so every
	// (protocol, topology) pair faces byte-identical campaign
	// randomness.
	Topologies []topology.Spec
}

// cellSeed derives the seed for scenario si, replication ri — delegating
// to SweepConfig's derivation so the paper row's seed parity with
// single-protocol sweeps holds by construction, and independent of the
// protocol row (see CompareConfig.BaseSeed).
func (c CompareConfig) cellSeed(si, ri int) uint64 {
	return SweepConfig{BaseSeed: c.BaseSeed}.cellSeed(si, ri)
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

// CompareResult is the aggregated outcome of a comparison grid, in
// (topology, protocol, scenario) order (the topology axis is outermost
// and absent on two-axis grids).
type CompareResult struct {
	Seeds     int      `json:"seeds"`
	BaseSeed  uint64   `json:"base_seed"`
	Protocols []string `json:"protocols"`
	Scenarios []string `json:"scenarios"`
	// Topologies labels the overlay axis; empty for two-axis grids.
	Topologies []string      `json:"topologies,omitempty"`
	Cells      []CompareCell `json:"cells"`
}

// CompareCtx runs every scenario against every executor for cfg.Seeds
// seeded replications on a worker pool (see sweepPoints, the shared cell
// driver), each worker recycling one run-state arena across heterogeneous
// protocol runs (core.NetArena leases are result-neutral). Like the sweeps,
// the result is deterministic in (scenarios, cfg) for any cfg.Workers.
// Context cancellation aborts promptly with ctx.Err(); observe, when
// non-nil, streams per-cell reports in deterministic cell order
// (cell = ((ti·|executors|+pi)·|scenarios|+si)·Seeds+ri, with ti always 0
// on two-axis grids).
func CompareCtx(ctx context.Context, scenarios []*Scenario, cfg CompareConfig, observe Observer) (*CompareResult, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("scenario: comparison grid has no scenarios")
	}
	if len(cfg.Executors) == 0 {
		return nil, fmt.Errorf("scenario: comparison grid has no executors")
	}
	if err := CheckShared(cfg.Run); err != nil {
		return nil, err
	}
	// A nil Topologies axis is one implicit row carrying the run config's
	// own topology (usually uniform), so the two-axis grid is the
	// three-axis grid with a single unlabeled topology row.
	topos := cfg.Topologies
	labeled := len(topos) > 0
	if !labeled {
		topos = []topology.Spec{cfg.Run.Topology}
	}
	if cfg.Seeds < 1 {
		cfg.Seeds = 1
	}
	// Points in (topology, protocol, scenario) order, so
	// cell = ((ti*len(Executors)+pi)*len(scenarios)+si)*Seeds+ri.
	var points []point
	for _, t := range topos {
		for _, ex := range cfg.Executors {
			for si, s := range scenarios {
				run := cfg.Run
				run.Executor = ex
				run.Topology = t
				points = append(points, point{s, run, func(ri int) uint64 { return cfg.cellSeed(si, ri) }})
			}
		}
	}
	sums, _, err := sweepPoints(ctx, points, cfg.Seeds, cfg.Workers, nil, observe)
	if err != nil {
		return nil, err
	}

	out := &CompareResult{Seeds: cfg.Seeds, BaseSeed: cfg.BaseSeed}
	for _, ex := range cfg.Executors {
		out.Protocols = append(out.Protocols, ex.Protocol())
	}
	for _, s := range scenarios {
		out.Scenarios = append(out.Scenarios, s.Name)
	}
	if labeled {
		for _, t := range topos {
			out.Topologies = append(out.Topologies, t.String())
		}
	}
	for pi, pt := range points {
		cell := CompareCell{Protocol: pt.run.Executor.Protocol(), Summary: sums[pi]}
		if labeled {
			cell.Topology = pt.run.Topology.String()
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// CSV renders the full comparison grid, one row per (protocol, scenario)
// cell, fields CSV-escaped. Two-axis grids keep the historical header
// byte-identical; grids with a topology axis gain a `topology` column
// and the giant-component-corrected prediction column.
func (r *CompareResult) CSV() string {
	var b strings.Builder
	if len(r.Topologies) == 0 {
		b.WriteString("protocol,scenario,runs,reliability,reliability_stddev,survivor_reliability,spread_ms,mean_messages,mean_up_at_end,static_prediction,effective_prediction\n")
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "%s,%s,%d,%.6f,%.6f,%.6f,%.3f,%.1f,%.1f,%.6f,%.6f\n",
				csvField(c.Protocol), csvField(c.Scenario), c.Runs,
				c.Reliability.Mean, c.Reliability.StdDev, c.SurvivorReliability.Mean,
				c.SpreadMs.Mean, c.MeanMessages, c.MeanUpAtEnd,
				c.StaticPrediction, c.EffectivePrediction)
		}
		return b.String()
	}
	b.WriteString("protocol,scenario,topology,runs,reliability,reliability_stddev,survivor_reliability,spread_ms,mean_messages,mean_up_at_end,static_prediction,effective_prediction,corrected_prediction\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%s,%s,%s,%d,%.6f,%.6f,%.6f,%.3f,%.1f,%.1f,%.6f,%.6f,%.6f\n",
			csvField(c.Protocol), csvField(c.Scenario), csvField(c.Topology), c.Runs,
			c.Reliability.Mean, c.Reliability.StdDev, c.SurvivorReliability.Mean,
			c.SpreadMs.Mean, c.MeanMessages, c.MeanUpAtEnd,
			c.StaticPrediction, c.EffectivePrediction, c.CorrectedPrediction)
	}
	return b.String()
}

// Table renders the grid as an aligned ASCII matrix: one line per
// protocol × scenario (× topology when that axis is present), grouped by
// scenario, survivor reliability and spread side by side.
func (r *CompareResult) Table() string {
	var b strings.Builder
	if len(r.Topologies) == 0 {
		fmt.Fprintf(&b, "comparison: %d protocols x %d scenarios, %d seeds\n",
			len(r.Protocols), len(r.Scenarios), r.Seeds)
		fmt.Fprintf(&b, "%-18s %-18s %10s %10s %9s %12s\n",
			"scenario", "protocol", "rel", "survivors", "spread", "messages")
		for si, sc := range r.Scenarios {
			for pi, pr := range r.Protocols {
				c := r.Cells[pi*len(r.Scenarios)+si]
				fmt.Fprintf(&b, "%-18s %-18s %10.4f %10.4f %7.1fms %12.1f\n",
					sc, pr, c.Reliability.Mean, c.SurvivorReliability.Mean,
					c.SpreadMs.Mean, c.MeanMessages)
			}
		}
		return b.String()
	}
	fmt.Fprintf(&b, "comparison: %d protocols x %d scenarios x %d topologies, %d seeds\n",
		len(r.Protocols), len(r.Scenarios), len(r.Topologies), r.Seeds)
	fmt.Fprintf(&b, "%-18s %-18s %-12s %10s %10s %9s %12s %10s\n",
		"scenario", "protocol", "topology", "rel", "survivors", "spread", "messages", "corrected")
	np, ns := len(r.Protocols), len(r.Scenarios)
	for si, sc := range r.Scenarios {
		for ti, tp := range r.Topologies {
			for pi, pr := range r.Protocols {
				c := r.Cells[(ti*np+pi)*ns+si]
				fmt.Fprintf(&b, "%-18s %-18s %-12s %10.4f %10.4f %7.1fms %12.1f %10.4f\n",
					sc, pr, tp, c.Reliability.Mean, c.SurvivorReliability.Mean,
					c.SpreadMs.Mean, c.MeanMessages, c.CorrectedPrediction)
			}
		}
	}
	return b.String()
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
