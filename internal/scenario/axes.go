package scenario

import (
	"context"
	"fmt"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/runpool"
	"gossipkit/internal/stats"
	"gossipkit/internal/topology"
)

// Axes is one scenario grid: the product topology × protocol × scenario ×
// q × fanout × replication over a base run configuration. An empty axis is
// one unlabeled entry carrying the run's own value, so a plain sweep is the
// product with every optional axis empty, the (scenario × q × fanout) grid
// sets Qs or Fanouts, and the (protocol × scenario) comparison sets
// Executors and, for a third axis, Topologies. Only labeled axes show in a
// Cell and in the CSV.
type Axes struct {
	// Run configures each execution; every cell overrides the fields its
	// labeled axes sweep (Executor, Topology, Params.AliveRatio,
	// Params.Fanout).
	Run RunConfig
	// Executors are the protocol rows, each typically built with
	// NewProtocolExecutor or PaperExecutor. Executors must be stateless
	// values: workers share them across cells.
	Executors []Executor
	// Topologies are the overlay rows.
	Topologies []topology.Spec
	// Qs and Fanouts are the nonfailed ratios and fanout distributions to
	// sweep. They are one pair: when either is set both are labeled, and
	// the empty one is the run's own value.
	Qs      []float64
	Fanouts []dist.Distribution
	// Seeds is the number of seeded replications per cell (>= 1).
	Seeds int
	// BaseSeed derives every cell's seed (see seed); the product is a pure
	// function of it.
	BaseSeed uint64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. The result is
	// identical for any worker count.
	Workers int
	// Probe, when non-nil, observes every run: each worker builds one
	// pooled obs.Probe from these options (Run.Probe must then be nil — a
	// single probe cannot be shared across workers), per-run Metrics ride
	// on the buffered RunReports, and the per-cell merges — reduced in cell
	// order, so byte-identical for any worker count — land in
	// Product.Curves.
	Probe *obs.Options
}

// params reports whether the (q, fanout) pair is a labeled axis.
func (ax Axes) params() bool { return len(ax.Qs) > 0 || len(ax.Fanouts) > 0 }

// seedMul are the odd multipliers that spread the product over the seed
// space, so neighboring cells never share RNG streams.
var seedMul = [4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93}

// seed derives the seed of replication ri at scenario si and (q, fanout)
// point (qi, fi): the indices (si, [qi, fi], ri), the bracketed pair only
// when it is labeled, times seedMul in that order, plus BaseSeed + 1. The
// protocol and topology rows never enter it, so every protocol and overlay
// faces byte-identical campaign randomness (the same crash victims at the
// same instants), and a comparison's paper row reproduces the plain
// sweep's cells.
func (ax Axes) seed(si, qi, fi, ri int) uint64 {
	idx := [4]int{si, ri}
	if ax.params() {
		idx = [4]int{si, qi, fi, ri}
	}
	s := ax.BaseSeed + 1
	for k, i := range idx {
		s += uint64(i) * seedMul[k]
	}
	return s
}

// orOwn is an axis's values, or the run's own value as its one unlabeled
// entry.
func orOwn[T any](vals []T, own T) []T {
	if len(vals) > 0 {
		return vals
	}
	return []T{own}
}

// Cell is one point of the product: the labels of its labeled axes (zero
// for the others) and the aggregate of its replications.
type Cell struct {
	Topology string
	Protocol string
	Q        float64
	Fanout   string
	Summary
}

// Product is the outcome of Axes.Sweep, one Cell per point in product order.
// The SweepResult, GridResult and CompareResult methods cut it into the
// JSON documents the facade and gossipscenario print.
type Product struct {
	// Axes is the product as run: Seeds >= 1, and Qs and Fanouts both
	// filled in when either was set.
	Axes      Axes
	Scenarios []*Scenario
	Cells     []Cell
	// Curves holds one merged telemetry aggregate per cell when the
	// product ran under Axes.Probe; nil otherwise.
	Curves []*obs.Merged
	// ViewHits counts the SCAMP view builds the sweep's memo handed from
	// one protocol row to another instead of running them again.
	ViewHits int
}

// Observer streams completed runs: it is called once per run, in
// deterministic run order (see Axes.Sweep), regardless of worker count.
type Observer func(run int, rep RunReport)

// Sweep replicates every cell of the product for ax.Seeds derived seeds on
// runpool.Replicate and reduces each cell's block of replications into a
// Summary. A worker's state is one run-state arena, recycled across
// heterogeneous cells (core.NetArena leases are result-neutral) and, under
// ax.Probe, one pooled obs.Probe re-attached each run. With two or more
// protocol rows every arena carries the sweep's one membership.ViewMemo:
// the seed leaves the row out, so rows that build the same SCAMP views
// from the same state build them once. Cells are
// data-independent and every reduction runs in run order after the pool
// drains, so the result is byte-identical for any worker count. observe,
// when non-nil, streams per-run reports in run order,
// run = ((((ti·|P|+pi)·|S|+si)·|Q|+qi)·|F|+fi)·Seeds+ri with an empty axis
// counting one; context cancellation aborts promptly with ctx.Err().
func (ax Axes) Sweep(ctx context.Context, scenarios []*Scenario, observe Observer) (*Product, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("scenario: sweep has no scenarios")
	}
	if err := CheckShared(ax.Run); err != nil {
		return nil, err
	}
	ax.Seeds = max(ax.Seeds, 1)
	if ax.params() {
		ax.Qs = orOwn(ax.Qs, ax.Run.Params.AliveRatio)
		ax.Fanouts = orOwn(ax.Fanouts, ax.Run.Params.Fanout)
	}
	type point struct {
		label      Cell
		run        RunConfig
		si, qi, fi int
	}
	var points []point
	for _, t := range orOwn(ax.Topologies, ax.Run.Topology) {
		for _, ex := range orOwn(ax.Executors, ax.Run.Executor) {
			for si := range scenarios {
				for qi, q := range orOwn(ax.Qs, ax.Run.Params.AliveRatio) {
					for fi, f := range orOwn(ax.Fanouts, ax.Run.Params.Fanout) {
						pt := point{run: ax.Run, si: si, qi: qi, fi: fi}
						pt.run.Topology, pt.run.Executor = t, ex
						pt.run.Params.AliveRatio, pt.run.Params.Fanout = q, f
						if len(ax.Topologies) > 0 {
							pt.label.Topology = t.String()
						}
						if len(ax.Executors) > 0 {
							pt.label.Protocol = ex.Protocol()
						}
						if ax.params() {
							pt.label.Q, pt.label.Fanout = q, f.Name()
						}
						points = append(points, pt)
					}
				}
			}
		}
	}

	runs := len(points) * ax.Seeds
	reports := make([]RunReport, runs)
	lats := make([]stats.Running, runs)
	type state struct {
		arena *core.NetArena
		probe *obs.Probe
	}
	type result struct {
		rep RunReport
		lat stats.Running
	}
	var views *membership.ViewMemo
	if len(ax.Executors) > 1 {
		views = new(membership.ViewMemo)
	}
	err := runpool.Replicate(ctx, runs, ax.Workers, func() state {
		st := state{arena: core.NewNetArena()}
		st.arena.Views = views
		if ax.Probe != nil {
			st.probe = obs.New(*ax.Probe)
		}
		return st
	}, func(i int, st state) (result, error) {
		pt := &points[i/ax.Seeds]
		run := pt.run
		run.Probe = st.probe // CheckShared refused a caller-set one
		rep, lat, err := runWithLatency(scenarios[pt.si], run, ax.seed(pt.si, pt.qi, pt.fi, i%ax.Seeds), st.arena)
		return result{rep, lat}, err
	}, func(i int, r result) {
		reports[i], lats[i] = r.rep, r.lat
		if observe != nil {
			observe(i, r.rep)
		}
	})
	if err != nil {
		return nil, err
	}

	p := &Product{Axes: ax, Scenarios: scenarios, Cells: make([]Cell, len(points)), ViewHits: views.Hits()}
	for pi, pt := range points {
		lo, hi := pi*ax.Seeds, (pi+1)*ax.Seeds
		p.Cells[pi] = pt.label
		p.Cells[pi].Summary = summarize(scenarios[pt.si], reports[lo:hi], lats[lo:hi])
		if ax.Probe != nil {
			// Merged in run order: the merge is order-sensitive, and this
			// fixed order keeps the curves byte-identical for any worker
			// count.
			g := &obs.Merged{}
			for _, rep := range reports[lo:hi] {
				g.Merge(rep.Metrics)
			}
			p.Curves = append(p.Curves, g)
		}
	}
	return p, nil
}

// CheckShared rejects run-config state the sweep workers would mutate
// concurrently: a shared membership view (churn unsubscribes into it) or
// one probe for every worker. Axes.Sweep runs it, and the facade engines
// run it as their pre-flight check before dispatching one.
func CheckShared(run RunConfig) error {
	if run.Params.View != nil {
		return fmt.Errorf("scenario: sweep cannot share Params.View across workers; set RunConfig.PartialViewCopies so every run builds its own views")
	}
	if run.Probe != nil {
		return fmt.Errorf("scenario: sweep cannot share one RunConfig.Probe across workers; set Axes.Probe and each worker pools its own")
	}
	return nil
}

// Summary aggregates the replications of one cell.
type Summary struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Runs        int    `json:"runs"`
	// Reliability aggregates delivered/initially-alive across runs.
	Reliability Moments `json:"reliability"`
	// SurvivorReliability aggregates delivery over campaign survivors.
	SurvivorReliability Moments `json:"survivor_reliability"`
	// SpreadMs aggregates last-first-receipt times.
	SpreadMs Moments `json:"spread_ms"`
	// MeanMessages is the mean number of gossip sends per run.
	MeanMessages float64 `json:"mean_messages"`
	// MeanUpAtEnd is the mean surviving-member count.
	MeanUpAtEnd float64 `json:"mean_up_at_end"`
	// Latency merges the per-run delivery-latency accumulators
	// (stats.Running.Merge) across all replications.
	Latency LatencySummary `json:"latency"`
	// StaticPrediction is Eq. 11 at the initial q.
	StaticPrediction float64 `json:"static_prediction"`
	// EffectivePrediction is the mean of Eq. 11 at each run's end-of-run
	// up fraction.
	EffectivePrediction float64 `json:"effective_prediction"`
	// CorrectedPrediction is the mean giant-component-corrected Eq. 11
	// prediction over the runs' overlays at their end-of-run up
	// fractions (RunReport.CorrectedPrediction). Zero — and omitted from
	// JSON — on uniform-topology sweeps, keeping their goldens
	// byte-identical.
	CorrectedPrediction float64 `json:"corrected_prediction,omitempty"`
	// StaticGap and EffectiveGap are measured-minus-predicted
	// reliability: where the static-q model breaks, StaticGap is large
	// while EffectiveGap shrinks (the model is fine, the q it was fed
	// was not); where both are large, the time-varying process itself
	// (partitions, bursts, timing) defeats the model.
	StaticGap    float64 `json:"static_gap"`
	EffectiveGap float64 `json:"effective_gap"`
}

// Moments is the flattened form of a stats.Running accumulator.
type Moments struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	CI95   float64 `json:"ci95"`
}

func moments(r stats.Running) Moments {
	return Moments{Mean: r.Mean(), StdDev: r.StdDev(), Min: r.Min(), Max: r.Max(), CI95: r.CI95()}
}

// summarize aggregates one cell's seeded replications into a Summary.
func summarize(s *Scenario, reports []RunReport, lats []stats.Running) Summary {
	var rel, srel, spread, msgs, up, eff, corr stats.Running
	var lat stats.Running
	sum := Summary{Scenario: s.Name, Description: s.Description}
	for ri, rep := range reports {
		rel.Add(rep.Reliability)
		srel.Add(rep.SurvivorReliability)
		spread.Add(rep.SpreadMs)
		msgs.Add(float64(rep.MessagesSent))
		up.Add(float64(rep.UpAtEnd))
		eff.Add(rep.EffectivePrediction)
		corr.Add(rep.CorrectedPrediction)
		lat.Merge(lats[ri])
		sum.StaticPrediction = rep.StaticPrediction
	}
	sum.Runs = rel.N()
	sum.Reliability = moments(rel)
	sum.SurvivorReliability = moments(srel)
	sum.SpreadMs = moments(spread)
	sum.MeanMessages = msgs.Mean()
	sum.MeanUpAtEnd = up.Mean()
	sum.Latency = LatencySummary{N: lat.N(), MeanMs: lat.Mean() * 1e3, MaxMs: lat.Max() * 1e3}
	sum.EffectivePrediction = eff.Mean()
	sum.CorrectedPrediction = corr.Mean()
	sum.StaticGap = rel.Mean() - sum.StaticPrediction
	sum.EffectiveGap = srel.Mean() - sum.EffectivePrediction
	return sum
}
