package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gossipkit/internal/obs"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
)

// SweepConfig parameterizes a parallel scenario × seed sweep.
type SweepConfig struct {
	// Run configures each individual execution.
	Run RunConfig
	// Seeds is the number of seeded replications per scenario (>= 1).
	Seeds int
	// BaseSeed derives each cell's seed; the full grid is a pure
	// function of it.
	BaseSeed uint64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. The result
	// is identical for any worker count: cells are computed
	// independently (each from its own derived seed) and reduced in a
	// fixed order after the pool drains.
	Workers int
	// Probe, when non-nil, observes every run: each worker builds one
	// pooled obs.Probe from these options (Run.Probe must then be nil —
	// a single probe cannot be shared across workers), per-run Metrics
	// ride on the buffered RunReports, and the per-scenario merges —
	// reduced in cell order, so byte-identical for any worker count —
	// land in SweepResult.Curves.
	Probe *obs.Options
}

// cellSeed derives the seed for scenario si, replication ri. The odd
// multipliers spread the grid over the seed space so neighboring cells
// never share RNG streams.
func (c SweepConfig) cellSeed(si, ri int) uint64 {
	return c.BaseSeed + uint64(si)*0x9e3779b97f4a7c15 + uint64(ri)*0xbf58476d1ce4e5b9 + 1
}

// Summary aggregates the replications of one scenario.
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

// SweepResult is the aggregated outcome of a scenario × seed sweep.
type SweepResult struct {
	N         int       `json:"n"`
	Fanout    string    `json:"fanout"`
	Q         float64   `json:"q"`
	Seeds     int       `json:"seeds"`
	BaseSeed  uint64    `json:"base_seed"`
	Scenarios []Summary `json:"scenarios"`
	// Curves holds one merged telemetry aggregate per scenario (parallel
	// to Scenarios) when the sweep ran under SweepConfig.Probe; nil
	// otherwise. Excluded from the JSON encoding so probed and unprobed
	// sweep JSON stay byte-identical; render with CurvesCSV.
	Curves []*obs.Merged `json:"-"`
}

// CurvesCSV renders the per-scenario merged virtual-time series (π(t),
// in-flight, per-kind counters) as one CSV, scenarios labeled in the
// first column. It errors when the sweep did not run under a probe.
func (r *SweepResult) CurvesCSV() (string, error) {
	if len(r.Curves) == 0 {
		return "", fmt.Errorf("scenario: sweep has no curves; run it with SweepConfig.Probe set")
	}
	var b strings.Builder
	for si, g := range r.Curves {
		if err := g.WriteCurveCSV(&b, r.Scenarios[si].Scenario, si == 0); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// Observer streams completed sweep cells: it is called once per cell, in
// deterministic cell order (cells are numbered in grid order; for SweepCtx,
// cell = si·Seeds + ri), regardless of worker count.
type Observer func(cell int, rep RunReport)

// SweepCtx runs every scenario for cfg.Seeds seeded replications on a
// worker pool and aggregates per-scenario summaries (see sweepPoints, the
// shared cell driver). Results are deterministic in (scenarios, cfg)
// regardless of cfg.Workers. Context cancellation aborts the sweep
// promptly with ctx.Err(); observe, when non-nil, streams per-cell reports
// in deterministic cell order (cell = si·Seeds + ri).
func SweepCtx(ctx context.Context, scenarios []*Scenario, cfg SweepConfig, observe Observer) (*SweepResult, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("scenario: empty sweep")
	}
	if err := CheckShared(cfg.Run); err != nil {
		return nil, err
	}
	if cfg.Seeds < 1 {
		cfg.Seeds = 1
	}
	points := make([]point, len(scenarios))
	for si, s := range scenarios {
		points[si] = point{s, cfg.Run, func(ri int) uint64 { return cfg.cellSeed(si, ri) }}
	}
	sums, curves, err := sweepPoints(ctx, points, cfg.Seeds, cfg.Workers, cfg.Probe, observe)
	if err != nil {
		return nil, err
	}

	out := &SweepResult{
		N:         cfg.Run.Params.N,
		Q:         cfg.Run.Params.AliveRatio,
		Seeds:     cfg.Seeds,
		BaseSeed:  cfg.BaseSeed,
		Scenarios: sums,
		Curves:    curves,
	}
	// Protocol-executor sweeps carry no paper params: the fanout (and N)
	// live in the executor's spec, so the header fields stay zero.
	if cfg.Run.Params.Fanout != nil {
		out.Fanout = cfg.Run.Params.Fanout.Name()
	}
	return out, nil
}

// summarize aggregates one scenario's seeded replications into a Summary.
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

// CheckShared rejects run-config state the sweep workers would mutate
// concurrently: a shared membership view (churn unsubscribes into it), a
// stateful loss model (Gilbert-Elliott advances its channel state on every
// Drop), or one probe for every worker. Every sweep runs it, and the
// facade engines run it as their pre-flight check before dispatching one.
func CheckShared(run RunConfig) error {
	if run.Params.View != nil {
		return fmt.Errorf("scenario: sweep cannot share Params.View across workers; set RunConfig.PartialViewCopies so every run builds its own views")
	}
	if _, stateful := run.Net.Loss.(*simnet.GilbertElliott); stateful {
		return fmt.Errorf("scenario: sweep cannot share a stateful Gilbert-Elliott loss model across workers; install it per run with the burst-loss action")
	}
	if run.Probe != nil {
		return fmt.Errorf("scenario: sweep cannot share one RunConfig.Probe across workers; set SweepConfig.Probe and each worker pools its own")
	}
	return nil
}

// CSV renders the sweep as one row per scenario.
func (r *SweepResult) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,runs,reliability,reliability_stddev,survivor_reliability,spread_ms,mean_messages,mean_up_at_end,static_prediction,effective_prediction,static_gap,effective_gap\n")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "%s,%d,%.6f,%.6f,%.6f,%.3f,%.1f,%.1f,%.6f,%.6f,%.6f,%.6f\n",
			csvField(s.Scenario), s.Runs,
			s.Reliability.Mean, s.Reliability.StdDev, s.SurvivorReliability.Mean,
			s.SpreadMs.Mean, s.MeanMessages, s.MeanUpAtEnd,
			s.StaticPrediction, s.EffectivePrediction, s.StaticGap, s.EffectiveGap)
	}
	return b.String()
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
