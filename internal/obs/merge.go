package obs

import (
	"fmt"
	"io"
	"time"

	"gossipkit/internal/stats"
)

// Series is one virtual-time series merged across replications: Points[i]
// aggregates sample i of every run. Runs of different lengths compose by
// padding: a run shorter than the merged length contributes its final
// value at every later index (cumulative counters and the infected count
// hold their final value after the run drains; the in-flight gauge's
// final value is zero then, so its padding is zero too).
type Series struct {
	// Points aggregates each tick index across runs.
	Points []stats.Running
	// pad accumulates the final value of every merged run, so extending
	// the merged length for a longer run back-fills earlier runs
	// correctly.
	pad stats.Running
}

func (s *Series) merge(vals []int64) {
	for len(s.Points) < len(vals) {
		s.Points = append(s.Points, s.pad)
	}
	var final float64
	if len(vals) > 0 {
		final = float64(vals[len(vals)-1])
	}
	for i := range s.Points {
		if i < len(vals) {
			s.Points[i].Add(float64(vals[i]))
		} else {
			s.Points[i].Add(final)
		}
	}
	s.pad.Add(final)
}

// MergedHist sums one histogram across replications; the fields are
// HistSnapshot's.
type MergedHist HistSnapshot

func (h *MergedHist) merge(s HistSnapshot) {
	if s.Counts == nil {
		return
	}
	if h.BinWidth == 0 {
		h.BinWidth = s.BinWidth
	}
	for len(h.Counts) < len(s.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	for i, c := range s.Counts {
		h.Counts[i] += c
	}
	h.Total += s.Total
}

// Merged aggregates per-run Metrics across replications via
// stats.Running per tick index. Merging is order-sensitive only in the
// usual bit-exactness sense, so callers merge in run order — then the
// result is byte-identical for any worker count, like every other
// reduction in the toolkit.
type Merged struct {
	// Tick is the curve sampling interval (taken from the first run).
	Tick time.Duration
	// Runs counts merged runs; Truncated reports that at least one of
	// them hit its sample cap.
	Runs      int
	Truncated bool
	// The merged virtual-time series; see Metrics for their meanings.
	Infected, InFlight                                  Series
	Sent, Delivered                                     Series
	DroppedLoss, DroppedCrash, DroppedDown, DroppedPart Series
	// The summed histograms.
	Latency, Hops, Fanout MergedHist
}

func (g *Merged) columns() mergedColumns {
	return mergedColumns{
		tick: &g.Tick, runs: &g.Runs, truncated: &g.Truncated,
		series: []*Series{&g.Infected, &g.InFlight, &g.Sent, &g.Delivered,
			&g.DroppedLoss, &g.DroppedCrash, &g.DroppedDown, &g.DroppedPart},
		hists: []*MergedHist{&g.Latency, &g.Hops, &g.Fanout},
	}
}

// Merge folds one run's Metrics into the aggregate; nil is a no-op (a
// skipped run).
func (g *Merged) Merge(m *Metrics) {
	if m != nil {
		g.columns().merge(m.columns())
	}
}

// CurveCSVHeader is the column header WriteCurveCSV emits.
const CurveCSVHeader = "label,t_ms,runs,infected_mean,infected_stddev,inflight_mean,sent_mean,delivered_mean,dropped_loss_mean,dropped_crash_mean,dropped_down_mean,dropped_part_mean\n"

// WriteCurveCSV renders the merged series as CSV, one row per tick,
// labeled with label in the first column (so several merges — one per
// scenario — concatenate into one file). Emit the header once via
// CurveCSVHeader, or let the first call write it with header=true.
func (g *Merged) WriteCurveCSV(w io.Writer, label string, header bool) error {
	return g.columns().writeCurveCSV(w, label, header, CurveCSVHeader)
}

// InfectedMeans returns the mean infected-count curve as a plain slice —
// the series the Eq. 11 overlay experiment compares against the per-round
// prediction.
func (g *Merged) InfectedMeans() []float64 {
	out := make([]float64, len(g.Infected.Points))
	for i := range out {
		out[i] = g.Infected.Points[i].Mean()
	}
	return out
}

// mergedColumns is the replication-side counterpart of columns: pointers
// into a Merged or StreamMerged, in the same column order as the run
// snapshot it aggregates, so the fold and the CSV writer are written once.
type mergedColumns struct {
	tick      *time.Duration
	runs      *int
	truncated *bool
	series    []*Series
	hists     []*MergedHist
}

// merge folds one run's columns into the aggregate.
func (g mergedColumns) merge(m columns) {
	if *g.runs == 0 {
		*g.tick = *m.tick
	}
	*g.runs++
	*g.truncated = *g.truncated || *m.truncated
	for i, s := range g.series {
		s.merge(*m.series[i])
	}
	for i, h := range g.hists {
		h.merge(*m.hists[i])
	}
}

// writeCurveCSV renders the merged series as CSV, one row per tick of the
// first column: label, time, run count, the first column's mean and
// standard deviation, then every other column's mean. head is the header
// line, written first when header is set.
func (g mergedColumns) writeCurveCSV(w io.Writer, label string, header bool, head string) error {
	if header {
		if _, err := io.WriteString(w, head); err != nil {
			return err
		}
	}
	tickMs := float64(*g.tick) / float64(time.Millisecond)
	var row []byte
	for i := range g.series[0].Points {
		lead := &g.series[0].Points[i]
		row = fmt.Appendf(row[:0], "%s,%g,%d,%g,%g", label, float64(i)*tickMs, lead.N(), lead.Mean(), lead.StdDev())
		for _, s := range g.series[1:] {
			var mean float64
			if i < len(s.Points) {
				mean = s.Points[i].Mean()
			}
			row = fmt.Appendf(row, ",%g", mean)
		}
		if _, err := w.Write(append(row, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Quantile is HistSnapshot.Quantile over a run-merged histogram.
func (h MergedHist) Quantile(q float64) time.Duration {
	return HistSnapshot(h).Quantile(q)
}
