package gossipkit

import (
	"io"

	"gossipkit/internal/obs"
	"gossipkit/internal/simnet"
)

// Dissemination telemetry: WithProbe attaches an internal/obs probe to
// every replication of a discrete-event engine (Network, the protocol
// baselines, and Campaign), sampling virtual-time curves — the infected
// count π(t), the in-flight gauge, per-kind send/deliver/drop counters —
// plus delivery-latency, rounds-to-delivery, and fanout histograms, and
// optionally a bounded event trace.
//
// The contract is zero overhead when off: without WithProbe the hot paths
// run exactly as before (nil-probe hooks compile to a nil check), and the
// probed results are bit-identical to unprobed ones — the probe neither
// consumes RNG streams nor schedules kernel events. Engines that never
// touch the DES substrate (Analytic, MonteCarlo, Success) have nothing to
// observe and silently ignore the option; Campaign's protocol rows and grid
// axes reject it (one merged curve per scenario has no meaning across
// them — run the cells you care about separately).

// ProbeOptions configures dissemination telemetry; the zero value enables
// curves and histograms at default resolution (1ms tick, 64×1ms latency
// bins) with tracing off. See the internal/obs field docs for tuning and
// for disabling individual instruments.
type ProbeOptions = obs.Options

// RunMetrics is one replication's telemetry snapshot (Report.Metrics):
// virtual-time series, histogram snapshots, network totals, and the
// optional event trace.
type RunMetrics = obs.Metrics

// MergedMetrics aggregates RunMetrics across replications
// (Outcome.Metrics): per-tick moments of every series — merged in run
// order, so byte-identical for any WithWorkers count — and summed
// histograms. Render with its WriteCurveCSV.
type MergedMetrics = obs.Merged

// NetTraceEvent is one recorded network event in RunMetrics.Trace.
type NetTraceEvent = simnet.Event

// WithProbe enables dissemination telemetry on a discrete-event engine:
// each replication's Report carries its RunMetrics, and the Outcome
// carries the MergedMetrics across replications. Sweeping engines pool
// one probe per worker, so the per-run cost is re-Attach bookkeeping,
// not allocation.
func WithProbe(opts ProbeOptions) Option {
	return func(o *runOptions) { o.probe = &opts }
}

// WriteChromeTrace renders recorded events (RunMetrics.Trace) as Chrome
// trace-event JSON — load the file at chrome://tracing or in Perfetto.
// Deliveries become complete events spanning send→receipt on the
// receiver's track; drops and sends become instants.
func WriteChromeTrace(w io.Writer, events []NetTraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// WriteTraceCSV renders recorded events (RunMetrics.Trace) as CSV, one
// row per event.
func WriteTraceCSV(w io.Writer, events []NetTraceEvent) error {
	return obs.WriteTraceCSV(w, events)
}

// StartPprof serves net/http/pprof on addr (e.g. "localhost:6060") in the
// background, returning the bound address — pass ":0" for an ephemeral
// port. The cmd binaries wire this behind their -pprof flag.
func StartPprof(addr string) (string, error) { return obs.StartPprof(addr) }
