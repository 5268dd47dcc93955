package scenario

import (
	"fmt"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/protocols"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// Executor runs one execution of some dissemination protocol under a
// campaign's injection hook — the seam that lets every bundled campaign
// target any protocol. The default (nil RunConfig.Executor) runs the
// paper's own algorithm via core.ExecuteOnNetworkArena; the facade builds
// executors for the six related-work baselines on top of the protocol DES
// runtime. Executors must be stateless values: a sweep shares one executor
// across workers.
type Executor interface {
	// Protocol labels the executor's rows in reports and the comparison
	// CSV. The default executor returns "" so single-protocol sweep JSON
	// stays byte-stable.
	Protocol() string
	// Shape returns the group size and the protected source member of an
	// execution under cfg.
	Shape(cfg RunConfig) (n, source int)
	// Validate checks the parameters the executor runs on under cfg
	// without running anything.
	Validate(cfg RunConfig) error
	// Execute runs one execution: all protocol randomness derives from r
	// (network jitter from the non-consuming r.Split(0xfeed), or keyed by
	// member in the paper's executor), cfg.Net
	// arrives already resolved (never nil models), inject is called with
	// the run's NetRun after setup and before the protocol starts, and
	// arena (which may be nil) recycles run state.
	Execute(cfg RunConfig, r *xrand.RNG, inject func(*core.NetRun), arena *core.NetArena) (core.NetResult, error)
	// Predict returns the executor's analytic reliability at nonfailed
	// ratio q when it has a model (the paper's Eq. 11 for the default
	// executor); ok=false otherwise.
	Predict(cfg RunConfig, q float64) (pred float64, ok bool)
}

// RunConfig parameterizes scenario executions.
type RunConfig struct {
	// Params is the gossip model under test. AliveRatio is usually 1 for
	// scenario runs — failures come from the campaign, not a static
	// pre-drawn mask — but any q composes with the scenario.
	Params core.Params
	// Net is the network substrate. A nil latency model defaults to
	// uniform 1–20ms delays (rather than simnet's zero-latency default)
	// so that the spread actually extends over simulated time and timed
	// actions can interleave with it.
	Net simnet.Config
	// PartialViewCopies, when > 0, builds fresh SCAMP partial views
	// (membership.NewPartialViews with that many extra subscription
	// copies) for every run. Churn campaigns need this: each run then
	// owns the views its departures mutate. Ignored when Params.View is
	// already set — but beware that a caller-supplied view is shared and
	// mutated across churn runs.
	PartialViewCopies int
	// Executor selects the protocol under the campaign; nil runs the
	// paper's algorithm (Params). Axes.Executors sets it per row.
	Executor Executor
	// Shards is the shard-kernel count core.ExecuteOnNetworkSharded runs
	// the default (paper) executor on. 0 and 1 both mean one shard — the
	// default every existing config and sweep JSON golden was produced on;
	// above that, results are deterministic per shard count and
	// statistically pinned across counts (burst-loss state is per shard,
	// timed actions fire at window barriers). A latency model with no
	// positive floor always runs on one shard. Protocol executors ignore it.
	Shards int
	// RoundInterval paces the round ticks of round-driven protocol
	// executors (the paper's algorithm is purely event-driven and ignores
	// it). Zero defaults per protocols.DESConfig: the latency model's
	// bound when it has one (20ms for the runner's stock 1–20ms uniform
	// latency) — one round's messages land before the next round fires,
	// preserving the baselines' synchronous-round semantics under the
	// runner's latency instead of letting a fast ticker burn the whole
	// round budget while the first hop is still airborne.
	RoundInterval time.Duration
	// Probe, when non-nil, observes each execution (virtual-time curves,
	// latency/hops histograms, optional ring tracing; see internal/obs)
	// and attaches its per-run Metrics snapshot to the RunReport. A probe
	// is single-goroutine state bound to one run at a time: set it for
	// single Run calls only — a sweep builds one pooled probe per worker
	// from Axes.Probe instead. The probe never perturbs the run (no RNG
	// consumption, no kernel events), so reports are bit-identical with it
	// on or off.
	Probe *obs.Probe
	// Topology selects the gossip overlay (internal/topology): the zero
	// value is the paper's uniform selection and leaves every code path
	// and golden byte-identical. A non-uniform spec builds a fresh
	// Overlay per run from a non-consuming split of the run RNG
	// (topology.Split) — deterministic in (spec, seed) for any worker or
	// shard count — and installs it as the membership view, so crashed
	// and churned members vanish from neighbor sets via the overlay's
	// Remove hook. A WAN spec with a nil Net.Latency also installs the
	// default per-zone-pair ZoneLatency matrix. Ignored when Params.View
	// is already set. Being a plain value, it composes with sweeps
	// (CheckShared) where a shared Params.View would not.
	Topology topology.Spec
}

func (c RunConfig) netConfig(n int) simnet.Config {
	cfg := c.Net
	if cfg.Latency == nil {
		if c.Topology.Kind == topology.WAN {
			// Heterogeneous WAN delays over the overlay's zone layout:
			// LAN-fast 1–2ms inside a zone, +10ms of floor per zone of
			// ring distance across. Deterministic (no RNG), so the value
			// is shared safely across sweep workers and shard kernels.
			cfg.Latency = topology.NewZoneLatency(n, c.Topology.Zones,
				time.Millisecond, 10*time.Millisecond)
		} else {
			cfg.Latency = simnet.UniformLatency{Lo: time.Millisecond, Hi: 20 * time.Millisecond}
		}
	}
	return cfg
}

func (c RunConfig) executor() Executor {
	if c.Executor != nil {
		return c.Executor
	}
	return paperExecutor{}
}

// paperExecutor is the default Executor: the paper's general gossiping
// algorithm on core's DES executor. The default (RunConfig.Executor nil)
// instance carries an empty protocol label so existing single-protocol
// sweep output is unchanged; comparison grids label their paper row via
// PaperExecutor.
type paperExecutor struct{ label string }

func (e paperExecutor) Protocol() string { return e.label }

func (paperExecutor) Shape(cfg RunConfig) (int, int) { return cfg.Params.N, cfg.Params.Source }

// Validate checks the Params, and a PartialViewCopies below the group size:
// more copies of a subscription than members to hold them is no SCAMP
// parameter.
func (paperExecutor) Validate(cfg RunConfig) error {
	if c, n := cfg.PartialViewCopies, cfg.Params.N; c > 0 && c >= n {
		return fmt.Errorf("scenario: partial view copies %d >= group size %d", c, n)
	}
	return cfg.Params.Validate()
}

func (paperExecutor) Execute(cfg RunConfig, r *xrand.RNG, inject func(*core.NetRun), arena *core.NetArena) (core.NetResult, error) {
	return ExecutePaper(cfg, r, inject, arena)
}

func (paperExecutor) Predict(cfg RunConfig, q float64) (float64, bool) {
	p := cfg.Params
	p.AliveRatio = q
	pred, err := core.Predict(p)
	if err != nil {
		return 0, false
	}
	return pred.Reliability, true
}

// PaperExecutor returns the paper's-algorithm executor with an explicit
// protocol label for comparison rows (the default, unlabeled executor
// keeps single-protocol sweep output byte-stable by labeling rows "").
func PaperExecutor(label string) Executor { return paperExecutor{label: label} }

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

type protocolExecutor struct {
	spec protocols.Spec
}

func (e protocolExecutor) Protocol() string { return e.spec.Protocol() }

func (e protocolExecutor) Shape(RunConfig) (int, int) { return protocols.Shape(e.spec) }

func (e protocolExecutor) Validate(RunConfig) error { return e.spec.Validate() }

func (e protocolExecutor) Execute(cfg RunConfig, r *xrand.RNG, inject func(*core.NetRun), arena *core.NetArena) (core.NetResult, error) {
	des := protocols.DESConfig{Net: cfg.Net, RoundInterval: cfg.RoundInterval, Probe: cfg.Probe,
		Topology: cfg.Topology}
	out, err := protocols.RunOnDES(e.spec, des, r, inject, arena)
	return out.NetResult, err
}

func (protocolExecutor) Predict(RunConfig, float64) (float64, bool) { return 0, false }

// ExecutePaper is the default executor's Execute, exported so comparison
// rows that pit the paper's algorithm against the baselines can wrap it
// with their own Params. cfg.Net must already be resolved (the runner does
// this); per-run SCAMP views are built when PartialViewCopies asks for
// them, consuming the same split RNG stream the runner always used.
func ExecutePaper(cfg RunConfig, r *xrand.RNG, inject func(*core.NetRun), arena *core.NetArena) (core.NetResult, error) {
	if err := (paperExecutor{}).Validate(cfg); err != nil {
		return core.NetResult{}, err
	}
	p := cfg.Params
	if p.View == nil {
		// The split is non-consuming, so the uniform (nil-overlay) path
		// leaves every downstream random stream byte-identical.
		ov, err := cfg.Topology.Build(p.N, r.Split(topology.Split))
		if err != nil {
			return core.NetResult{}, err
		}
		if ov != nil {
			p.View = ov
		}
	}
	if cfg.PartialViewCopies > 0 && p.View == nil {
		p.View = membership.NewPartialViews(p.N, cfg.PartialViewCopies, r.Split(0x71e75))
	}
	return core.ExecuteOnNetworkSharded(p, cfg.Net, r, inject, arena, cfg.Probe,
		core.ShardOptions{Shards: cfg.Shards})
}

// RunReport is the outcome of one scenario execution.
type RunReport struct {
	// Scenario names the campaign that ran.
	Scenario string `json:"scenario"`
	// Protocol labels the executor that ran the campaign; empty for the
	// default single-protocol runner.
	Protocol string `json:"protocol,omitempty"`
	// Seed is the run's random seed.
	Seed uint64 `json:"seed"`
	// Delivered is the number of members that received m.
	Delivered int `json:"delivered"`
	// Reliability is delivered / initially-alive (the paper's metric,
	// denominated in the pre-campaign group).
	Reliability float64 `json:"reliability"`
	// SurvivorReliability is delivered-and-up / up at the end of the
	// run: delivery measured over the members that survived the
	// campaign.
	SurvivorReliability float64 `json:"survivor_reliability"`
	// UpAtEnd is how many members were up when the run drained.
	UpAtEnd int `json:"up_at_end"`
	// SpreadMs is the time of the last first-receipt, in milliseconds.
	SpreadMs float64 `json:"spread_ms"`
	// MessagesSent counts gossip sends.
	MessagesSent int `json:"messages_sent"`
	// Crashed, Restarted, Departed and Published count what the campaign
	// actually did; ArcsDonated counts SCAMP arcs donated by churn.
	Crashed     int `json:"crashed,omitempty"`
	Restarted   int `json:"restarted,omitempty"`
	Departed    int `json:"departed,omitempty"`
	ArcsDonated int `json:"arcs_donated,omitempty"`
	Published   int `json:"published,omitempty"`
	// StaticPrediction is the paper's Eq. 11 reliability at the initial
	// q — the static model the scenario stresses. Zero for protocol
	// executors without an analytic model.
	StaticPrediction float64 `json:"static_prediction"`
	// EffectivePrediction is Eq. 11 re-evaluated at the end-of-run up
	// fraction q_eff = UpAtEnd/n: the best the static model can do with
	// hindsight about how many members the campaign removed.
	EffectivePrediction float64 `json:"effective_prediction"`
	// CorrectedPrediction extends Eq. 11 with the giant-component
	// correction on topology runs: the reachable fraction of the
	// alive-restricted gossip digraph over the run's overlay at q_eff
	// (core.ComponentReliability — the same machinery the MonteCarlo
	// engine's component estimator uses). Eq. 11 assumes uniform
	// selection; on a constrained overlay the giant out-component, not
	// the branching process, bounds the spread. Zero (and omitted from
	// JSON) for uniform-topology runs, so existing goldens are
	// unchanged.
	CorrectedPrediction float64 `json:"corrected_prediction,omitempty"`
	// Latency summarizes per-member first-receipt latencies (seconds).
	Latency LatencySummary `json:"latency"`
	// Metrics is the run's telemetry snapshot when a probe observed it
	// (RunConfig.Probe / Axes.Probe); nil otherwise. Excluded from the
	// JSON encoding so probed and unprobed sweep output stay
	// byte-identical.
	Metrics *obs.Metrics `json:"-"`
}

// LatencySummary is the flattened delivery-latency statistics of one or
// more runs.
type LatencySummary struct {
	N      int     `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Run executes one scenario campaign over one gossip execution and reports
// the outcome against the static-q model. The run is deterministic in
// (cfg, s, seed).
func Run(s *Scenario, cfg RunConfig, seed uint64) (RunReport, error) {
	rep, _, err := runWithLatency(s, cfg, seed, nil)
	return rep, err
}

// runWithLatency is Run plus the raw per-member delivery-latency
// accumulator, which the sweep merges across replications, and an optional
// run-state arena (the sweep workers recycle one arena each; results are
// byte-identical with or without one).
func runWithLatency(s *Scenario, cfg RunConfig, seed uint64, arena *core.NetArena) (RunReport, stats.Running, error) {
	if err := s.Validate(); err != nil {
		return RunReport{}, stats.Running{}, err
	}
	if cfg.PartialViewCopies < 0 {
		return RunReport{}, stats.Running{}, fmt.Errorf("scenario: partial view copies %d < 0", cfg.PartialViewCopies)
	}
	ex := cfg.executor()
	n, source := ex.Shape(cfg)
	root := xrand.New(seed)
	actionRNG := root.Split(0x5ce9a810)
	// Split the topology and component-probe streams before the executor
	// consumes root: topoRNG then replays exactly the stream the executor
	// builds its overlay from, so the corrected prediction sees the same
	// arcs the run gossiped over. Splits are non-consuming, so the
	// uniform path is byte-identical to pre-topology behavior.
	topoRNG := root.Split(topology.Split)
	compRNG := root.Split(0x6ca12)
	cfg.Net = cfg.netConfig(n)

	var e *env
	res, err := ex.Execute(cfg, root, func(run *core.NetRun) {
		e = &env{run: run, rng: actionRNG, n: n, source: source}
		schedule(run, e, s.Steps)
	}, arena)
	if err != nil {
		return RunReport{}, stats.Running{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}

	rep := RunReport{
		Scenario:            s.Name,
		Protocol:            ex.Protocol(),
		Seed:                seed,
		Delivered:           res.Delivered,
		Reliability:         res.Reliability,
		SurvivorReliability: res.SurvivorReliability,
		UpAtEnd:             res.UpAtEnd,
		SpreadMs:            float64(res.SpreadTime) / float64(time.Millisecond),
		MessagesSent:        res.MessagesSent,
		Latency: LatencySummary{
			N:      res.DeliveryLatency.N(),
			MeanMs: res.DeliveryLatency.Mean() * 1e3,
			MaxMs:  res.DeliveryLatency.Max() * 1e3,
		},
	}
	if e != nil {
		rep.Crashed = e.crashed
		rep.Restarted = e.restarted
		rep.Departed = e.departed
		rep.ArcsDonated = e.arcsDonated
		rep.Published = e.published
	}
	if pred, ok := ex.Predict(cfg, cfg.Params.AliveRatio); ok {
		rep.StaticPrediction = pred
	}
	if pred, ok := ex.Predict(cfg, float64(res.UpAtEnd)/float64(n)); ok {
		rep.EffectivePrediction = pred
		if !cfg.Topology.IsUniform() && cfg.Params.View == nil {
			if cp, err := correctedPrediction(cfg, float64(res.UpAtEnd)/float64(n), topoRNG, compRNG); err == nil {
				rep.CorrectedPrediction = cp
			}
		}
	}
	if cfg.Probe != nil {
		rep.Metrics = cfg.Probe.Metrics()
	}
	return rep, res.DeliveryLatency, nil
}

// correctedPrediction extends Eq. 11 with the giant-component correction
// for a topology run: it rebuilds the run's pristine overlay from the
// same RNG split the executor used (same arcs) and measures the fraction
// of alive members the source reaches through the alive-restricted
// gossip digraph at nonfailed ratio q (core.ComponentReliability — one
// component draw per run; sweeps average it across seeds like every
// other per-run statistic).
func correctedPrediction(cfg RunConfig, q float64, topoRNG, compRNG *xrand.RNG) (float64, error) {
	p := cfg.Params
	ov, err := cfg.Topology.Build(p.N, topoRNG)
	if err != nil || ov == nil {
		return 0, err
	}
	p.View = ov
	p.AliveRatio = q
	comp, err := core.ComponentReliability(p, compRNG)
	if err != nil {
		return 0, err
	}
	return comp.Reliability, nil
}

// schedule installs the scenario's steps on the run's kernel. One-shot
// steps fire once at their time; recurring steps (Every > 0) refire every
// interval, so campaigns like "crash 1% every 10ms" no longer need
// hand-unrolled timelines; conditional steps (When = "stall") watch the
// run's delivered count. A bounded recurrence (Until > 0) refires until
// its window closes; an unbounded one refires only while the execution has
// live work beyond the campaign's own bookkeeping events (recurrences and
// stall watchers, counted in `self`), so it tracks the spread and then
// lets the run drain.
func schedule(run *core.NetRun, e *env, steps []Step) {
	self := 0 // campaign bookkeeping events currently pending on the kernel
	for _, st := range steps {
		st := st
		if st.When == WhenStall {
			scheduleStall(run, e, st, &self)
			continue
		}
		if st.Every <= 0 {
			action := st.Action
			run.Kernel.At(sim.Time(st.At), func() { action.apply(e) })
			continue
		}
		var fire func()
		fire = func() {
			self--
			st.Action.apply(e)
			next := run.Kernel.Now().Add(st.Every.Std())
			if st.Until > 0 {
				if next > sim.Time(st.Until) {
					return // recurrence window closed
				}
			} else if run.Pending() <= self {
				return // only campaign bookkeeping left; let the run drain
			}
			self++
			run.Kernel.At(next, fire)
		}
		self++
		run.Kernel.At(sim.Time(st.At), fire)
	}
}

// scheduleStall installs a stall trigger: a recurring kernel event that
// polls the run's delivered-member count every half window and fires the
// step's action — at most once per run — when the count has not moved for
// a full window while some up member still lacks m. Before the FIRST
// delivery moves the count, a quiet window is only a stall if the network
// is drained too (simnet.Stats.InFlight): a window shorter than the
// latency of the spread's opening hop must not fire while that hop is
// still airborne, but once any progress has been observed the
// delivered-count window alone decides (round-driven protocols keep
// duplicate traffic airborne through a genuine stall, so a drained
// network cannot be a precondition in general). The watcher's own events
// count as campaign bookkeeping (self), so it never keeps an
// otherwise-finished run alive: once every up member is served and only
// bookkeeping is pending, it unwinds without firing.
func scheduleStall(run *core.NetRun, e *env, st Step, self *int) {
	window := st.Window.Std()
	poll := window / 2
	if poll <= 0 {
		poll = window
	}
	lastDelivered := -1
	sawProgress := false
	var lastChange sim.Time
	var fire func()
	fire = func() {
		*self--
		now := run.Kernel.Now()
		if d := run.Delivered(); d != lastDelivered {
			sawProgress = lastDelivered >= 0 // the first poll only baselines
			lastDelivered, lastChange = d, now
		}
		if now.Sub(lastChange) >= window &&
			(sawProgress || run.Net.Drained()) {
			if stallSatisfied(run, e.n) {
				return // the spread finished; nothing to trigger
			}
			st.Action.apply(e)
			return // fires at most once per run
		}
		if run.Pending() <= *self && stallSatisfied(run, e.n) {
			return // run is done except for bookkeeping; stop watching
		}
		*self++
		run.Kernel.At(now.Add(poll), fire)
	}
	*self++
	run.Kernel.At(sim.Time(st.At), fire)
}

// stallSatisfied reports whether every currently-up member has received m
// — the state in which a stall trigger has nothing left to rescue.
func stallSatisfied(run *core.NetRun, n int) bool {
	for id := 0; id < n; id++ {
		if run.Net.Up(simnet.NodeID(id)) && !run.HasReceived(id) {
			return false
		}
	}
	return true
}
