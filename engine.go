package gossipkit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"gossipkit/internal/runpool"
	"gossipkit/internal/stats"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// Sentinel errors every engine wraps, so callers dispatch with errors.Is
// instead of string-matching the internal "core:"/"scenario:" prefixes.
var (
	// ErrInvalidParams wraps every parameter-validation failure. The
	// wrapped chain keeps the precise internal message
	// ("core: group size 1 too small", ...).
	ErrInvalidParams = errors.New("gossipkit: invalid parameters")
	// ErrCanceled wraps context cancellation: a mid-sweep ctx cancel makes
	// Run/RunMany return promptly with an error matching both ErrCanceled
	// and the context's own error (context.Canceled / DeadlineExceeded).
	ErrCanceled = errors.New("gossipkit: run canceled")
)

// invalid wraps a validation error so errors.Is(err, ErrInvalidParams)
// holds while the internal message stays in the chain.
func invalid(err error) error {
	return fmt.Errorf("%w: %w", ErrInvalidParams, err)
}

// Engine is one execution backend of the toolkit behind the unified
// Run/RunMany entry points: the analytic model (Analytic), the Monte-Carlo
// graph estimator (MonteCarlo), the discrete-event network executor
// (Network), the streaming workload (Stream), the fault-injection scenario
// runner and its (protocol × scenario) comparison grid (Campaign), the
// repeated-execution success protocol (Success), and the related-work
// protocol baselines (Baseline, over any ProtocolSpec — on the same
// discrete-event substrate as Network).
//
// Every engine is context-aware (cancellation aborts promptly with
// ErrCanceled), observable (WithObserver streams per-run Reports in
// deterministic run order for any worker count), and seed-deterministic
// (the same spec, seed, and run count reproduce the same Outcome bit for
// bit, regardless of WithWorkers).
//
// The interface is sealed: implementations live in this package. Specs are
// plain value types, so they can be built, copied, and compared freely.
type Engine interface {
	// Name identifies the backend in Reports and Outcomes.
	Name() string
	// validate makes every check of the spec and the options that needs
	// no work done; execute runs it before it looks at the context.
	validate(o *runOptions) error
	// run executes a validated spec. It must emit one Report per completed
	// replication, in deterministic order, and may return an
	// engine-specific aggregate (sealed to this package).
	run(ctx context.Context, o *runOptions, emit func(Report)) (aggregate any, err error)
}

// Report is the unified per-replication outcome streamed to observers and
// collected in Outcome.Reports. Engines fill the fields they measure and
// leave the rest zero; Detail carries the engine's native result
// (Result, ComponentResult, NetResult, ScenarioReport, SuccessSim,
// Prediction, or a protocol result type).
type Report struct {
	// Engine is the backend that produced the report.
	Engine string
	// Run is the replication index (sweep-cell index for grids), assigned
	// in emission order: observers always see Run 0, 1, 2, ...
	Run int
	// Reliability is the engine's headline delivery ratio for this run.
	Reliability float64
	// Delivered is the number of members that received the multicast.
	Delivered int
	// AliveCount is the number of nonfailed members.
	AliveCount int
	// MessagesSent counts protocol messages.
	MessagesSent int
	// Rounds is the forwarding depth or round count, where the engine
	// has one.
	Rounds int
	// SpreadMs is the simulated time of the last first-receipt in
	// milliseconds (discrete-event engines only).
	SpreadMs float64
	// Metrics is this run's telemetry snapshot when the execution ran
	// under WithProbe on a discrete-event engine; nil otherwise.
	Metrics *RunMetrics
	// Stream is this run's streaming telemetry snapshot when the
	// execution ran under WithProbe on the Stream engine; nil otherwise.
	Stream *StreamRunMetrics
	// Detail is the engine's native result for this run.
	Detail any
}

// Observer streams per-run Reports as a Run/RunMany progresses. Callbacks
// arrive in deterministic run order (Report.Run = 0, 1, 2, ...) for any
// worker count, from whichever worker completed the ordered prefix; an
// observer must therefore be safe to call from worker goroutines, but
// never concurrently with itself.
type Observer func(Report)

// Moments are order-statistics of one Report field across the completed
// replications of an Outcome.
type Moments struct {
	// N is the number of observations.
	N int
	// Mean, StdDev, Min and Max summarize the sample.
	Mean, StdDev, Min, Max float64
	// CI95 is the half-width of the 95% confidence interval on Mean.
	CI95 float64
}

func momentsOf(r stats.Running) Moments {
	if r.N() == 0 {
		return Moments{}
	}
	return Moments{N: r.N(), Mean: r.Mean(), StdDev: r.StdDev(), Min: r.Min(), Max: r.Max(), CI95: r.CI95()}
}

// Outcome is the aggregated result of Run or RunMany.
type Outcome struct {
	// Engine is the backend that ran.
	Engine string
	// Runs is the number of completed replications.
	Runs int
	// Seed is the base seed the replications derived from (WithSeed).
	Seed uint64
	// Reliability, Messages and SpreadMs aggregate the corresponding
	// Report fields across replications, reduced in run order.
	Reliability Moments
	Messages    Moments
	SpreadMs    Moments
	// Reports are the per-replication reports, in run order. Nil when the
	// run used WithoutReports.
	Reports []Report
	// Metrics merges the per-run telemetry across replications when the
	// execution ran under WithProbe on a discrete-event engine; nil
	// otherwise. The merge happens in run order, so it is byte-identical
	// for any WithWorkers count.
	Metrics *MergedMetrics
	// Stream merges streaming telemetry across replications when the
	// execution ran under WithProbe on the Stream engine; nil otherwise.
	// Merged in run order like Metrics.
	Stream *MergedStreamMetrics
	// Aggregate is the engine's native aggregate, when it has one:
	// Prediction (Analytic), Estimate or ComponentEstimate (MonteCarlo),
	// SuccessOutcome (Success), *ScenarioSweepResult or, with Qs or
	// Fanouts set, *ScenarioGridResult or, with Protocols or Paper set,
	// *ScenarioCompareResult (Campaign under RunMany), *ProtocolSweep
	// (Baseline under RunMany). The three scenario aggregates are views of
	// one topology × protocol × scenario × q × fanout product, cells in
	// that order with only the swept axes labeled. Nil otherwise.
	Aggregate any
}

// runOptions carries the resolved Run/RunMany options.
type runOptions struct {
	seed          uint64
	runs          int
	many          bool // replication-sweep semantics (RunMany)
	workers       int
	observer      Observer
	noReports     bool
	probe         *ProbeOptions // dissemination telemetry (DES engines only)
	shards        int           // conservative-PDES shard kernels; 0 = option absent (see WithShards)
	topology      topology.Spec // gossip overlay (zero value = uniform full view)
	shardProgress func(events uint64, virtualNow time.Duration)
}

// Option configures Run and RunMany.
type Option func(*runOptions)

// WithSeed sets the base seed replications derive their independent RNG
// streams from. The default is 0; the same seed reproduces the same
// Outcome bit for bit.
func WithSeed(seed uint64) Option { return func(o *runOptions) { o.seed = seed } }

// WithWorkers bounds the worker pool replications run on; <= 0 (the
// default) means GOMAXPROCS. Results and observer order are identical for
// any worker count.
func WithWorkers(n int) Option { return func(o *runOptions) { o.workers = n } }

// WithObserver streams per-run Reports as the execution progresses; see
// Observer for the delivery-order guarantee.
func WithObserver(fn Observer) Option { return func(o *runOptions) { o.observer = fn } }

// WithoutReports drops per-run Reports from the Outcome (Outcome.Reports
// stays nil); aggregates, moments, and observer streaming are unaffected.
// Use it on very large sweeps consumed through Aggregate or an observer
// only, where retaining every boxed Report would dominate memory: the
// MonteCarlo, Network, Success, and Baseline engines then stream their
// reduction and hold only out-of-order completions live. The Campaign
// engine is the exception — it still buffers one report per sweep cell
// internally to build its per-cell summaries, protocol rows included.
func WithoutReports() Option { return func(o *runOptions) { o.noReports = true } }

// WithShards runs each execution on n shard kernels:
// members are partitioned across per-core shards that advance in
// lookahead windows derived from the latency model's floor (see
// simnet.LatencyFloorer), exchanging cross-shard messages at window
// barriers. n <= 0 auto-selects GOMAXPROCS at option-apply time. The
// default (option absent) is one shard — the same executor draining a
// single kernel — so WithShards(1) changes nothing. A fixed shard count
// is byte-identical across repeats for the same GOARCH and Go release
// (the test suite checks amd64; on arm64, ppc64le, s390x and riscv64
// TestNoFusedFloat keeps fused multiply-add out of this module's float
// code, and the standard library's math functions are not yet measured
// across architectures). For Network the count is a performance knob:
// draws are keyed by member, so every count gives the same result but for
// the latency moments' last bits. Stream and Campaign results are only
// statistically pinned across counts (per-shard stream draws, per-shard
// burst-loss state, timed actions at window barriers), so there pass an
// explicit count to reproduce a run on a host with other core counts.
// Executions whose latency model has no positive floor always run on one
// shard. Each replication still runs on one shard group — WithShards
// parallelizes within a run (one n=10⁷ execution across cores),
// WithWorkers across runs; they compose, but oversubscribe the machine if
// both are wide.
//
// Honored by the Network, Stream and Campaign engines. Campaign
// alternatively takes the count on ScenarioRunConfig.Shards (setting both
// to different values is an error), and there it reaches the paper's
// algorithm only: protocol rows and executors, like the Baseline engine,
// run on one kernel. The Analytic, MonteCarlo and Success engines
// have no kernel to shard and ignore it.
func WithShards(n int) Option {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return func(o *runOptions) { o.shards = n }
}

// WithShardProgress observes every window barrier of a sharded Network
// execution (WithShards) with the cumulative kernel events fired and the
// barrier's virtual time — live progress for single long runs, where
// per-run observers only fire at the very end. Called from the
// coordinator goroutine of whichever replication is running; with
// parallel replications (RunMany + WithWorkers) calls from different
// runs interleave, so it is most useful on single executions.
func WithShardProgress(fn func(events uint64, virtualNow time.Duration)) Option {
	return func(o *runOptions) { o.shardProgress = fn }
}

// WithTopology gossips over a generated overlay instead of the uniform
// full view: target selection draws from per-member neighbor sets (k-out
// regular, Barabási–Albert scale-free, or WAN zone clusters — see
// ParseTopology and the topology constructors). Each overlay is generated
// deterministically from the run's RNG stream, so results stay
// seed-reproducible and worker/shard-count-invariant; the zero (uniform)
// spec is byte-identical to not setting the option at all.
//
// Honored by the Network, MonteCarlo, Stream, Campaign, and Baseline
// engines, which check it against each row's group size. The Analytic and
// Success engines reject non-uniform topologies: Eq. 11 assumes uniform
// selection — use MonteCarlo (giant component) for overlay reliability, or
// read the corrected prediction off scenario reports. Campaign also takes
// it on ScenarioRunConfig.Topology (different specs in both are an error)
// and a list on Campaign.Topologies in place of both.
func WithTopology(t Topology) Option { return func(o *runOptions) { o.topology = t } }

// mergeRunConfig folds the WithTopology and WithShards options into the
// Campaign engine's run config, rejecting an option that conflicts with
// the explicitly-set Config field — and a Config.Net no engine should run
// on (validateNet) or a negative PartialViewCopies, RoundInterval or
// Shards, which would run on the full view, the default pacing or one
// shard without saying so.
func mergeRunConfig(cfg *ScenarioRunConfig, o *runOptions) error {
	if err := validateNet(cfg.Net); err != nil {
		return err
	}
	if cfg.PartialViewCopies < 0 {
		return fmt.Errorf("%w: partial view copies %d < 0", ErrInvalidParams, cfg.PartialViewCopies)
	}
	if cfg.RoundInterval < 0 || cfg.Shards < 0 {
		return fmt.Errorf("%w: negative round interval %v or shards %d", ErrInvalidParams, cfg.RoundInterval, cfg.Shards)
	}
	if !o.topology.IsUniform() {
		if !cfg.Topology.IsUniform() && cfg.Topology != o.topology {
			return fmt.Errorf("%w: WithTopology(%s) conflicts with Config.Topology %s", ErrInvalidParams, o.topology, cfg.Topology)
		}
		cfg.Topology = o.topology
	}
	if o.shards != 0 {
		if cfg.Shards != 0 && cfg.Shards != o.shards {
			return fmt.Errorf("%w: WithShards(%d) conflicts with Config.Shards %d", ErrInvalidParams, o.shards, cfg.Shards)
		}
		cfg.Shards = o.shards
	}
	return nil
}

// Run executes spec once and returns its Outcome: one entry point across
// every backend. Seeding, cancellation, and observation are options;
// RunMany replicates:
//
//	out, err := gossipkit.Run(ctx, gossipkit.Network{Params: p}, gossipkit.WithSeed(42))
//
// Engines that declare their own replication structure (Success via
// SuccessParams.Simulations, Campaign under RunMany) emit one Report per
// inner replication.
//
// The spec and options are checked before ctx is: a malformed spec fails
// with ErrInvalidParams even on a canceled context, and a well-formed one
// with ErrCanceled before any work.
func Run(ctx context.Context, spec Engine, opts ...Option) (*Outcome, error) {
	o := &runOptions{runs: 1}
	for _, opt := range opts {
		opt(o)
	}
	return execute(ctx, spec, o)
}

// RunMany executes `runs` seeded replications of spec on a worker pool and
// aggregates them: per-run RNG streams derive from WithSeed, results
// reduce in run order, and the Outcome is identical for any WithWorkers
// count. Cancel ctx to stop a sweep mid-flight (ErrCanceled); as with Run,
// a malformed spec is ErrInvalidParams whatever the state of ctx.
func RunMany(ctx context.Context, spec Engine, runs int, opts ...Option) (*Outcome, error) {
	o := &runOptions{runs: runs, many: true}
	for _, opt := range opts {
		opt(o)
	}
	return execute(ctx, spec, o)
}

// execute is the shared driver: it validates the options and the spec,
// streams Reports to the observer, reduces the generic moments in run order,
// and maps cancellation onto ErrCanceled. Validation comes before the
// cancellation check, so a canceled context is a dry run of every check —
// which is how a command vets each spec it is about to run before the first
// one prints anything.
func execute(ctx context.Context, spec Engine, o *runOptions) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec == nil {
		return nil, fmt.Errorf("%w: nil engine spec", ErrInvalidParams)
	}
	if o.runs < 1 {
		return nil, fmt.Errorf("%w: run count %d < 1", ErrInvalidParams, o.runs)
	}
	if err := spec.validate(o); err != nil {
		return nil, err
	}
	if o.probe != nil && o.probe.TraceCapacity > maxTraceCapacity {
		return nil, fmt.Errorf("%w: probe trace capacity %d exceeds %d events", ErrInvalidParams, o.probe.TraceCapacity, maxTraceCapacity)
	}
	if err := ctx.Err(); err != nil {
		return nil, canceled(err, 0)
	}

	out := &Outcome{Engine: spec.Name(), Seed: o.seed}
	emitted := 0
	var rel, msgs, spread stats.Running
	var merged *MergedMetrics
	var streamMerged *MergedStreamMetrics
	if o.probe != nil {
		merged = &MergedMetrics{}
		streamMerged = &MergedStreamMetrics{}
	}
	emit := func(r Report) {
		r.Engine = out.Engine
		r.Run = emitted
		emitted++
		if !o.noReports {
			out.Reports = append(out.Reports, r)
		}
		rel.Add(r.Reliability)
		msgs.Add(float64(r.MessagesSent))
		spread.Add(r.SpreadMs)
		// Reports arrive in run order, so this merge — like every other
		// reduction here — is byte-identical for any worker count.
		merged.Merge(r.Metrics)
		streamMerged.Merge(r.Stream)
		if o.observer != nil {
			o.observer(r)
		}
	}
	agg, err := spec.run(ctx, o, emit)
	if err != nil {
		// Map onto ErrCanceled only when the failure IS the cancellation
		// (the pool and engines propagate ctx.Err() unwrapped). A genuine
		// engine error that merely races a ctx cancel must surface as
		// itself, not be masked behind the CLIs' "interrupted" exit path.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, canceled(err, emitted)
		}
		return nil, err
	}
	out.Runs = emitted
	out.Reliability = momentsOf(rel)
	out.Messages = momentsOf(msgs)
	out.SpreadMs = momentsOf(spread)
	if merged != nil && merged.Runs > 0 {
		out.Metrics = merged
	}
	if streamMerged != nil && streamMerged.Runs > 0 {
		out.Stream = streamMerged
	}
	out.Aggregate = agg
	return out, nil
}

// replicate is the facade's replication policy, shared by the Network,
// Stream and Baseline engines: o.runs seeded executions on
// runpool.Replicate, run i on stream xrand.New(o.seed).Split(i) with the
// worker's pooled state (newState builds a worker's arena and probe),
// results handed to reduce in run order.
func replicate[S, T any](ctx context.Context, o *runOptions, newState func() S, run func(r *xrand.RNG, st S) (T, error), reduce func(T)) error {
	root := xrand.New(o.seed)
	return runpool.Replicate(ctx, o.runs, o.workers, newState,
		func(i int, st S) (T, error) { return run(root.Split(uint64(i)), st) },
		func(_ int, v T) { reduce(v) })
}

// canceled wraps a context error so it matches both ErrCanceled and the
// original context error.
func canceled(err error, completed int) error {
	return fmt.Errorf("%w after %d completed runs: %w", ErrCanceled, completed, err)
}
