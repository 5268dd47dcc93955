package gossipkit

import (
	"context"
	"fmt"
	"io"
	"time"

	"gossipkit/internal/obs"
	"gossipkit/internal/scenario"
	"gossipkit/internal/stream"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// StreamConfig parameterizes a streaming workload: an open-loop Poisson
// publish stream at an aggregate offered rate, many sources, per-member
// bounded rumor buffers with a pluggable eviction policy, and a
// propagation discipline generalizing the repo's protocol families to
// sustained load. See the internal/stream field docs.
type StreamConfig = stream.Config

// StreamResult is one streaming run's outcome: the per-message
// reliability distribution, outcome tallies, delivery-latency summary,
// and the conservation ledger (see StreamLedger).
type StreamResult = stream.Result

// StreamMessage is one message's per-run accounting inside
// StreamResult.Messages.
type StreamMessage = stream.MessageResult

// StreamLedger is a streaming run's conservation accounting; at
// quiescence Inserted = Evicted + Expired + Resident exactly, and
// Sends/Receipts tie to the network fabric's counters.
type StreamLedger = stream.Ledger

// StreamOutcome classifies one message's fate (delivered, lost to
// eviction, lost to drops, died, or skipped).
type StreamOutcome = stream.MessageOutcome

// Message outcomes (StreamMessage.Outcome).
const (
	// MsgDelivered: every initially-alive member received the message.
	MsgDelivered = stream.MsgDelivered
	// MsgLostEviction: incomplete with at least one buffered copy
	// evicted under capacity pressure.
	MsgLostEviction = stream.MsgLostEviction
	// MsgLostDrop: incomplete with sends lost in the network, none
	// evicted.
	MsgLostDrop = stream.MsgLostDrop
	// MsgDied: propagation stopped on its own before covering the group.
	MsgDied = stream.MsgDied
	// MsgSkipped: the source was down at publish time; the message never
	// entered the stream.
	MsgSkipped = stream.MsgSkipped
)

// EvictionPolicy selects the buffer-eviction victim under capacity
// pressure.
type EvictionPolicy = stream.EvictionPolicy

// Buffer eviction policies.
const (
	// EvictFIFO drops the longest-buffered entry.
	EvictFIFO = stream.EvictFIFO
	// EvictRandom drops a uniformly random entry.
	EvictRandom = stream.EvictRandom
	// EvictAge drops the entry published earliest.
	EvictAge = stream.EvictAge
	// EvictLpbcast drops the entry seen most often as a duplicate
	// (lpbcast's frequency-based purging).
	EvictLpbcast = stream.EvictLpbcast
)

// StreamDiscipline selects how buffered messages propagate under load.
type StreamDiscipline = stream.Discipline

// Streaming propagation disciplines, each the load-phase generalization
// of a protocol family: all of them gossip (digests of) their active
// buffer instead of one rumor.
const (
	// StreamEager forwards each message fanout-wise at first receipt —
	// the paper's general gossiping algorithm per message, on the
	// paper's member-keyed draws: a one-message stream is the Network
	// engine's run at Source 0 with a Bernoulli mask, seed for seed.
	StreamEager = stream.DisciplineEager
	// StreamPush gossips the whole active buffer every round tick — the
	// pbcast/lpbcast family.
	StreamPush = stream.DisciplinePush
	// StreamPushPull gossips buffer digests every round with NACK/repair
	// recovery — the anti-entropy/RDG family.
	StreamPushPull = stream.DisciplinePushPull
	// StreamFlood forwards each message to the full view at first
	// receipt — the flooding/LRG family: StreamEager's keyed forward at
	// fanout n−1.
	StreamFlood = stream.DisciplineFlood
)

// ParseEviction resolves an eviction-policy name ("fifo", "random",
// "age", "lpbcast") from untrusted input (CLI flags, config files);
// errors wrap ErrInvalidParams.
func ParseEviction(s string) (EvictionPolicy, error) {
	p, err := stream.ParseEviction(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return p, nil
}

// ParseDiscipline resolves a streaming-discipline name ("eager",
// "push", "pushpull", "flood") from untrusted input; errors wrap
// ErrInvalidParams.
func ParseDiscipline(s string) (StreamDiscipline, error) {
	d, err := stream.ParseDiscipline(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return d, nil
}

// StreamRunMetrics is one streaming replication's telemetry snapshot
// (Report.Stream, under WithProbe): cumulative virtual-time curves of
// occupancy, active messages, publishes, deliveries, evictions, expiries,
// and fabric sends/drops, plus the delivery-latency histogram.
type StreamRunMetrics = obs.StreamMetrics

// MergedStreamMetrics aggregates StreamRunMetrics across replications
// (Outcome.Stream): per-tick moments of every series, merged in run
// order, so byte-identical for any WithWorkers count. Render with its
// WriteCurveCSV.
type MergedStreamMetrics = obs.StreamMerged

// StreamCurveCSVHeader is the column header MergedStreamMetrics
// WriteCurveCSV emits.
const StreamCurveCSVHeader = obs.StreamCurveCSVHeader

// WriteStreamCurveCSV renders merged streaming curves as CSV rows
// labeled with label; emit the header once (header=true on the first
// call, or write StreamCurveCSVHeader yourself).
func WriteStreamCurveCSV(w io.Writer, m *MergedStreamMetrics, label string, header bool) error {
	return m.WriteCurveCSV(w, label, header)
}

// StreamExecutor wraps a streaming workload as a ScenarioExecutor: set
// it on ScenarioRunConfig.Executor to drive any fault campaign — crash
// waves, burst loss, partitions, flash crowds — against a sustained
// multi-message stream instead of one rumor. The campaign report
// summarizes the stream (mean per-message reliability); run the Stream
// engine for full per-message detail.
func StreamExecutor(cfg StreamConfig) ScenarioExecutor {
	return scenario.NewStreamExecutor(cfg)
}

// Stream is the engine for steady-state streaming workloads: each
// replication drives a sustained multi-message publish stream through
// the discrete-event network and reports the per-message reliability
// distribution against the offered load, with eviction-loss attribution
// that reconciles exactly (published = delivered + lost + died, and the
// buffer-copy ledger balances at quiescence).
//
// Report mapping: Reliability is the mean per-message reliability,
// Delivered the total first receipts across messages, MessagesSent the
// total protocol sends of every kind, Rounds the round-tick count, and
// SpreadMs the final virtual time. Detail is the full StreamResult.
// WithProbe attaches streaming telemetry (Report.Stream,
// Outcome.Stream); WithShards runs each replication on the
// conservative-PDES sharded kernel; WithTopology restricts gossip to a
// generated overlay. Replications recycle one arena per worker, so rate
// sweeps make no O(n)- or O(buffer)-sized allocations after warm-up.
// WithoutReports additionally runs every replication in summary mode
// (StreamConfig.SummaryOnly): per-message accounting folds into the
// run-level aggregates and the O(messages) Messages slice is never
// allocated — the memory posture for 10⁶–10⁷-rumor runs. Set
// Config.Batch for batched wire digests (one event per round per peer
// instead of one per buffered entry).
type Stream struct {
	// Config is the streaming workload under execution.
	Config StreamConfig
	// Net configures the simulated network substrate; the zero value is
	// an ideal network.
	Net NetConfig
}

// Name implements Engine.
func (Stream) Name() string { return "stream" }

func (s Stream) validate(o *runOptions) error {
	if err := s.Config.Validate(); err != nil {
		return invalid(err)
	}
	if err := validateNet(s.Net); err != nil {
		return err
	}
	if err := o.topology.Validate(s.Config.N); err != nil {
		return invalid(err)
	}
	if !o.topology.IsUniform() && s.Config.View != nil {
		return fmt.Errorf("%w: WithTopology conflicts with a caller-set Config.View", ErrInvalidParams)
	}
	return nil
}

func (s Stream) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	shardOpts := o.shardOptions()
	return nil, replicate(ctx, o,
		func() streamState {
			st := streamState{arena: stream.NewArena()}
			if o.probe != nil {
				st.probe = obs.NewStream(*o.probe)
			}
			return st
		},
		func(r *xrand.RNG, st streamState) (Report, error) {
			cfg := s.Config
			if o.noReports {
				// WithoutReports discards per-run Reports, so per-message rows
				// would never reach the caller: run in summary mode and skip
				// the O(messages) Result.Messages allocation entirely.
				cfg.SummaryOnly = true
			}
			if ov, err := o.topology.Build(cfg.N, r.Split(topology.Split)); err != nil {
				return Report{}, err
			} else if ov != nil {
				cfg.View = ov
			}
			res, err := stream.RunSharded(cfg, s.Net, r, nil, st.arena, st.probe, shardOpts)
			return streamReport(res, st.probe.Metrics()), err
		}, emit)
}

// streamState is one worker's pooled run state on the Stream engine; see
// desState.
type streamState struct {
	arena *stream.Arena
	probe *obs.StreamProbe
}

func streamReport(res stream.Result, m *obs.StreamMetrics) Report {
	return Report{
		Reliability:  res.MeanReliability,
		Delivered:    res.Delivered,
		AliveCount:   res.AliveCount,
		MessagesSent: int(res.MessagesSent),
		Rounds:       res.Rounds,
		SpreadMs:     float64(res.End) / float64(time.Millisecond),
		Stream:       m,
		Detail:       res,
	}
}
