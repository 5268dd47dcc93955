package stream

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/membership"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
)

// publishSplit is the publish schedule's (times + sources) split index on
// the run's root stream. Splitting never advances the parent, so the
// schedule and the failure mask are identical across every shard count;
// the per-shard run and network streams are core.Run's layout. The index
// collides with no other split constant in the tree.
const publishSplit = 0x97ab31

// Message tags pack (message id, message kind) into the simnet tag word:
// tag = id<<kindBits | kind. simnet packs a tag into the event record when
// it fits beside the two node ids — every id at n ≤ 2¹⁵, ids below 2²⁶ at
// n = 10⁵, 2²⁰ at n = 10⁶ — and parks the rest in pooled 40-byte in-flight
// slots beside their event records (see simnet.SendTag and
// Stats.BoxedSends): same semantics, zero steady-state allocations, 40 more
// bytes per airborne message.
const (
	kindBits = 2
	kindMask = 1<<kindBits - 1

	kindData   int32 = 0 // a copy of the message itself
	kindDigest int32 = 1 // "I buffer this id" (push-pull rounds)
	kindNack   int32 = 2 // "send me this id" (digest response)
	kindRepair int32 = 3 // the pull reply; received like data

	// MaxMessagesCap bounds a run's message count so every id fits the
	// tag word with room for the kind bits.
	MaxMessagesCap = 1 << 27
)

func tagOf(m, kind int32) int32 { return m<<kindBits | kind }

// EvictionPolicy selects the victim when a full buffer admits a new
// message.
type EvictionPolicy int

const (
	// EvictFIFO drops the longest-buffered entry (insertion order).
	EvictFIFO EvictionPolicy = iota
	// EvictRandom drops a uniformly random entry.
	EvictRandom
	// EvictAge drops the entry whose message was published earliest
	// (ties: insertion order) — the oldest news is the most likely to
	// have spread already.
	EvictAge
	// EvictLpbcast drops the entry seen most often as a duplicate
	// (ties: earliest publish, then insertion order) — lpbcast's
	// frequency-based purging, where high duplicate counts signal a
	// message the neighborhood already holds.
	EvictLpbcast
)

// String names the policy for labels and CSV columns.
func (p EvictionPolicy) String() string {
	switch p {
	case EvictFIFO:
		return "fifo"
	case EvictRandom:
		return "random"
	case EvictAge:
		return "age"
	case EvictLpbcast:
		return "lpbcast"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseEviction resolves an eviction-policy name ("fifo", "random",
// "age", "lpbcast") from untrusted input.
func ParseEviction(s string) (EvictionPolicy, error) {
	for _, p := range []EvictionPolicy{EvictFIFO, EvictRandom, EvictAge, EvictLpbcast} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("stream: unknown eviction policy %q (want fifo, random, age, or lpbcast)", s)
}

// Discipline selects how buffered messages propagate — the load-phase
// generalization of the repo's protocol families, each gossiping its
// active buffer instead of one rumor.
type Discipline int

const (
	// DisciplineEager forwards each message fanout-wise at first receipt,
	// event-driven — the paper's general gossiping algorithm per message.
	DisciplineEager Discipline = iota
	// DisciplinePush gossips the whole active buffer to a fresh fanout
	// draw of targets every round tick — the pbcast/lpbcast family.
	DisciplinePush
	// DisciplinePushPull gossips per-entry digests every round; a
	// receiver lacking a still-active id NACKs, and a holder still
	// buffering it answers with a repair — the anti-entropy/RDG family.
	DisciplinePushPull
	// DisciplineFlood forwards each message to the full view at first
	// receipt — the flooding/LRG family.
	DisciplineFlood
)

// String names the discipline for labels and CSV columns.
func (d Discipline) String() string {
	switch d {
	case DisciplineEager:
		return "eager"
	case DisciplinePush:
		return "push"
	case DisciplinePushPull:
		return "pushpull"
	case DisciplineFlood:
		return "flood"
	}
	return fmt.Sprintf("discipline(%d)", int(d))
}

// ParseDiscipline resolves a discipline name ("eager", "push",
// "pushpull", "flood") from untrusted input.
func ParseDiscipline(s string) (Discipline, error) {
	for _, d := range []Discipline{DisciplineEager, DisciplinePush, DisciplinePushPull, DisciplineFlood} {
		if s == d.String() {
			return d, nil
		}
	}
	return 0, fmt.Errorf("stream: unknown discipline %q (want eager, push, pushpull, or flood)", s)
}

// Config parameterizes one streaming run.
type Config struct {
	// N is the group size.
	N int
	// Rate is the aggregate offered load in messages per second across
	// all sources (Poisson arrivals, open loop: publishes do not wait for
	// earlier messages to spread).
	Rate float64
	// Duration is the publish window; the run itself continues until the
	// last buffered copies age out and the network drains.
	Duration time.Duration
	// MaxMessages caps the schedule regardless of Rate·Duration; zero
	// defaults to 4096 (capped at MaxMessagesCap).
	MaxMessages int
	// Sources is the number of distinct publishers — each message's
	// source is drawn uniformly from members [0, Sources). Zero means
	// every member publishes.
	Sources int
	// Fanout is the per-emission fanout distribution (required).
	Fanout dist.Distribution
	// AliveRatio is the paper's q: each member is independently alive
	// with probability q under the initial failure mask (member 0
	// protected, mirroring the single-rumor executors). Zero means 1.
	AliveRatio float64
	// BufferCap is the per-member rumor buffer capacity; zero defaults
	// to 32. N·BufferCap may not exceed 2³¹ − 1: a worker keeps its
	// members' buffers in one flat slice of 12-byte entries, and the
	// event budget charges BufferCap·64 events per member and round, so
	// an unbounded capacity overflows both.
	BufferCap int
	// Eviction selects the buffer eviction policy.
	Eviction EvictionPolicy
	// Discipline selects the propagation discipline.
	Discipline Discipline
	// ActiveRounds is a message's active window in round ticks: an entry
	// inserted with publish round r expires at round r+ActiveRounds, and
	// late receipts after that window still count for reliability but
	// are neither buffered nor forwarded. Zero defaults to 8.
	ActiveRounds int
	// RoundInterval is the gossip round tick; zero derives it from the
	// latency model exactly as the protocol runtime does
	// (simnet.Config.RoundInterval).
	RoundInterval time.Duration
	// View is the membership view targets are drawn from; nil means the
	// full view.
	View membership.View
	// Batch switches the round-driven disciplines (push, push-pull) to
	// batched wire messages: one digest / one NACK set / one repair batch
	// per (member, round, peer) instead of one event per buffered entry,
	// cutting kernel events per round from O(buffer·fanout) to O(fanout).
	// Loss and latency then apply per batch rather than per entry, so
	// batched runs are statistically pinned against per-id runs, not
	// byte-identical. Eager and flood forward single fresh ids per receipt
	// and ignore the flag.
	Batch bool
	// SummaryOnly folds the per-message accounting into the run-level
	// aggregates (outcome tallies, reliability moments, latency moments,
	// the ledger) and leaves Result.Messages nil — removing the run's only
	// O(messages) allocation, which is what lets 10⁶–10⁷-rumor runs fit in
	// memory. Every Result field except Messages is unchanged.
	SummaryOnly bool
}

// Validate reports whether the config describes a runnable stream (the
// facade's upfront parameter check; RunSharded normalizes again internally).
func (c Config) Validate() error {
	_, err := c.normalize()
	return err
}

// normalize validates cfg and fills defaults.
func (c Config) normalize() (Config, error) {
	if c.N < 2 || c.N > math.MaxInt32 {
		return c, fmt.Errorf("stream: group size %d outside [2, 2³¹)", c.N)
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) { // NaN fails every comparison
		return c, fmt.Errorf("stream: offered rate %g msgs/s must be positive and finite", c.Rate)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("stream: publish window %v must be positive", c.Duration)
	}
	if c.Fanout == nil {
		return c, errors.New("stream: nil fanout distribution")
	}
	if c.MaxMessages == 0 {
		c.MaxMessages = 4096
	}
	if c.MaxMessages < 1 || c.MaxMessages > MaxMessagesCap {
		return c, fmt.Errorf("stream: message cap %d outside [1, %d]", c.MaxMessages, MaxMessagesCap)
	}
	if c.Sources == 0 {
		c.Sources = c.N
	}
	if c.Sources < 1 || c.Sources > c.N {
		return c, fmt.Errorf("stream: %d sources outside [1, %d]", c.Sources, c.N)
	}
	if c.AliveRatio == 0 {
		c.AliveRatio = 1
	}
	if !(c.AliveRatio >= 0 && c.AliveRatio <= 1) {
		return c, fmt.Errorf("stream: alive ratio %g outside [0, 1]", c.AliveRatio)
	}
	if c.BufferCap == 0 {
		c.BufferCap = 32
	}
	if c.BufferCap < 1 || c.BufferCap > math.MaxInt32/c.N {
		return c, fmt.Errorf("stream: buffer capacity %d outside [1, %d] for %d members", c.BufferCap, math.MaxInt32/c.N, c.N)
	}
	if c.ActiveRounds == 0 {
		c.ActiveRounds = 8
	}
	if c.ActiveRounds < 1 {
		return c, fmt.Errorf("stream: active window %d rounds < 1", c.ActiveRounds)
	}
	if c.RoundInterval < 0 {
		return c, fmt.Errorf("stream: negative round interval %v", c.RoundInterval)
	}
	if c.View != nil && c.View.N() != c.N {
		return c, fmt.Errorf("stream: view over %d members for group size %d", c.View.N(), c.N)
	}
	return c, nil
}

// MessageOutcome classifies one scheduled message's fate at quiescence.
type MessageOutcome uint8

const (
	// MsgDelivered: every initially-alive member received it.
	MsgDelivered MessageOutcome = iota
	// MsgLostEviction: incompletely delivered with at least one buffered
	// copy evicted under capacity pressure.
	MsgLostEviction
	// MsgLostDrop: incompletely delivered, no evictions, but at least
	// one of its sends never arrived (network loss, crashed or dead
	// destination, partition).
	MsgLostDrop
	// MsgDied: incompletely delivered with neither evictions nor drops —
	// propagation stopped on its own (e.g. zero fanout draws before the
	// active window closed).
	MsgDied
	// MsgSkipped: the source was dead or crashed at publish time; the
	// message never entered the stream.
	MsgSkipped
)

// String names the outcome for labels and CSV columns.
func (o MessageOutcome) String() string {
	switch o {
	case MsgDelivered:
		return "delivered"
	case MsgLostEviction:
		return "lost-eviction"
	case MsgLostDrop:
		return "lost-drop"
	case MsgDied:
		return "died"
	case MsgSkipped:
		return "skipped"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// MessageResult is one message's per-run accounting.
type MessageResult struct {
	// ID is the schedule index (also the tag id); Source the publishing
	// member; PublishedAt its scheduled publish time.
	ID          int
	Source      int
	PublishedAt time.Duration
	// Delivered counts first receipts (source included); Reliability is
	// Delivered over the initially-alive member count.
	Delivered   int
	Reliability float64
	// Duplicates counts redundant receipts; Evictions buffered copies of
	// this message displaced by the policy; Drops its sends (any kind)
	// that never arrived.
	Duplicates int
	Evictions  int
	Drops      int64
	// Outcome is the message's classification.
	Outcome MessageOutcome
}

// Ledger is the run's conservation accounting. At quiescence the copy
// identity Inserted = Evicted + Expired + Resident holds exactly (with
// Resident zero for a drained run), and the network identity
// Sends = Net.SentEntries() + Net.DownEntries(),
// Receipts = Net.DeliveredEntries() ties the engine's own counters to the
// fabric's in id-entry units — for per-id runs the entry helpers collapse
// to Sent/DroppedDown/Delivered and the identity is the wire-level one.
type Ledger struct {
	// Inserted counts buffer insertions; Evicted capacity-pressure
	// displacements; Expired age-outs at round ticks; Resident copies
	// still buffered when the run ended.
	Inserted, Evicted, Expired, Resident int64
	// Sends counts engine send calls of every message kind; Receipts
	// engine handler invocations.
	Sends, Receipts int64
	// RepairMisses counts NACKs that arrived after the holder had
	// already evicted or expired the requested entry (push-pull only).
	RepairMisses int64
}

// Result is one streaming run's outcome.
type Result struct {
	// N is the group size; AliveCount the initially-alive member count.
	N          int
	AliveCount int
	// Scheduled is the publish-schedule length; Published + Skipped ==
	// Scheduled always (the summary mode's replacement for
	// len(Messages)).
	Scheduled int
	// Published counts messages that entered the stream; Skipped those
	// whose source was down at publish time (Published+Skipped is the
	// schedule length).
	Published, Skipped int
	// Outcome tallies over published messages (they partition Published).
	FullyDelivered, LostEviction, LostDrop, Died int
	// MeanReliability and MinReliability summarize the per-message
	// reliability distribution over published messages; Reliability holds
	// its full running moments (count, mean, stddev), the summary mode's
	// stand-in for iterating Messages.
	MeanReliability, MinReliability float64
	Reliability                     stats.Running
	// Delivered is total first receipts across all messages (sources
	// included); MessagesSent total engine sends of every kind;
	// Duplicates total redundant receipts across messages.
	Delivered    int
	MessagesSent int64
	Duplicates   int64
	// DeliveryLatency summarizes per-receipt latency (receipt minus
	// publish time, in seconds; source self-receipts excluded).
	DeliveryLatency stats.Running
	// Rounds is the number of round ticks fired; End the final virtual
	// time.
	Rounds int
	End    time.Duration
	// Messages is the per-message accounting, schedule order. It is the
	// run's only O(messages) allocation — and nil under
	// Config.SummaryOnly, which folds everything it carries into the
	// aggregate fields above.
	Messages []MessageResult
	// SummaryOnly records that this run folded per-message accounting
	// (Messages is nil by construction, not because nothing was
	// scheduled).
	SummaryOnly bool
	// Ledger is the conservation accounting; Net the fabric's final
	// counters.
	Ledger Ledger
	Net    simnet.Stats
}
