package scenario

import (
	"fmt"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stream"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// NewStreamExecutor wraps a streaming workload (internal/stream) as a
// scenario Executor, so any campaign — crash waves, partitions, burst
// loss, flash crowds — runs against a sustained multi-message publish
// stream instead of one rumor. The campaign's actions inject through the
// same NetRun seam: crashes and loss hit the live stream, Publish
// triggers the stream's scenario hook (a member lacking the latest
// message obtains it; one that has it re-gossips its buffer).
//
// The executor ignores RunConfig.Params — the stream config carries its
// own group size — and RunConfig.Probe (single-rumor telemetry has no
// meaning over a stream; the facade rejects WithProbe on a stream
// campaign). Mapping a multi-message run onto the single-rumor NetResult
// is necessarily a summary: Reliability is the mean per-message
// reliability, Delivered the mean per-message first-receipt count, and
// SurvivorReliability repeats Reliability (per-message survivor sets are
// not tracked). Result details beyond that summary come from the Stream
// engine, not the campaign report.
func NewStreamExecutor(cfg stream.Config) Executor {
	return streamExecutor{cfg: cfg}
}

// IsStream reports whether e is a stream executor, which runs unprobed.
func IsStream(e Executor) bool { _, ok := e.(streamExecutor); return ok }

type streamExecutor struct {
	cfg stream.Config
}

func (e streamExecutor) Protocol() string {
	return fmt.Sprintf("stream-%s-%s", e.cfg.Discipline, e.cfg.Eviction)
}

func (e streamExecutor) Shape(RunConfig) (int, int) { return e.cfg.N, 0 }

func (e streamExecutor) Validate(RunConfig) error { return e.cfg.Validate() }

func (e streamExecutor) Execute(cfg RunConfig, r *xrand.RNG, inject func(*core.NetRun), arena *core.NetArena) (core.NetResult, error) {
	sc := e.cfg
	if sc.View == nil {
		// Non-consuming split: the uniform path leaves every downstream
		// stream byte-identical, matching ExecutePaper.
		ov, err := cfg.Topology.Build(sc.N, r.Split(topology.Split))
		if err != nil {
			return core.NetResult{}, err
		}
		if ov != nil {
			sc.View = ov
		}
	}
	sc.RoundInterval = resolveInterval(sc.RoundInterval, cfg.RoundInterval)
	var fabric *simnet.ShardedNet
	hook := func(nr *core.NetRun) {
		fabric = nr.Net
		if inject != nil {
			inject(nr)
		}
	}
	res, err := stream.RunProbed(sc, cfg.Net, r, hook, stream.NewArenaOn(arena), nil)
	if err != nil {
		return core.NetResult{}, err
	}
	return streamNetResult(res, fabric), nil
}

func (streamExecutor) Predict(RunConfig, float64) (float64, bool) { return 0, false }

// resolveInterval prefers the stream's own round interval, falling back
// to the campaign's.
func resolveInterval(own, campaign time.Duration) time.Duration {
	if own > 0 {
		return own
	}
	return campaign
}

// streamNetResult summarizes a streaming run in single-rumor NetResult
// terms for the campaign report.
func streamNetResult(res stream.Result, fabric *simnet.ShardedNet) core.NetResult {
	out := core.NetResult{
		SpreadTime:      res.End,
		DeliveryLatency: res.DeliveryLatency,
		Net:             res.Net,
		Queue:           res.Queue,
	}
	out.AliveCount = res.AliveCount
	if res.Published > 0 {
		out.Delivered = res.Delivered / res.Published
	}
	out.Reliability = res.MeanReliability
	out.MessagesSent = int(res.MessagesSent)
	out.Rounds = res.Rounds
	out.UpAtEnd = upCount(fabric)
	out.DeliveredUp = out.Delivered
	out.SurvivorReliability = res.MeanReliability
	return out
}

func upCount(fabric *simnet.ShardedNet) int {
	if fabric == nil {
		return 0
	}
	up := 0
	for id := 0; id < fabric.N(); id++ {
		if fabric.Up(simnet.NodeID(id)) {
			up++
		}
	}
	return up
}
