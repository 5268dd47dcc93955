package gossipkit

import (
	"context"
	"fmt"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// Network is the engine for event-driven executions over the simulated
// network: each replication runs the gossiping algorithm with per-message
// latency, loss, and partitions, reporting timing alongside delivery.
//
// Replications recycle one run-state arena per worker internally (kernel
// queue, network buffers, receive flags), so large-n sweeps make zero
// O(n)-sized allocations after warm-up — arena management is no longer the
// caller's job. Report.Detail is the per-run NetResult.
type Network struct {
	// Params is the gossip model Gossip(n, P, q) under execution.
	Params Params
	// Net configures the simulated network substrate (latency model, loss
	// model); the zero value is an ideal network.
	Net NetConfig
}

// Name implements Engine.
func (Network) Name() string { return "network" }

func (s Network) validate(o *runOptions) error {
	if err := s.Params.Validate(); err != nil {
		return invalid(err)
	}
	if err := validateNet(s.Net); err != nil {
		return err
	}
	if err := o.topology.Validate(s.Params.N); err != nil {
		return invalid(err)
	}
	if !o.topology.IsUniform() && s.Params.View != nil {
		return fmt.Errorf("%w: WithTopology conflicts with a caller-set Params.View", ErrInvalidParams)
	}
	return nil
}

func (s Network) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	// Each replication runs on o.shards shard kernels — one when WithShards
	// is absent. A non-uniform WithTopology overlay is generated per
	// replication from a non-consuming split of the run's stream, so the
	// uniform spec stays byte-identical to not setting the option and the
	// overlay is the same for every shard count.
	shardOpts := o.shardOptions()
	return nil, replicate(ctx, o, o.newDESState,
		func(r *xrand.RNG, st desState) (Report, error) {
			p := s.Params
			if ov, err := o.topology.Build(p.N, r.Split(topology.Split)); err != nil {
				return Report{}, err
			} else if ov != nil {
				p.View = ov
			}
			res, err := core.ExecuteOnNetworkSharded(p, s.Net, r, nil, st.arena, st.probe, shardOpts)
			return netReport(res, st.probe.Metrics()), err
		}, emit)
}

// desState is one worker's pooled run state on the discrete-event engines
// (Network and Baseline): the arena every run on the worker
// recycles and, under WithProbe, the probe re-Attached to each run. A
// run's telemetry is snapshotted on the worker (Metrics deep-copies)
// before the probe moves on.
type desState struct {
	arena *core.NetArena
	probe *obs.Probe
}

func (o *runOptions) newDESState() desState {
	st := desState{arena: core.NewNetArena()}
	if o.probe != nil {
		st.probe = obs.New(*o.probe)
	}
	return st
}

// shardOptions resolves WithShards and WithShardProgress for the
// executors; an absent WithShards is 0, which core reads as one shard.
func (o *runOptions) shardOptions() core.ShardOptions {
	opts := core.ShardOptions{Shards: o.shards}
	if fn := o.shardProgress; fn != nil {
		opts.Progress = func(events uint64, now sim.Time) { fn(events, now.Duration()) }
	}
	return opts
}

func netReport(res NetResult, m *obs.Metrics) Report {
	return Report{
		Reliability:  res.Reliability,
		Delivered:    res.Delivered,
		AliveCount:   res.AliveCount,
		MessagesSent: res.MessagesSent,
		SpreadMs:     float64(res.SpreadTime) / float64(time.Millisecond),
		Metrics:      m,
		Detail:       res,
	}
}
