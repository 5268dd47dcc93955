package core

import (
	"time"

	"gossipkit/internal/failure"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// NetResult extends Result with timing information from a discrete-event
// execution over a simulated network.
type NetResult struct {
	Result
	// SpreadTime is the simulated time at which the last alive member
	// received m.
	SpreadTime time.Duration
	// DeliveryLatency summarizes per-member first-receipt latencies.
	DeliveryLatency stats.Running
	// Net is the network's final counters.
	Net simnet.Stats
	// UpAtEnd is the number of nodes still up when the execution drained
	// (differs from AliveCount when fault-injection hooks crash or
	// restart nodes mid-run).
	UpAtEnd int
	// DeliveredUp is the number of nodes that received m and were still
	// up at the end.
	DeliveredUp int
	// SurvivorReliability is DeliveredUp/UpAtEnd: delivery measured over
	// the members that survived the whole execution.
	SurvivorReliability float64
}

// NetRun exposes a running network execution to fault-injection hooks (the
// scenario engine in internal/scenario schedules its timed actions through
// it). Run.NetRun builds it; all methods must be called from the kernel
// goroutine — i.e. from inside scheduled events or before the run starts.
type NetRun struct {
	// Kernel is the discrete-event driver; hooks schedule future actions
	// with Kernel.At / Kernel.After. It is the execution's control kernel
	// (Run.Control): its events fire at window barriers with every shard
	// worker parked, which is exactly when shard state is safely mutable,
	// and ahead of every shard event due at the same instant.
	Kernel *sim.Kernel
	// Net is the network fabric under execution (crash, restart,
	// partition, loss and latency swaps).
	Net *simnet.ShardedNet
	// View is the membership view targets are drawn from; scenario churn
	// mutates it when it is a *membership.PartialViews.
	View  membership.View
	run   *Run
	hooks RunHooks
}

// HasReceived reports whether id has received the multicast so far.
func (nr *NetRun) HasReceived(id int) bool { return nr.hooks.HasReceived(id) }

// Delivered returns the number of members that have received the multicast
// so far. Stall-triggered scenario steps watch this counter to detect a
// spread that has stopped making progress.
func (nr *NetRun) Delivered() int { return nr.hooks.Delivered() }

// Pending returns the number of live events still scheduled across the
// execution — on a sharded run the control kernel, every shard kernel,
// and the cross-shard buffers together. Recurring scenario steps use it
// (not Kernel.Pending, which sees only the control kernel) to decide
// whether the execution is still alive.
func (nr *NetRun) Pending() int { return nr.run.Pending() }

// Restartable reports whether id may be restarted: only members that were
// alive under the execution's initial failure mask have a registered
// handler; mask-failed members are permanently gone (fail-stop) and
// restarting them would create zombies that absorb messages without
// processing them.
func (nr *NetRun) Restartable(id int) bool { return nr.run.Mask.Alive(id) }

// Publish makes id gossip the message: if id has not received m yet it
// obtains it out of band (an additional publisher — flash crowd), otherwise
// it forwards it again (re-gossip). Out-of-range, crashed and mask-failed
// members cannot publish.
func (nr *NetRun) Publish(id int) {
	if id < 0 || id >= nr.Net.N() || !nr.Net.Up(simnet.NodeID(id)) || !nr.run.Mask.Alive(id) {
		return
	}
	nr.hooks.Publish(id)
}

// NetArena pools the per-run state of network executions for every shard
// count, handed out by Begin as a Run: the shard kernels (event queue,
// calendar buckets) and the control kernel, the fabric with one network
// per shard (packed up flags, pooled message slots), the failure mask
// (packed alive flags plus its sampling scratch), and each shard's receive
// bitset, target buffer, counters and streaming matrices. One arena serves
// many runs — the scenario sweep workers recycle one arena each — and
// after the first run at a given shape an execution performs zero
// O(n)-sized allocations: every piece of run state is redrawn in place. An
// arena is single-goroutine state between runs (an execution itself fans
// out to its shard workers); never share one across sweep workers.
type NetArena struct {
	kernels  []*sim.Kernel // the pools below never shrink
	ctl      *sim.Kernel   // every run's control kernel
	net      *simnet.ShardedNet
	mask     *failure.Mask
	states   []shardState
	msgBits  []*MessageBits // per-shard delivery matrices (streaming runs)
	nackBits []*MessageBits // per-shard pending-repair matrices (push-pull)
	run      Run            // the current lease

	// Views, when non-nil, is the memo that protocol runs build their
	// SCAMP views through. A sweep hangs one memo on all its workers'
	// arenas; unlike the rest of the arena it is safe to share.
	Views *membership.ViewMemo
}

// NewNetArena returns an empty arena sized for one shard; buffers grow on
// first use.
func NewNetArena() *NetArena {
	a := &NetArena{ctl: sim.New(), net: simnet.NewShardedNet(), mask: &failure.Mask{}}
	return a.Sharded(1)
}

// Sharded grows the arena's pools to the given shard count ahead of a run
// (Begin does so anyway), retaining every pooled buffer, and returns it.
func (a *NetArena) Sharded(shards int) *NetArena {
	for len(a.kernels) < shards {
		a.kernels = append(a.kernels, sim.New())
		a.states = append(a.states, shardState{})
		a.msgBits = append(a.msgBits, &MessageBits{})
		a.nackBits = append(a.nackBits, &MessageBits{})
	}
	return a
}

// Targets leases the arena's pooled target-sampling buffer; pair with
// SetTargets to return the (possibly grown) buffer when the run finishes.
func (a *NetArena) Targets() []int { return a.states[0].targets }

// SetTargets returns the sampling buffer leased with Targets.
func (a *NetArena) SetTargets(t []int) { a.states[0].targets = t }

// ExecuteOnNetworkArena runs one execution of the general gossiping
// algorithm as an event-driven protocol over a simulated network: each first
// receipt triggers fanout selection and sends, each send incurs the
// network's latency and loss. With zero latency and no loss it reaches the
// members ExecuteOnce reaches on the same r, with the same messages
// (TestExecuteOnNetworkMatchesFastPath and TestShardInvariance assert
// this); with loss or partitions, the network becomes an additional
// failure source beyond the paper's model. It is
// ExecuteOnNetworkSharded on one shard, like the variant below, with a
// fault-injection hook and caller-supplied buffer reuse, both optional (see
// there).
func ExecuteOnNetworkArena(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), arena *NetArena) (NetResult, error) {
	return ExecuteOnNetworkSharded(p, netCfg, r, inject, arena, nil, ShardOptions{Shards: 1})
}

// ExecuteOnNetworkProbed is ExecuteOnNetworkArena under telemetry (see
// ExecuteOnNetworkSharded).
func ExecuteOnNetworkProbed(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), arena *NetArena, probe *obs.Probe) (NetResult, error) {
	return ExecuteOnNetworkSharded(p, netCfg, r, inject, arena, probe, ShardOptions{Shards: 1})
}
