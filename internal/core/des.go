package core

import (
	"time"

	"gossipkit/internal/bitset"
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
// it). All methods must be called from the kernel goroutine — i.e. from
// inside scheduled events or before the run starts.
type NetRun struct {
	// Kernel is the discrete-event driver; hooks schedule future actions
	// with Kernel.At / Kernel.After. It is the execution's control kernel
	// (RunState.Control): on more than one shard its events fire at window
	// barriers with every shard worker parked, which is exactly when shard
	// state is safely mutable.
	Kernel *sim.Kernel
	// Net is the network fabric under execution (crash, restart,
	// partition, loss and latency swaps): the executors' *simnet.ShardedNet
	// or a round-driven front end's single *simnet.Network.
	Net simnet.Fabric
	// View is the membership view targets are drawn from; scenario churn
	// mutates it when it is a *membership.PartialViews.
	View        membership.View
	mask        *failure.Mask
	hasReceived func(id int) bool
	delivered   func() int
	pending     func() int
	publish     func(id int)
}

// NewNetRun assembles the injection facade for a simulation front end
// other than this package's own executor — the protocol baseline runtime
// in internal/protocols builds one so scenario campaigns can drive its
// executions through the exact seam they drive the paper's algorithm
// through. received must be the run's first-receipt bitset, delivered a
// pointer to its delivered-member counter, and publish the protocol's
// out-of-band publish hook (may be nil for protocols without one).
func NewNetRun(kernel *sim.Kernel, net simnet.Fabric, view membership.View,
	mask *failure.Mask, received *bitset.Bits, delivered *int, publish func(id int)) *NetRun {
	if publish == nil {
		publish = func(int) {}
	}
	return &NetRun{
		Kernel: kernel, Net: net, View: view, mask: mask,
		hasReceived: received.Get,
		delivered:   func() int { return *delivered },
		publish:     publish,
	}
}

// NewNetRunFuncs is NewNetRun for front ends whose receipt state is not a
// single bitset — the streaming engine's per-message delivery matrix, for
// example — so the predicates are supplied directly. pending may be nil
// (NetRun falls back to Kernel.Pending); publish may be nil (a no-op).
func NewNetRunFuncs(kernel *sim.Kernel, net simnet.Fabric, view membership.View,
	mask *failure.Mask, hasReceived func(id int) bool, delivered func() int,
	pending func() int, publish func(id int)) *NetRun {
	if publish == nil {
		publish = func(int) {}
	}
	return &NetRun{
		Kernel: kernel, Net: net, View: view, mask: mask,
		hasReceived: hasReceived,
		delivered:   delivered,
		pending:     pending,
		publish:     publish,
	}
}

// HasReceived reports whether id has received the multicast so far.
func (nr *NetRun) HasReceived(id int) bool { return nr.hasReceived(id) }

// Delivered returns the number of members that have received the multicast
// so far. Stall-triggered scenario steps watch this counter to detect a
// spread that has stopped making progress.
func (nr *NetRun) Delivered() int { return nr.delivered() }

// Pending returns the number of live events still scheduled across the
// execution — on a sharded run the control kernel, every shard kernel,
// and the cross-shard buffers together. Recurring scenario steps use it
// (not Kernel.Pending, which sees only the control kernel) to decide
// whether the execution is still alive.
func (nr *NetRun) Pending() int {
	if nr.pending != nil {
		return nr.pending()
	}
	return nr.Kernel.Pending()
}

// Restartable reports whether id may be restarted: only members that were
// alive under the execution's initial failure mask have a registered
// handler; mask-failed members are permanently gone (fail-stop) and
// restarting them would create zombies that absorb messages without
// processing them.
func (nr *NetRun) Restartable(id int) bool { return nr.mask.Alive(id) }

// Publish makes id gossip the message: if id has not received m yet it
// obtains it out of band (an additional publisher — flash crowd), otherwise
// it forwards it again (re-gossip). Crashed nodes cannot publish.
func (nr *NetRun) Publish(id int) { nr.publish(id) }

// NetArena pools the per-run state of network executions for every shard
// count: the shard kernels (event queue, calendar buckets) and the control
// kernel, the fabric with one network per shard (packed up flags, pooled
// message slots), the failure mask (packed alive flags plus its sampling
// scratch), and each shard's receive bitset, target buffer, counters and
// streaming matrices. One arena serves many runs — the scenario sweep
// workers recycle one arena each — and after the first run at a given
// shape an execution performs zero O(n)-sized allocations: every piece of
// run state is redrawn in place. An arena is single-goroutine state
// between runs (an execution itself fans out to its shard workers); never
// share one across sweep workers.
type NetArena struct {
	shards   int // shard count of the next execution; the pools below never shrink
	kernels  []*sim.Kernel
	ctl      *sim.Kernel // control kernel of runs on more than one shard
	net      *simnet.ShardedNet
	mask     *failure.Mask
	states   []shardState
	msgBits  []*MessageBits // per-shard delivery matrices (streaming runs)
	nackBits []*MessageBits // per-shard pending-repair matrices (push-pull)
}

// NewNetArena returns an empty arena sized for one shard; buffers grow on
// first use.
func NewNetArena() *NetArena {
	a := &NetArena{net: simnet.NewShardedNet(), mask: &failure.Mask{}}
	return a.Sharded(1)
}

// Sharded sizes the arena for executions on the given shard count,
// retaining every pooled buffer, and returns it. A nil receiver returns
// nil (executors build a throwaway arena).
func (a *NetArena) Sharded(shards int) *NetArena {
	if a == nil {
		return nil
	}
	a.shards = shards
	for len(a.kernels) < shards {
		a.kernels = append(a.kernels, sim.New())
		a.states = append(a.states, shardState{})
		a.msgBits = append(a.msgBits, &MessageBits{})
		a.nackBits = append(a.nackBits, &MessageBits{})
	}
	if shards > 1 && a.ctl == nil {
		a.ctl = sim.New()
	}
	return a
}

// RunState is the pooled state a simulation front end builds one execution
// from, on as many shards as the arena was last sized for.
type RunState struct {
	// Kernels are the shard kernels, one per shard.
	Kernels []*sim.Kernel
	// Control carries coordinator-side events (scenario actions). On one
	// shard it is Kernels[0] itself, so control events interleave with
	// deliveries on one clock; on more it is a kernel of its own whose
	// events fire at window barriers.
	Control *sim.Kernel
	// Net is the fabric; Net.Shard(s) is shard s's network.
	Net  *simnet.ShardedNet
	Mask *failure.Mask
	// Received is shard 0's first-receipt bitset — the whole group's on a
	// one-shard lease.
	Received *bitset.Bits
	// Bits and Nacks are the per-shard delivery and pending-repair
	// matrices of streaming runs, to be Reset by their shard.
	Bits, Nacks []*MessageBits
}

// State hands out the arena's pooled run state for the shard count it was
// last sized for. Only the control kernel of a multi-shard run comes Reset
// (the coordinator owns it); everything per-shard — kernel, network,
// bitsets, matrices — is for the caller to reset from that shard's own
// goroutine, so each shard first-touches the memory it will run on. The
// lease is valid until the arena's next State, Lease or executor call.
func (a *NetArena) State() RunState {
	k := a.shards
	ctl := a.kernels[0]
	if k > 1 {
		ctl = a.ctl
		ctl.Reset()
	}
	return RunState{
		Kernels: a.kernels[:k], Control: ctl, Net: a.net, Mask: a.mask,
		Received: &a.states[0].received, Bits: a.msgBits[:k], Nacks: a.nackBits[:k],
	}
}

// Lease is State for front ends that run on one shard (the protocol
// baseline runtime): it sizes the arena for one shard and resets the
// kernel, the network over netCfg and the first-receipt bitset for a
// fresh n-node run (fill the mask before use). Results are byte-identical
// whether the arena is fresh or recycled.
func (a *NetArena) Lease(n int, netCfg simnet.Config, netRNG *xrand.RNG) RunState {
	st := a.Sharded(1).State()
	st.Control.Reset()
	st.Net.Prepare(1, n, netCfg)
	st.Net.ResetShard(0, st.Control, netRNG)
	st.Received.Reset(n)
	return st
}

// Pending counts the live events of the execution: on the control kernel,
// on every shard kernel, and parked in the cross-shard buffers.
func (st RunState) Pending() int {
	n := st.Net.Buffered()
	if st.Control != st.Kernels[0] {
		n += st.Control.Pending()
	}
	for _, k := range st.Kernels {
		n += k.Pending()
	}
	return n
}

// OnShard runs fn on shard s's clock from a control event. When the
// control kernel is that shard's kernel fn runs inline; otherwise it is
// parked on the shard's kernel at the control kernel's current time, which
// is strictly ahead of the shard's clock (that stopped before the
// barrier).
func (st RunState) OnShard(s int, fn func(now sim.Time)) {
	now := st.Control.Now()
	if st.Kernels[s] == st.Control {
		fn(now)
		return
	}
	st.Kernels[s].At(now, func() { fn(now) })
}

// Targets leases the arena's pooled target-sampling buffer; pair with
// SetTargets to return the (possibly grown) buffer when the run finishes.
func (a *NetArena) Targets() []int { return a.states[0].targets }

// SetTargets returns the sampling buffer leased with Targets.
func (a *NetArena) SetTargets(t []int) { a.states[0].targets = t }

// ExecuteOnNetwork runs one execution of the general gossiping algorithm as
// an event-driven protocol over a simulated network: each first receipt
// triggers fanout selection and sends, each send incurs the network's
// latency and loss. With zero latency and no loss the set of members
// reached is distributed identically to ExecuteOnce (an integration test
// asserts this); with loss or partitions, the network becomes an additional
// failure source beyond the paper's model. It is ExecuteOnNetworkSharded
// on one shard, like the two variants below.
func ExecuteOnNetwork(p Params, netCfg simnet.Config, r *xrand.RNG) (NetResult, error) {
	return ExecuteOnNetworkSharded(p, netCfg, r, nil, nil, nil, ShardOptions{Shards: 1})
}

// ExecuteOnNetworkArena is ExecuteOnNetwork with a fault-injection hook
// and caller-supplied buffer reuse, both optional (see
// ExecuteOnNetworkSharded).
func ExecuteOnNetworkArena(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), arena *NetArena) (NetResult, error) {
	return ExecuteOnNetworkSharded(p, netCfg, r, inject, arena, nil, ShardOptions{Shards: 1})
}

// ExecuteOnNetworkProbed is ExecuteOnNetworkArena under telemetry (see
// ExecuteOnNetworkSharded).
func ExecuteOnNetworkProbed(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), arena *NetArena, probe *obs.Probe) (NetResult, error) {
	return ExecuteOnNetworkSharded(p, netCfg, r, inject, arena, probe, ShardOptions{Shards: 1})
}

// TimingEquivalent reruns p under both crash timings with identical
// randomness and reports whether the delivered sets match. It backs the
// paper's claim that the two failure cases "are treated the same".
func TimingEquivalent(p Params, seed uint64) (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	run := func(tm failure.Timing) ([]int32, *failure.Mask, error) {
		pp := p
		pp.Timing = tm
		r := xrand.New(seed)
		mask := pp.drawMask(r)
		ex := newExecutor(pp)
		ex.run(mask, r)
		out := append([]int32(nil), ex.delivered()...)
		return out, mask, nil
	}
	a, _, err := run(failure.BeforeReceive)
	if err != nil {
		return false, err
	}
	b, _, err := run(failure.AfterReceive)
	if err != nil {
		return false, err
	}
	if len(a) != len(b) {
		return false, nil
	}
	for i := range a {
		if a[i] != b[i] {
			return false, nil
		}
	}
	return true, nil
}
