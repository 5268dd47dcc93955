package protocols

import (
	"fmt"
	"time"

	"gossipkit/internal/bitset"
	"gossipkit/internal/core"
	"gossipkit/internal/failure"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// Protocol message tags (simnet.Message.Tag). They stay below 2¹⁴, inside
// simnet's packed band for every n ≤ 2²⁴, so every protocol message is
// slot-free on the network hot path.
const (
	tagGossip   int32 = iota // data push carrying the payload
	tagAEReq                 // anti-entropy contact, caller clean at round start
	tagAEReqHot              // anti-entropy contact, caller infected at round start
	tagAEReply               // anti-entropy pull reply carrying the payload
	tagDigest                // RDG digest-only push (packet id, no payload)
	tagNack                  // RDG/LRG pull request
	tagRepair                // RDG/LRG retransmission answering a NACK
)

// DESConfig configures a baseline protocol execution on the shared
// discrete-event substrate.
type DESConfig struct {
	// Net is the network substrate (latency model, loss model, tracer).
	// The zero value — zero latency, no loss — reproduces the legacy
	// synchronous round loop of every protocol exactly.
	Net simnet.Config
	// RoundInterval is the simulated-time spacing of gossip round ticks.
	// Zero derives it from the latency model (simnet.Config.RoundInterval)
	// so a synchronous-round baseline sees round r's messages land before
	// round r+1 fires, preserving its round semantics under latency. Set
	// it below the latency bound to study
	// pipelining: a round's messages may still be in flight when the next
	// round fires, which the quiescence checks account for via
	// simnet.Stats.InFlight.
	RoundInterval time.Duration
	// Probe, when non-nil, observes the run: virtual-time curves,
	// delivery-latency and rounds-to-delivery histograms, per-emission
	// fanout, optional ring tracing. The probe neither consumes the run's
	// RNG streams nor schedules kernel events, so results are
	// bit-identical with it on or off; nil is the zero-overhead off
	// state. Snapshot Probe.Metrics() after the run.
	Probe *obs.Probe
	// Topology selects the gossip overlay the protocol picks targets
	// from (internal/topology). The zero value is the uniform
	// full-membership selection every legacy loop assumes, and leaves all
	// protocol RNG streams byte-identical. A non-uniform spec builds an
	// Overlay per run from a non-consuming split of the run RNG and
	// routes every target draw — pbcast/lpbcast/RDG fanout waves,
	// anti-entropy peer picks, LRG's fixed graph, flooding's blast —
	// through its neighbor sets.
	Topology topology.Spec
}

// Spec is a protocol parameter set that can run on the DES substrate: all
// six baseline param types implement it.
type Spec interface {
	// Protocol names the baseline ("pbcast", "lpbcast", "anti-entropy",
	// "rdg", "lrg", "flooding").
	Protocol() string
	// Validate checks the parameters.
	Validate() error

	size() int  // group size n
	start() int // source member
	newMachine() machine
}

// Shape returns the group size and protected source member of a spec —
// the geometry callers outside this package (the scenario executor seam)
// need to schedule campaigns against a baseline run.
func Shape(s Spec) (n, source int) { return s.size(), s.start() }

// machine is one protocol's per-run state machine on the runtime: init
// draws protocol state from the run RNG in exactly the legacy loop's
// order, tick executes one gossip round (returning false to stop the
// ticker), deliver consumes a network message at an up node, publish
// injects m out of band (scenario flash crowds and re-gossip waves), and
// detail builds the protocol-shaped result after the run drains.
type machine interface {
	init(rt *Runtime)
	tick(rt *Runtime, round int) bool
	deliver(rt *Runtime, now sim.Time, msg simnet.Message)
	publish(rt *Runtime, id int)
	detail(rt *Runtime) any
}

// Runtime is the shared round-driver all six baselines execute on: it
// holds a one-shard core.Run's kernel, network and failure mask and the
// cross-protocol bookkeeping (first receipts, delivery latency, message
// counts), while a per-protocol machine supplies the round and delivery
// logic. Every protocol message is routed through simnet, so latency,
// loss, partitions, and mid-run crashes apply to the baselines exactly as
// they do to the paper's algorithm in internal/core.
type Runtime struct {
	// Kernel drives the run; Net carries every protocol message; RNG is
	// the protocol decision stream (legacy-identical order); Mask is the
	// static fail-stop mask.
	Kernel *sim.Kernel
	Net    *simnet.Network
	RNG    *xrand.RNG
	Mask   *failure.Mask

	n, source int
	interval  time.Duration
	m         machine
	recv      *bitset.Bits
	targets   []int
	view      membership.View
	views     *membership.ViewMemo // the arena's, nil outside a sweep
	res       core.NetResult
	probe     *obs.Probe
	round     int // index of the last round tick fired; -1 before the first
}

// DESOutcome is the result of one baseline execution on the DES substrate:
// the cross-protocol NetResult (what scenario campaigns and the comparison
// grid consume) plus the protocol-shaped Detail (Result, LpbcastResult,
// AntiEntropyResult, or RDGResult — identical to the legacy loop's output
// under a zero-latency, no-loss network).
type DESOutcome struct {
	core.NetResult
	Detail any
}

// RunOnDES executes one run of spec as an event-driven protocol over the
// simulated network, on a one-shard core.Run. Protocol decisions consume r
// exactly as the legacy round loop does (the network's jitter stream is a
// split of r, which leaves r untouched), so with the zero DESConfig the
// outcome Detail is identical to the corresponding legacy Run* function —
// equiv_test.go pins this per protocol. inject, when non-nil, is called
// with the run's core.NetRun after setup and before the first round tick,
// so scenario campaigns schedule crashes, partitions, loss episodes, and
// publishes on baseline runs through the same seam as paper runs. arena
// (nil for a throwaway one) recycles the kernel, network, mask, and
// receipt state across runs, and lpbcast and RDG build their SCAMP views
// through its Views memo; results are byte-identical either way.
func RunOnDES(spec Spec, cfg DESConfig, r *xrand.RNG, inject func(*core.NetRun), arena *core.NetArena) (DESOutcome, error) {
	if err := spec.Validate(); err != nil {
		return DESOutcome{}, err
	}
	if arena == nil {
		arena = core.NewNetArena()
	}
	n := spec.size()
	run := arena.Lease(n, cfg.Net, r)
	// The topology split is non-consuming, so the uniform (nil-overlay)
	// path leaves every protocol decision stream byte-identical to the
	// legacy-pinned behavior.
	ov, err := cfg.Topology.Build(n, r.Split(topology.Split))
	if err != nil {
		return DESOutcome{}, fmt.Errorf("protocols: %s: %w", spec.Protocol(), err)
	}
	rt := &Runtime{
		Kernel: run.Control, Net: run.Net.Shard(0), RNG: r, Mask: run.Mask,
		n: n, source: spec.start(), interval: cfg.Net.RoundInterval(cfg.RoundInterval),
		m: spec.newMachine(), recv: run.Received, targets: arena.Targets(),
		views: arena.Views, probe: cfg.Probe, round: -1,
	}
	if ov != nil {
		rt.view = ov
	}
	defer func() { arena.SetTargets(rt.targets) }()
	rt.probe.Attach(rt.Net, n, &rt.res.Delivered)

	rt.m.init(rt)
	rt.res.AliveCount = rt.Mask.AliveCount()
	run.CrashFailed(0)
	rt.Net.RegisterAll(func(now sim.Time, msg simnet.Message) {
		rt.m.deliver(rt, now, msg)
	})

	if inject != nil {
		inject(run.NetRun(rt.view, core.RunHooks{
			HasReceived: rt.recv.Get,
			Delivered:   func() int { return rt.res.Delivered },
			Publish:     func(id int) { rt.m.publish(rt, id) },
		}))
	}

	// Round ticks fire at t = 0, interval, 2·interval, ... — after any
	// t=0 campaign actions the hook scheduled above, so a loss episode or
	// crash at time zero applies to round 0's sends.
	round := 0
	rt.Kernel.Every(0, rt.interval, func() bool {
		rt.round = round
		cont := rt.m.tick(rt, round)
		round++
		return cont
	})
	if err := run.Drive(); err != nil {
		return DESOutcome{}, fmt.Errorf("protocols: %s execution aborted: %w", spec.Protocol(), err)
	}
	rt.probe.Finish(rt.Kernel.Now())
	run.Close(&rt.res)
	return DESOutcome{NetResult: rt.res, Detail: rt.m.detail(rt)}, nil
}

// seedSource marks the source as holding m before the clock starts, with
// no delivery-latency sample — mirroring core's source bootstrap.
func (rt *Runtime) seedSource() {
	rt.recv.Set(rt.source)
	rt.res.Delivered++
	rt.probe.ObserveSeed(rt.source)
}

// markReceived records id's first receipt of m at now and reports whether
// it was new. The caller decides whether a repeat counts as a duplicate.
func (rt *Runtime) markReceived(id int, now sim.Time) bool {
	if rt.recv.Get(id) {
		return false
	}
	rt.recv.Set(id)
	rt.res.Delivered++
	rt.res.DeliveryLatency.Add(now.Seconds())
	if d := now.Duration(); d > rt.res.SpreadTime {
		rt.res.SpreadTime = d
	}
	// Rounds-to-delivery is 1-based: a receipt during or right after the
	// round-0 wave counts as 1 round; a pre-tick publish counts as 0.
	rt.probe.ObserveFirstReceiptRound(id, rt.round+1, now)
	return true
}

// upAlive reports whether id participates in rounds: alive under the
// static mask and currently up at the network layer (scenario crashes take
// members out mid-run; restarts bring mask-alive members back).
func (rt *Runtime) upAlive(id int) bool {
	return rt.Mask.Alive(id) && rt.Net.Up(simnet.NodeID(id))
}

// fanoutBlast sends one uniform-fanout gossip wave from `from`, with the
// same sampling and accounting as the legacy pbcast round loop. When a
// topology overlay is installed, targets come from `from`'s neighbor set
// instead of the full membership.
func (rt *Runtime) fanoutBlast(from, fanout int) {
	rt.targets = rt.sampleTargets(from, fanout)
	rt.res.MessagesSent += len(rt.targets)
	rt.probe.ObserveFanout(len(rt.targets))
	for _, v := range rt.targets {
		if !rt.Mask.Alive(v) {
			rt.res.WastedOnFailed++
		}
		rt.Net.SendTag(simnet.NodeID(from), simnet.NodeID(v), tagGossip)
	}
}

// overlay returns the topology overlay the run gossips over, nil when
// selection is uniform (or the view is a protocol's own SCAMP views).
func (rt *Runtime) overlay() *topology.Overlay {
	ov, _ := rt.view.(*topology.Overlay)
	return ov
}

// sampleTargets draws up to fanout distinct targets for from: from the
// overlay's live neighbor set when a topology is installed, else
// uniformly from the full membership — consuming exactly the legacy
// loop's RNG stream on the uniform path.
func (rt *Runtime) sampleTargets(from, fanout int) []int {
	if ov := rt.overlay(); ov != nil {
		return ov.SampleTargets(rt.targets, from, fanout, rt.RNG)
	}
	return rt.RNG.SampleExcluding(rt.targets, rt.n, fanout, from)
}

// pickPeer draws one gossip peer for id: a live overlay neighbor when a
// topology is installed (ok=false when id has none left), else uniform
// over the other n−1 members via the legacy rejection loop.
func (rt *Runtime) pickPeer(id int) (int, bool) {
	if ov := rt.overlay(); ov != nil {
		rt.targets = ov.SampleTargets(rt.targets, id, 1, rt.RNG)
		if len(rt.targets) == 0 {
			return 0, false
		}
		return rt.targets[0], true
	}
	peer := id
	for peer == id {
		peer = rt.RNG.Intn(rt.n)
	}
	return peer, true
}

// baseResult flattens the runtime's shared bookkeeping into the common
// protocol Result.
func (rt *Runtime) baseResult() Result {
	res := Result{
		AliveCount:   rt.res.AliveCount,
		Delivered:    rt.res.Delivered,
		MessagesSent: rt.res.MessagesSent,
		Rounds:       rt.res.Rounds,
	}
	finish(&res)
	return res
}

// inFlight reports how many accepted messages are still airborne; the
// quiescence checks use it so pipelined rounds under real latency do not
// declare "no progress" while deliveries are pending.
func (rt *Runtime) inFlight() int64 { return rt.Net.Stats().InFlight() }
