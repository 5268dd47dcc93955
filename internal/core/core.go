package core

import (
	"errors"
	"fmt"
	"math"

	"gossipkit/internal/dist"
	"gossipkit/internal/failure"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/membership"
	"gossipkit/internal/xrand"
)

// MaskKind selects how the alive set for an execution is drawn from q.
type MaskKind int

const (
	// ExactCount puts exactly ⌊n·q⌋ members alive (paper §4.1: "the
	// number of nonfailed nodes equals n*q"). The default.
	ExactCount MaskKind = iota
	// Bernoulli makes each member alive independently with probability q
	// (the percolation model's own assumption).
	Bernoulli
)

func (k MaskKind) String() string {
	switch k {
	case ExactCount:
		return "exact"
	case Bernoulli:
		return "bernoulli"
	default:
		return fmt.Sprintf("MaskKind(%d)", int(k))
	}
}

// Params configures the gossip model Gossip(n, P, q).
type Params struct {
	// N is the group size (n members).
	N int
	// Fanout is the fanout distribution P.
	Fanout dist.Distribution
	// AliveRatio is the nonfailed member ratio q in [0, 1].
	AliveRatio float64
	// Source is the member that initiates gossiping; it never fails.
	Source int
	// MaskKind selects the alive-set sampler; default ExactCount.
	MaskKind MaskKind
	// View is the membership view targets are drawn from; nil means a
	// full view over N members (the paper's setting).
	View membership.View
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.N < 2 || p.N > math.MaxInt32 {
		return fmt.Errorf("core: group size %d outside [2, 2³¹)", p.N)
	}
	if p.Fanout == nil {
		return errors.New("core: nil fanout distribution")
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("core: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	if p.Source < 0 || p.Source >= p.N {
		return fmt.Errorf("core: source %d out of range [0,%d)", p.Source, p.N)
	}
	if p.View != nil && p.View.N() != p.N {
		return fmt.Errorf("core: view size %d != group size %d", p.View.N(), p.N)
	}
	switch p.MaskKind {
	case ExactCount, Bernoulli:
	default:
		return fmt.Errorf("core: unknown mask kind %v", p.MaskKind)
	}
	return nil
}

func (p Params) view() membership.View {
	if p.View != nil {
		return p.View
	}
	return membership.NewFullView(p.N)
}

// drawMaskInto samples the alive set for one execution into m, redrawing it
// in place. A pooled mask consumes the same random stream as a fresh one
// (failure.Mask.FillExact, FillBernoulli), so pooled and fresh runs are
// byte-identical.
func (p Params) drawMaskInto(m *failure.Mask, r *xrand.RNG) {
	if p.MaskKind == Bernoulli {
		m.FillBernoulli(p.N, p.AliveRatio, p.Source, r)
		return
	}
	m.FillExact(p.N, p.AliveRatio, p.Source, r)
}

// Result reports the outcome of one execution of the gossiping algorithm.
type Result struct {
	// AliveCount is the number of nonfailed members in this execution.
	AliveCount int
	// Delivered is the number of nonfailed members (including the
	// source) that received m at least once.
	Delivered int
	// Reliability is Delivered/AliveCount — the paper's R(q, P) for one
	// execution.
	Reliability float64
	// MessagesSent is the total number of gossip messages sent.
	MessagesSent int
	// WastedOnFailed counts messages addressed to failed members.
	WastedOnFailed int
	// Duplicates counts messages delivered to members that already had m.
	Duplicates int
	// Rounds is the forwarding depth (hops from the source to the last
	// newly-infected member).
	Rounds int
}

// Draws are keyed by member (Salmon et al., "Parallel random numbers: as
// easy as 1, 2, 3", SC'11): an execution takes a key root off r before its
// mask, and member u draws its fanout, targets and losses from
// keys.SplitInto(·, u), its delays from index u|latencyKey, a re-gossip
// from one marked regossipKey. Neither the executor, the shard count nor
// the latency model changes what u draws (TestShardInvariance).
const latencyKey, regossipKey = 1 << 63, 1 << 62

// keyRoot takes an execution's key root off r with one draw.
func keyRoot(r *xrand.RNG) (keys xrand.RNG) {
	r.SplitInto(&keys, r.Uint64()) // the draw advances r before SplitInto reads it
	return keys
}

// ExecuteOnce runs one execution of the general gossiping algorithm with a
// freshly drawn failure mask, consuming randomness from r.
func ExecuteOnce(p Params, r *xrand.RNG) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return newExecutor(p).execute(r), nil
}

// executor holds the reusable per-worker buffers for executions. One
// executor serves many runs of the same Params (same N and view), which
// keeps the Monte-Carlo inner loop allocation-free — the failure mask
// included: execute redraws the executor's own.
type executor struct {
	params   Params
	view     membership.View
	mask     failure.Mask
	received []bool
	depth    []int32
	queue    []int32
	targets  []int
	draws    xrand.RNG // the forwarding member's stream
}

// newExecutor allocates buffers for p. p must already be validated.
func newExecutor(p Params) *executor {
	return &executor{
		params:   p,
		view:     p.view(),
		received: make([]bool, p.N),
		depth:    make([]int32, p.N),
		queue:    make([]int32, 0, p.N),
		targets:  make([]int, 0, 16),
	}
}

// execute takes a key root and redraws the executor's mask off r, and runs.
func (e *executor) execute(r *xrand.RNG) Result {
	keys := keyRoot(r)
	e.params.drawMaskInto(&e.mask, r)
	return e.run(&e.mask, &keys)
}

// run is the heart of the reproduction: a queue-based simulation of the
// spread. Members are processed in BFS order; each alive member, on first
// receipt, draws a fanout and targets from its stream off keys and forwards.
// A message to a failed member counts in WastedOnFailed and is skipped.
//
// After run returns, e.delivered() lists the alive members that received m
// (including the source), valid until the next run.
func (e *executor) run(mask *failure.Mask, keys *xrand.RNG) Result {
	p := e.params
	res := Result{AliveCount: mask.AliveCount()}

	for i := range e.received {
		e.received[i] = false
		e.depth[i] = 0
	}
	e.queue = e.queue[:0]

	e.received[p.Source] = true
	e.queue = append(e.queue, int32(p.Source))
	res.Delivered = 1

	for head := 0; head < len(e.queue); head++ {
		u := int(e.queue[head])
		keys.SplitInto(&e.draws, uint64(u))
		f := p.Fanout.Sample(&e.draws)
		e.targets = e.view.SampleTargets(e.targets, u, f, &e.draws)
		res.MessagesSent += len(e.targets)
		for _, v := range e.targets {
			if !mask.Alive(v) {
				res.WastedOnFailed++
				continue
			}
			if e.received[v] {
				res.Duplicates++
				continue
			}
			e.received[v] = true
			e.depth[v] = e.depth[u] + 1
			if int(e.depth[v]) > res.Rounds {
				res.Rounds = int(e.depth[v])
			}
			res.Delivered++
			e.queue = append(e.queue, int32(v))
		}
	}
	if res.AliveCount > 0 {
		res.Reliability = float64(res.Delivered) / float64(res.AliveCount)
	}
	return res
}

// delivered returns the alive members that received m in the last run,
// in BFS order starting with the source. The slice is reused by the next
// run.
func (e *executor) delivered() []int32 { return e.queue }

// ---------------------------------------------------------------------------
// Analytic predictions

// Prediction bundles the model's analytic outputs for a parameter set.
type Prediction struct {
	// Reliability is R(q, P): the giant-component size among nonfailed
	// members (paper Eq. 4 / Eq. 11).
	Reliability float64
	// CriticalRatio is q_c = 1/G1'(1) (paper Eq. 3).
	CriticalRatio float64
	// MeanFanout is E[P], for reference.
	MeanFanout float64
	// Supercritical reports whether q > q_c.
	Supercritical bool
}

// Predict evaluates the analytic model for p.
func Predict(p Params) (Prediction, error) {
	if err := p.Validate(); err != nil {
		return Prediction{}, err
	}
	m := genfunc.New(p.Fanout)
	rel, err := m.Reliability(p.AliveRatio)
	if err != nil {
		return Prediction{}, err
	}
	qc := m.CriticalRatio()
	return Prediction{
		Reliability:   rel,
		CriticalRatio: qc,
		MeanFanout:    p.Fanout.Mean(),
		Supercritical: p.AliveRatio > qc,
	}, nil
}
