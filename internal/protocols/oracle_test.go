package protocols

import (
	"gossipkit/internal/failure"
	"gossipkit/internal/graph"
	"gossipkit/internal/membership"
	"gossipkit/internal/xrand"
)

// The legacy pure round loops: synchronous-round simulations with no
// substrate underneath, kept verbatim as the live reference equiv_test.go
// compares the DES machines against. They compile only under go test, so
// no binary, example or experiment can run a baseline through them.

// RunPbcast executes the round-based protocol: in each of Rounds rounds,
// every nonfailed member currently holding the message pushes it to Fanout
// uniformly chosen members. Unlike the paper's single-shot algorithm,
// holders re-gossip every round, so the spread cannot die out while the
// source lives.
func RunPbcast(p PbcastParams, r *xrand.RNG) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	mask := new(failure.Mask)
	mask.FillExact(p.N, p.AliveRatio, p.Source, r)
	res := Result{AliveCount: mask.AliveCount()}
	has := make([]bool, p.N)
	holders := make([]int32, 0, mask.AliveCount())
	has[p.Source] = true
	holders = append(holders, int32(p.Source))
	res.Delivered = 1
	targets := make([]int, 0, p.Fanout)
	for round := 0; round < p.Rounds; round++ {
		res.Rounds++
		newHolders := holders // append-only; new infections join next round
		for _, uu := range holders {
			u := int(uu)
			targets = r.SampleExcluding(targets, p.N, p.Fanout, u)
			res.MessagesSent += len(targets)
			for _, v := range targets {
				if has[v] || !mask.Alive(v) {
					continue
				}
				has[v] = true
				res.Delivered++
				newHolders = append(newHolders, int32(v))
			}
		}
		holders = newHolders
		if res.Delivered == res.AliveCount {
			break // everyone has it; further rounds are pure overhead
		}
	}
	finish(&res)
	return res, nil
}

// RunLRG executes LRG over a fresh random Degree-regular-ish overlay
// (configuration model): probabilistic flooding spreads the message, then
// RepairRounds of local pulls patch the holes the flooding left.
func RunLRG(p LRGParams, r *xrand.RNG) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	degrees := make([]int, p.N)
	for i := range degrees {
		degrees[i] = p.Degree
	}
	overlay := graph.ConfigurationModel(degrees, r)
	mask := new(failure.Mask)
	mask.FillExact(p.N, p.AliveRatio, p.Source, r)
	res := Result{AliveCount: mask.AliveCount()}

	has := make([]bool, p.N)
	queue := make([]int32, 0, mask.AliveCount())
	has[p.Source] = true
	queue = append(queue, int32(p.Source))
	res.Delivered = 1

	// Phase 1: probabilistic flooding.
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range overlay.Out(int(u)) {
			if !r.Bool(p.GossipProb) {
				continue
			}
			res.MessagesSent++
			if has[v] || !mask.Alive(int(v)) {
				continue
			}
			has[v] = true
			res.Delivered++
			queue = append(queue, v)
		}
	}
	// Phase 2: local repair — missing members pull from a neighbor that
	// has the message (one pull per round per missing member). Provider
	// eligibility is evaluated against the round-start state (synchronous-
	// round semantics, matching the anti-entropy snapshot): a member
	// repaired this round can serve as a provider from the next round on,
	// which is also exactly what the message-based DES runtime produces.
	var snapshot []bool
	for round := 0; round < p.RepairRounds; round++ {
		res.Rounds++
		snapshot = append(snapshot[:0], has...)
		fixed := 0
		for v := 0; v < p.N; v++ {
			if has[v] || !mask.Alive(v) {
				continue
			}
			for _, u := range overlay.Out(v) {
				if snapshot[u] {
					res.MessagesSent += 2 // NACK + retransmission
					has[v] = true
					res.Delivered++
					fixed++
					break
				}
			}
		}
		if fixed == 0 {
			break
		}
	}
	finish(&res)
	return res, nil
}

// RunFlooding forwards to every other member on first receipt: reliability
// is always 1 among nonfailed members (the source reaches everyone
// directly), at Θ(n²) message cost — the upper envelope the gossip
// protocols are traded off against.
func RunFlooding(p FloodingParams, r *xrand.RNG) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	mask := new(failure.Mask)
	mask.FillExact(p.N, p.AliveRatio, p.Source, r)
	res := Result{AliveCount: mask.AliveCount()}
	has := make([]bool, p.N)
	queue := make([]int32, 0, mask.AliveCount())
	has[p.Source] = true
	queue = append(queue, int32(p.Source))
	res.Delivered = 1
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		res.MessagesSent += p.N - 1
		for v := 0; v < p.N; v++ {
			if v == u || has[v] || !mask.Alive(v) {
				continue
			}
			has[v] = true
			res.Delivered++
			queue = append(queue, int32(v))
		}
	}
	res.Rounds = 1
	finish(&res)
	return res, nil
}

// RunAntiEntropy executes the epidemic. With Rounds == 0 it runs until
// aePatience consecutive rounds make no progress (guaranteed to terminate:
// infections are monotone). Each contact costs one message (plus one for the reply that
// pull/push-pull semantics imply; counted as 2 for Pull and PushPull).
func RunAntiEntropy(p AntiEntropyParams, r *xrand.RNG) (AntiEntropyResult, error) {
	if err := p.Validate(); err != nil {
		return AntiEntropyResult{}, err
	}
	mask := new(failure.Mask)
	mask.FillExact(p.N, p.AliveRatio, p.Source, r)
	res := AntiEntropyResult{Result: Result{AliveCount: mask.AliveCount()}}
	infected := make([]bool, p.N)
	infected[p.Source] = true
	res.Delivered = 1
	res.InfectedPerRound = append(res.InfectedPerRound, 1)

	msgCost := 1
	if p.Mode != Push {
		msgCost = 2
	}
	maxRounds := p.Rounds
	if maxRounds == 0 {
		maxRounds = 40 * p.N // generous; the idle-round check below breaks out
	}
	idle := 0
	for round := 0; round < maxRounds; round++ {
		res.Rounds++
		progress := false
		// Synchronous round semantics: exchanges see the state at the
		// start of the round (standard in the anti-entropy analyses).
		snapshot := append([]bool(nil), infected...)
		for id := 0; id < p.N; id++ {
			if !mask.Alive(id) {
				continue
			}
			peer := id
			for peer == id {
				peer = r.Intn(p.N)
			}
			res.MessagesSent += msgCost
			if !mask.Alive(peer) {
				continue
			}
			switch p.Mode {
			case Push:
				if snapshot[id] && !infected[peer] {
					infected[peer] = true
					res.Delivered++
					progress = true
				}
			case Pull:
				if snapshot[peer] && !infected[id] {
					infected[id] = true
					res.Delivered++
					progress = true
				}
			case PushPull:
				if snapshot[id] && !infected[peer] {
					infected[peer] = true
					res.Delivered++
					progress = true
				}
				if snapshot[peer] && !infected[id] {
					infected[id] = true
					res.Delivered++
					progress = true
				}
			}
		}
		res.InfectedPerRound = append(res.InfectedPerRound, res.Delivered)
		if res.Delivered == res.AliveCount {
			break
		}
		if p.Rounds == 0 {
			if progress {
				idle = 0
			} else if idle++; idle >= aePatience(p.N) {
				break
			}
		}
	}
	finish(&res.Result)
	return res, nil
}

// lpbcastMember is one member's protocol state in the legacy loop.
type lpbcastMember struct {
	buffer []int32 // event ids currently buffered (payload held)
	seen   map[int32]bool
}

// RunLpbcast executes the lpbcast-style protocol and reports per-event
// delivery. The simulation is synchronous-round over SCAMP partial views.
func RunLpbcast(p LpbcastParams, r *xrand.RNG) (LpbcastResult, error) {
	if err := p.Validate(); err != nil {
		return LpbcastResult{}, err
	}
	views := membership.NewPartialViews(p.N, p.ViewCopies, r)
	views.Shuffle(5, 3, r)
	mask := new(failure.Mask)
	mask.FillExact(p.N, p.AliveRatio, p.Source, r)

	members := make([]lpbcastMember, p.N)
	for i := range members {
		members[i].seen = map[int32]bool{}
	}
	res := LpbcastResult{AliveCount: mask.AliveCount()}
	res.DeliveredPerEvent = make([]int, p.Events)

	deliver := func(id int, ev int32) {
		m := &members[id]
		if m.seen[ev] {
			return
		}
		m.seen[ev] = true
		res.DeliveredPerEvent[ev]++
		m.buffer = append(m.buffer, ev)
		// Age-out: keep only the newest BufferSize events.
		if len(m.buffer) > p.BufferSize {
			m.buffer = m.buffer[len(m.buffer)-p.BufferSize:]
		}
	}

	// Inject all events at the source.
	for e := 0; e < p.Events; e++ {
		deliver(p.Source, int32(e))
	}

	type msg struct {
		to     int
		events []int32
	}
	targets := make([]int, 0, p.Fanout)
	for round := 0; round < p.Rounds; round++ {
		var outbox []msg
		for id := 0; id < p.N; id++ {
			m := &members[id]
			if !mask.Alive(id) || len(m.buffer) == 0 {
				continue
			}
			targets = views.SampleTargets(targets, id, p.Fanout, r)
			payload := append([]int32(nil), m.buffer...)
			for _, t := range targets {
				outbox = append(outbox, msg{to: t, events: payload})
				res.MessagesSent++
			}
		}
		for _, mg := range outbox {
			if !mask.Alive(mg.to) {
				continue
			}
			for _, ev := range mg.events {
				deliver(mg.to, ev)
			}
		}
	}

	var sum float64
	min := 1.0
	for _, d := range res.DeliveredPerEvent {
		rel := float64(d) / float64(res.AliveCount)
		sum += rel
		if rel < min {
			min = rel
		}
	}
	res.MeanReliability = sum / float64(p.Events)
	res.MinReliability = min
	return res, nil
}

// RunRDG executes the protocol. During push rounds, holders gossip the
// payload; every push also spreads the packet *id* (a digest), making
// recipients "aware". During recovery rounds, aware-but-missing members
// pull from a random view neighbor (NACK), succeeding if the neighbor
// holds the payload.
func RunRDG(p RDGParams, r *xrand.RNG) (RDGResult, error) {
	if err := p.Validate(); err != nil {
		return RDGResult{}, err
	}
	views := membership.NewPartialViews(p.N, p.ViewCopies, r)
	views.Shuffle(5, 3, r)
	mask := new(failure.Mask)
	mask.FillExact(p.N, p.AliveRatio, p.Source, r)

	res := RDGResult{Result: Result{AliveCount: mask.AliveCount()}}
	has := make([]bool, p.N)       // holds payload
	aware := make([]bool, p.N)     // knows the packet id
	provider := make([]int32, p.N) // who advertised the id to us
	for i := range provider {
		provider[i] = -1
	}
	has[p.Source] = true
	aware[p.Source] = true
	res.Delivered = 1
	res.DeliveredByPush = 1

	// Push phase. RDG gossips data packets AND packet-id digests: holders
	// push the payload to Fanout targets; aware non-holders forward the
	// digest (ids ride on every gossip message in RDG), so awareness
	// outruns the payload and seeds the NACK-based recovery.
	targets := make([]int, 0, p.Fanout)
	for round := 0; round < p.PushRounds; round++ {
		res.Rounds++
		type push struct {
			from, to int
			payload  bool
		}
		var pushes []push
		for id := 0; id < p.N; id++ {
			if !mask.Alive(id) || !aware[id] {
				continue
			}
			targets = views.SampleTargets(targets, id, p.Fanout, r)
			for _, t := range targets {
				withPayload := has[id] && (p.PayloadProb == 0 || r.Bool(p.PayloadProb))
				pushes = append(pushes, push{from: id, to: t, payload: withPayload})
				res.MessagesSent++
			}
		}
		for _, ps := range pushes {
			if !mask.Alive(ps.to) {
				continue
			}
			if !aware[ps.to] || !has[ps.to] {
				provider[ps.to] = int32(ps.from)
			}
			aware[ps.to] = true
			if ps.payload && !has[ps.to] {
				has[ps.to] = true
				res.Delivered++
				res.DeliveredByPush++
			}
		}
	}
	// Recovery phase: aware-but-missing members NACK their provider (who
	// advertised the id); the pull succeeds when the provider holds the
	// payload by now. Failed pulls re-aim at a random view member.
	// Provider possession is evaluated against the round-start state
	// (synchronous-round semantics, like the LRG repair snapshot): a
	// member recovered this round serves pulls from the next round on,
	// which is also exactly what the message-based DES runtime produces.
	var snapshot []bool
	for round := 0; round < p.RecoveryRounds; round++ {
		res.Rounds++
		snapshot = append(snapshot[:0], has...)
		recovered := 0
		for id := 0; id < p.N; id++ {
			if !mask.Alive(id) || has[id] || !aware[id] {
				continue
			}
			target := int(provider[id])
			if target < 0 || !mask.Alive(target) || !snapshot[target] {
				targets = views.SampleTargets(targets, id, 1, r)
				if len(targets) != 1 {
					continue
				}
				target = targets[0]
			}
			res.MessagesSent++ // the NACK
			if mask.Alive(target) && snapshot[target] {
				res.MessagesSent++ // the retransmission
				has[id] = true
				res.Delivered++
				res.DeliveredByPull++
				recovered++
			} else {
				provider[id] = int32(target) // remember for next round
			}
		}
		if recovered == 0 && round > 0 {
			break
		}
	}
	for id := 0; id < p.N; id++ {
		if mask.Alive(id) && aware[id] && !has[id] {
			res.AwareMisses++
		}
	}
	finish(&res.Result)
	return res, nil
}
