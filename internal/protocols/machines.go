package protocols

// The six baseline state machines on the shared DES runtime. Each machine
// replicates its legacy round loop's RNG consumption order and delivery
// application order exactly, so a zero-latency no-loss run is
// result-identical to the legacy loop (equiv_test.go pins this); under
// latency, loss, partitions, and scenario campaigns the same logic
// degrades the way a real deployment would.

import (
	"math/bits"

	"gossipkit/internal/bitset"
	"gossipkit/internal/graph"
	"gossipkit/internal/membership"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
)

// ---------------------------------------------------------------------------
// Pbcast

// Protocol implements Spec.
func (p PbcastParams) Protocol() string { return "pbcast" }

func (p PbcastParams) size() int           { return p.N }
func (p PbcastParams) start() int          { return p.Source }
func (p PbcastParams) newMachine() machine { return &pbcastMachine{p: p} }

type pbcastMachine struct {
	p       PbcastParams
	holders []int32 // members holding m, in infection order
}

func (m *pbcastMachine) init(rt *Runtime) {
	rt.Mask.FillExact(m.p.N, m.p.AliveRatio, m.p.Source, rt.RNG)
	rt.seedSource()
	m.holders = append(m.holders, int32(m.p.Source))
}

func (m *pbcastMachine) tick(rt *Runtime, round int) bool {
	if round >= m.p.Rounds {
		return false
	}
	if round > 0 && rt.res.Delivered == rt.res.AliveCount {
		return false // everyone has it; further rounds are pure overhead
	}
	rt.res.Rounds++
	holders := m.holders // deliveries appended mid-round join next round
	for _, uu := range holders {
		u := int(uu)
		if !rt.Net.Up(simnet.NodeID(u)) {
			continue // crashed holders do not gossip
		}
		rt.fanoutBlast(u, m.p.Fanout)
	}
	return true
}

func (m *pbcastMachine) deliver(rt *Runtime, now sim.Time, msg simnet.Message) {
	id := int(msg.To)
	if !rt.markReceived(id, now) {
		rt.res.Duplicates++
		return
	}
	m.holders = append(m.holders, int32(id))
}

func (m *pbcastMachine) publish(rt *Runtime, id int) {
	if rt.recv.Get(id) {
		rt.fanoutBlast(id, m.p.Fanout) // re-gossip: one immediate extra wave
		return
	}
	rt.markReceived(id, rt.Kernel.Now())
	m.holders = append(m.holders, int32(id))
}

func (m *pbcastMachine) detail(rt *Runtime) any { return rt.baseResult() }

// ---------------------------------------------------------------------------
// Flooding

// Protocol implements Spec.
func (p FloodingParams) Protocol() string { return "flooding" }

func (p FloodingParams) size() int           { return p.N }
func (p FloodingParams) start() int          { return p.Source }
func (p FloodingParams) newMachine() machine { return &floodingMachine{p: p} }

type floodingMachine struct{ p FloodingParams }

func (m *floodingMachine) init(rt *Runtime) {
	rt.Mask.FillExact(m.p.N, m.p.AliveRatio, m.p.Source, rt.RNG)
	rt.seedSource()
}

func (m *floodingMachine) tick(rt *Runtime, round int) bool {
	rt.res.Rounds = 1
	m.blast(rt, m.p.Source)
	return false // event-driven from here: every first receipt re-blasts
}

// blast forwards to every other member — or, on a topology overlay, to
// every live overlay neighbor (flooding over a constrained graph).
func (m *floodingMachine) blast(rt *Runtime, u int) {
	if ov := rt.overlay(); ov != nil {
		for _, vv := range ov.Neighbors(u) {
			v := int(vv)
			rt.res.MessagesSent++
			if !rt.Mask.Alive(v) {
				rt.res.WastedOnFailed++
			}
			rt.Net.SendTag(simnet.NodeID(u), simnet.NodeID(v), tagGossip)
		}
		return
	}
	rt.res.MessagesSent += m.p.N - 1
	for v := 0; v < m.p.N; v++ {
		if v == u {
			continue
		}
		if !rt.Mask.Alive(v) {
			rt.res.WastedOnFailed++
		}
		rt.Net.SendTag(simnet.NodeID(u), simnet.NodeID(v), tagGossip)
	}
}

func (m *floodingMachine) deliver(rt *Runtime, now sim.Time, msg simnet.Message) {
	id := int(msg.To)
	if !rt.markReceived(id, now) {
		rt.res.Duplicates++
		return
	}
	m.blast(rt, id)
}

func (m *floodingMachine) publish(rt *Runtime, id int) {
	rt.markReceived(id, rt.Kernel.Now())
	m.blast(rt, id)
}

func (m *floodingMachine) detail(rt *Runtime) any { return rt.baseResult() }

// ---------------------------------------------------------------------------
// Anti-entropy

// Protocol implements Spec.
func (p AntiEntropyParams) Protocol() string { return "anti-entropy" }

func (p AntiEntropyParams) size() int           { return p.N }
func (p AntiEntropyParams) start() int          { return p.Source }
func (p AntiEntropyParams) newMachine() machine { return &aeMachine{p: p} }

type aeMachine struct {
	p         AntiEntropyParams
	msgCost   int
	maxRounds int
	snapshot  []bool // infected state at the latest round tick
	curve     []int  // cumulative infected after each round
	progress  bool   // any new infection since the latest tick
	idle      int    // consecutive idle rounds so far (Rounds: 0 only)
}

// aePatience is how many consecutive idle rounds — no new infection, nothing
// airborne — end an until-quiescent run (Rounds: 0) short of full coverage:
// 4·⌈log₂ n⌉. One idle round proves nothing under failures: while only the
// source is infected, or one straggler is left, a round whose every useful
// contact went to a failed peer has probability ≈ e^{−q}, and stopping
// there delivers to the source alone. 4·⌈log₂ n⌉ such rounds in a row have
// probability below n^{−5.7q}, and the wait stays inside the O(log n) rounds
// Doerr et al. prove for fault-tolerant push-pull, so a run whose remaining
// members cannot be reached (partition, emptied overlay, crash) still ends.
func aePatience(n int) int { return 4 * bits.Len(uint(n-1)) }

func (m *aeMachine) init(rt *Runtime) {
	rt.Mask.FillExact(m.p.N, m.p.AliveRatio, m.p.Source, rt.RNG)
	rt.seedSource()
	m.msgCost = 1
	if m.p.Mode != Push {
		m.msgCost = 2
	}
	m.maxRounds = m.p.Rounds
	if m.maxRounds == 0 {
		m.maxRounds = 40 * m.p.N // generous; the idle-round check stops first
	}
	m.snapshot = make([]bool, m.p.N)
	m.curve = append(m.curve, 1)
}

func (m *aeMachine) tick(rt *Runtime, round int) bool {
	if round > 0 {
		// Close the previous round: record the curve point, then apply
		// the legacy end-of-round exits.
		m.curve = append(m.curve, rt.res.Delivered)
		if rt.res.Delivered == rt.res.AliveCount {
			return false
		}
		if m.p.Rounds == 0 {
			if m.progress || rt.inFlight() > 0 {
				m.idle = 0
			} else if m.idle++; m.idle >= aePatience(m.p.N) {
				return false // quiescent: see aePatience
			}
		}
	}
	if round >= m.maxRounds {
		return false
	}
	rt.res.Rounds++
	m.progress = false
	for i := 0; i < m.p.N; i++ {
		m.snapshot[i] = rt.recv.Get(i)
	}
	for id := 0; id < m.p.N; id++ {
		if !rt.upAlive(id) {
			continue
		}
		peer, ok := rt.pickPeer(id)
		if !ok {
			continue // overlay neighborhood emptied by removals
		}
		// Contact accounting matches the legacy loop: pull and push-pull
		// imply a reply, charged here whether or not one materializes.
		rt.res.MessagesSent += m.msgCost
		tag := tagAEReq
		if m.snapshot[id] {
			tag = tagAEReqHot
		}
		rt.Net.SendTag(simnet.NodeID(id), simnet.NodeID(peer), tag)
	}
	return true
}

func (m *aeMachine) infect(rt *Runtime, id int, now sim.Time) {
	if rt.markReceived(id, now) {
		m.progress = true
	} else {
		rt.res.Duplicates++
	}
}

func (m *aeMachine) deliver(rt *Runtime, now sim.Time, msg simnet.Message) {
	id := int(msg.To)
	switch msg.Tag {
	case tagAEReq, tagAEReqHot:
		if msg.Tag == tagAEReqHot && m.p.Mode != Pull {
			m.infect(rt, id, now) // push direction
		}
		if m.p.Mode != Push && m.snapshot[id] {
			// Pull direction: reply with the payload the callee held at
			// the round tick (already charged at contact time).
			rt.Net.SendTag(msg.To, msg.From, tagAEReply)
		}
	case tagAEReply:
		m.infect(rt, id, now)
	}
}

func (m *aeMachine) publish(rt *Runtime, id int) {
	if !rt.recv.Get(id) {
		m.infect(rt, id, rt.Kernel.Now())
		return
	}
	// Re-gossip: one immediate hot contact to a random peer.
	peer, ok := rt.pickPeer(id)
	if !ok {
		return
	}
	rt.res.MessagesSent += m.msgCost
	rt.Net.SendTag(simnet.NodeID(id), simnet.NodeID(peer), tagAEReqHot)
}

func (m *aeMachine) detail(rt *Runtime) any {
	return AntiEntropyResult{Result: rt.baseResult(), InfectedPerRound: m.curve}
}

// ---------------------------------------------------------------------------
// lpbcast

// Protocol implements Spec.
func (p LpbcastParams) Protocol() string { return "lpbcast" }

func (p LpbcastParams) size() int           { return p.N }
func (p LpbcastParams) start() int          { return p.Source }
func (p LpbcastParams) newMachine() machine { return &lpMachine{p: p} }

type lpMachine struct {
	p        LpbcastParams
	view     membership.View
	buffers  [][]int32   // buffers[id]: the event ids id holds a payload for, oldest first
	seen     bitset.Bits // bit id·Events+e: member id has delivered event e
	seenCnt  []int32     // seenCnt[id]: how many events id has delivered
	perEvent []int
}

func (m *lpMachine) init(rt *Runtime) {
	if ov := rt.overlay(); ov != nil {
		// A topology overlay supplants the protocol's own SCAMP views:
		// lpbcast's bounded partial views are exactly the structure the
		// overlay generalizes.
		m.view = ov
	} else {
		views := rt.views.Shuffled(m.p.N, m.p.ViewCopies, 5, 3, rt.RNG)
		rt.view = views
		m.view = views
	}
	rt.Mask.FillExact(m.p.N, m.p.AliveRatio, m.p.Source, rt.RNG)
	m.buffers = make([][]int32, m.p.N)
	m.seen.Reset(m.p.N * m.p.Events)
	m.seenCnt = make([]int32, m.p.N)
	m.perEvent = make([]int, m.p.Events)
	rt.seedSource()
	for e := 0; e < m.p.Events; e++ {
		m.absorb(rt, m.p.Source, int32(e), 0)
	}
}

// absorb applies one event delivery at id: dedup, per-event accounting,
// buffer append with age-out, and the member-level first receipt.
func (m *lpMachine) absorb(rt *Runtime, id int, ev int32, now sim.Time) {
	bit := id*m.p.Events + int(ev)
	if m.seen.Get(bit) {
		return
	}
	m.seen.Set(bit)
	m.seenCnt[id]++
	m.perEvent[ev]++
	buf := append(m.buffers[id], ev)
	// Age-out: keep only the newest BufferSize events.
	if len(buf) > m.p.BufferSize {
		buf = buf[len(buf)-m.p.BufferSize:]
	}
	m.buffers[id] = buf
	rt.markReceived(id, now) // no-op after the member's first event
}

func (m *lpMachine) tick(rt *Runtime, round int) bool {
	if round >= m.p.Rounds {
		return false
	}
	rt.res.Rounds++
	for id := 0; id < m.p.N; id++ {
		if !rt.upAlive(id) {
			continue
		}
		m.forward(rt, id)
	}
	return true
}

// forward gossips id's buffered events to Fanout view targets (a no-op on
// an empty buffer) — the shared send block of round ticks and re-gossip
// publishes.
func (m *lpMachine) forward(rt *Runtime, id int) {
	buf := m.buffers[id]
	if len(buf) == 0 {
		return
	}
	rt.targets = m.view.SampleTargets(rt.targets, id, m.p.Fanout, rt.RNG)
	// One snapshot, boxed once: every target's message shares it.
	var payload any = append([]int32(nil), buf...)
	for _, t := range rt.targets {
		rt.res.MessagesSent++
		rt.Net.Send(simnet.NodeID(id), simnet.NodeID(t), payload)
	}
}

func (m *lpMachine) deliver(rt *Runtime, now sim.Time, msg simnet.Message) {
	evs, _ := msg.Payload.([]int32)
	for _, ev := range evs {
		m.absorb(rt, int(msg.To), ev, now)
	}
}

func (m *lpMachine) publish(rt *Runtime, id int) {
	if int(m.seenCnt[id]) < m.p.Events {
		// Flash crowd: id obtains every event out of band.
		for e := 0; e < m.p.Events; e++ {
			m.absorb(rt, id, int32(e), rt.Kernel.Now())
		}
		return
	}
	// Re-gossip: forward the current buffer once more.
	m.forward(rt, id)
}

func (m *lpMachine) detail(rt *Runtime) any {
	res := LpbcastResult{
		AliveCount:        rt.res.AliveCount,
		DeliveredPerEvent: m.perEvent,
		MessagesSent:      rt.res.MessagesSent,
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
	res.MeanReliability = sum / float64(m.p.Events)
	res.MinReliability = min
	return res
}

// ---------------------------------------------------------------------------
// RDG

// Protocol implements Spec.
func (p RDGParams) Protocol() string { return "rdg" }

func (p RDGParams) size() int           { return p.N }
func (p RDGParams) start() int          { return p.Source }
func (p RDGParams) newMachine() machine { return &rdgMachine{p: p} }

type rdgMachine struct {
	p              RDGParams
	view           membership.View
	aware          []bool  // knows the packet id
	provider       []int32 // who advertised the id to us
	snapshot       []bool  // payload possession at the latest recovery tick
	byPush, byPull int
	roundRecovered int // repairs completed since the latest recovery tick
	prevRecovered  int
}

func (m *rdgMachine) init(rt *Runtime) {
	if ov := rt.overlay(); ov != nil {
		m.view = ov
	} else {
		views := rt.views.Shuffled(m.p.N, m.p.ViewCopies, 5, 3, rt.RNG)
		rt.view = views
		m.view = views
	}
	rt.Mask.FillExact(m.p.N, m.p.AliveRatio, m.p.Source, rt.RNG)
	m.aware = make([]bool, m.p.N)
	m.provider = make([]int32, m.p.N)
	for i := range m.provider {
		m.provider[i] = -1
	}
	m.snapshot = make([]bool, m.p.N)
	rt.seedSource()
	m.aware[m.p.Source] = true
	m.byPush = 1
}

func (m *rdgMachine) tick(rt *Runtime, round int) bool {
	if round < m.p.PushRounds {
		rt.res.Rounds++
		for id := 0; id < m.p.N; id++ {
			if !rt.upAlive(id) || !m.aware[id] {
				continue
			}
			rt.targets = m.view.SampleTargets(rt.targets, id, m.p.Fanout, rt.RNG)
			for _, t := range rt.targets {
				withPayload := rt.recv.Get(id) && (m.p.PayloadProb == 0 || rt.RNG.Bool(m.p.PayloadProb))
				rt.res.MessagesSent++
				tag := tagDigest
				if withPayload {
					tag = tagGossip
				}
				rt.Net.SendTag(simnet.NodeID(id), simnet.NodeID(t), tag)
			}
		}
		return true
	}
	k := round - m.p.PushRounds // recovery round index
	if k >= m.p.RecoveryRounds {
		return false
	}
	if k > 0 {
		m.prevRecovered = m.roundRecovered
	}
	if k >= 2 && m.prevRecovered == 0 && rt.inFlight() == 0 {
		return false // recovery quiescent (legacy: zero round after round 0)
	}
	rt.res.Rounds++
	m.roundRecovered = 0
	for i := 0; i < m.p.N; i++ {
		m.snapshot[i] = rt.recv.Get(i)
	}
	for id := 0; id < m.p.N; id++ {
		if !rt.upAlive(id) || rt.recv.Get(id) || !m.aware[id] {
			continue
		}
		target := int(m.provider[id])
		if target < 0 || !rt.Mask.Alive(target) || !m.snapshot[target] {
			rt.targets = m.view.SampleTargets(rt.targets, id, 1, rt.RNG)
			if len(rt.targets) != 1 {
				continue
			}
			target = rt.targets[0]
		}
		rt.res.MessagesSent++          // the NACK
		m.provider[id] = int32(target) // remember for the next round
		rt.Net.SendTag(simnet.NodeID(id), simnet.NodeID(target), tagNack)
	}
	return true
}

func (m *rdgMachine) deliver(rt *Runtime, now sim.Time, msg simnet.Message) {
	id := int(msg.To)
	switch msg.Tag {
	case tagGossip, tagDigest:
		if !m.aware[id] || !rt.recv.Get(id) {
			m.provider[id] = int32(msg.From)
		}
		m.aware[id] = true
		if msg.Tag == tagGossip {
			if rt.markReceived(id, now) {
				m.byPush++
			} else {
				rt.res.Duplicates++
			}
		}
	case tagNack:
		if rt.recv.Get(id) {
			rt.res.MessagesSent++ // the retransmission
			rt.Net.SendTag(msg.To, msg.From, tagRepair)
		}
	case tagRepair:
		if rt.markReceived(id, now) {
			m.byPull++
			m.roundRecovered++
		} else {
			rt.res.Duplicates++
		}
	}
}

func (m *rdgMachine) publish(rt *Runtime, id int) {
	m.aware[id] = true
	if rt.markReceived(id, rt.Kernel.Now()) {
		m.byPush++ // obtained out of band; attribute to the push phase
		return
	}
	// Re-gossip: one push wave from id.
	rt.targets = m.view.SampleTargets(rt.targets, id, m.p.Fanout, rt.RNG)
	for _, t := range rt.targets {
		rt.res.MessagesSent++
		rt.Net.SendTag(simnet.NodeID(id), simnet.NodeID(t), tagGossip)
	}
}

func (m *rdgMachine) detail(rt *Runtime) any {
	res := RDGResult{
		Result:          rt.baseResult(),
		DeliveredByPush: m.byPush,
		DeliveredByPull: m.byPull,
	}
	for id := 0; id < m.p.N; id++ {
		if rt.Mask.Alive(id) && m.aware[id] && !rt.recv.Get(id) {
			res.AwareMisses++
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// LRG

// Protocol implements Spec.
func (p LRGParams) Protocol() string { return "lrg" }

func (p LRGParams) size() int           { return p.N }
func (p LRGParams) start() int          { return p.Source }
func (p LRGParams) newMachine() machine { return &lrgMachine{p: p} }

type lrgMachine struct {
	p         LRGParams
	out       func(int) []int32 // the fixed gossip graph's out-neighbors
	snapshot  []bool            // payload possession at the latest repair tick
	prevNacks int
}

func (m *lrgMachine) init(rt *Runtime) {
	if ov := rt.overlay(); ov != nil {
		// LRG already gossips over a fixed random graph; a topology
		// overlay simply substitutes its own graph for the configuration
		// model (removals shrink the live neighbor lists in place).
		m.out = ov.Neighbors
	} else {
		degrees := make([]int, m.p.N)
		for i := range degrees {
			degrees[i] = m.p.Degree
		}
		g := graph.ConfigurationModel(degrees, rt.RNG)
		m.out = g.Out
	}
	rt.Mask.FillExact(m.p.N, m.p.AliveRatio, m.p.Source, rt.RNG)
	m.snapshot = make([]bool, m.p.N)
	rt.seedSource()
}

// flood pushes m probabilistically to every overlay neighbor of u.
func (m *lrgMachine) flood(rt *Runtime, u int) {
	for _, v := range m.out(u) {
		if !rt.RNG.Bool(m.p.GossipProb) {
			continue
		}
		rt.res.MessagesSent++
		if !rt.Mask.Alive(int(v)) {
			rt.res.WastedOnFailed++
		}
		rt.Net.SendTag(simnet.NodeID(u), simnet.NodeID(v), tagGossip)
	}
}

func (m *lrgMachine) tick(rt *Runtime, round int) bool {
	if round == 0 {
		m.flood(rt, m.p.Source) // phase 1 is event-driven from here
		return m.p.RepairRounds > 0
	}
	if round > m.p.RepairRounds {
		return false
	}
	if round >= 2 && m.prevNacks == 0 && rt.inFlight() == 0 {
		return false // previous repair round found nothing to fix
	}
	rt.res.Rounds++
	for i := 0; i < m.p.N; i++ {
		m.snapshot[i] = rt.recv.Get(i)
	}
	nacks := 0
	for v := 0; v < m.p.N; v++ {
		if !rt.upAlive(v) || rt.recv.Get(v) {
			continue
		}
		for _, u := range m.out(v) {
			if m.snapshot[u] {
				rt.res.MessagesSent++ // the NACK
				rt.Net.SendTag(simnet.NodeID(v), simnet.NodeID(u), tagNack)
				nacks++
				break
			}
		}
	}
	m.prevNacks = nacks
	return true
}

func (m *lrgMachine) deliver(rt *Runtime, now sim.Time, msg simnet.Message) {
	id := int(msg.To)
	switch msg.Tag {
	case tagGossip:
		if rt.markReceived(id, now) {
			m.flood(rt, id)
		} else {
			rt.res.Duplicates++
		}
	case tagNack:
		if rt.recv.Get(id) {
			rt.res.MessagesSent++ // the retransmission
			rt.Net.SendTag(msg.To, msg.From, tagRepair)
		}
	case tagRepair:
		if !rt.markReceived(id, now) {
			rt.res.Duplicates++
		}
		// Repaired members do not re-flood (legacy repair semantics).
	}
}

func (m *lrgMachine) publish(rt *Runtime, id int) {
	rt.markReceived(id, rt.Kernel.Now())
	m.flood(rt, id)
}

func (m *lrgMachine) detail(rt *Runtime) any { return rt.baseResult() }
