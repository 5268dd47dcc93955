package stream

import (
	"gossipkit/internal/core"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// pubState values in runShared.pubState (one byte per schedule entry,
// written only by the owning member's worker). Zero is "not yet published".
const (
	pubDone    uint8 = iota + 1 // published: the source inserted and began gossiping
	pubSkipped                  // source dead or crashed at publish time
)

// worker executes the stream over one contiguous member block — one block
// per shard kernel, the whole group on one shard. Everything here is written by the block's goroutine during
// windows (and by the coordinator only while workers are parked). The
// trailing pad keeps neighboring workers' hot counters off each other's
// cache lines.
type worker struct {
	s           int // shard index
	base, limit int // member block [base, limit)
	nw          *simnet.Network
	rng         *xrand.RNG     // the shard's run stream: round draws, EvictRandom
	fw          core.Forwarder // eager and flood: the paper's keyed forward
	sh          *runShared
	bits        *core.MessageBits // M rows × block width, local ids
	buf         buffers
	targets     []int
	probe       *obs.StreamProbe
	pubList     []int32 // schedule indices this worker publishes, time order
	pubHID      sim.HandlerID

	// ids assembles one outgoing batch per (member, round) under
	// Config.Batch; reply assembles batched NACK sets and repair batches
	// inside the batch handler. Both are scratch: SendBatch copies into a
	// pooled slab at send time.
	ids   []int32
	reply []int32
	// pend marks (message, member) pairs with a NACK in flight (push-pull
	// only, nil otherwise): a member never re-NACKs an id it already
	// requested this round, whatever duplicate digests arrive meanwhile.
	// pendM/pendL list the set bits so each round tick retires the marks
	// in O(marks) — the dedupe window is one round, after which an
	// unanswered NACK (lost, or its repair lost) may be retried.
	pend         *core.MessageBits
	pendM, pendL []int32

	seq   uint32
	occ   int64 // occupancy gauge (probe-sampled)
	act   int64 // active-message gauge (lead worker only)
	acPub int   // schedule cursors behind the active gauge
	acExp int
	round int32

	published, skipped         int64
	inserted, evicted, expired int64
	repairMiss                 int64
	sends, recvs               []int64 // per message, every kind
	first, dups, evics         []int32 // per message
	firstTotal                 int
	lat                        stats.Running
	_                          [64]byte
}

// reset binds the worker to a fresh run over block [base, limit), on the
// run stream the runner already set in w.rng and with no probe. pend is
// the leased pending-repair matrix for push-pull runs, nil for every other
// discipline.
func (w *worker) reset(s, base, limit int, nw *simnet.Network,
	sh *runShared, bits, pend *core.MessageBits, pubList []int32) {
	w.s, w.base, w.limit = s, base, limit
	w.nw, w.sh, w.bits, w.probe = nw, sh, bits, nil
	w.pend = pend
	w.pendM, w.pendL = w.pendM[:0], w.pendL[:0]
	w.pubList = pubList
	w.buf.reset(limit-base, sh.cfg.BufferCap)
	w.seq, w.occ, w.act = 0, 0, 0
	w.acPub, w.acExp = 0, 0
	w.round = 0
	w.published, w.skipped = 0, 0
	w.inserted, w.evicted, w.expired = 0, 0, 0
	w.repairMiss = 0
	w.firstTotal = 0
	w.lat = stats.Running{}
	M := sh.M
	w.sends = growI64(w.sends, M)
	w.recvs = growI64(w.recvs, M)
	w.first = growI32(w.first, M)
	w.dups = growI32(w.dups, M)
	w.evics = growI32(w.evics, M)
}

func growI64(s []int64, n int) []int64 {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]int64, n)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]int32, n)
}

func (w *worker) local(id int) int { return id - w.base }

// sendTag emits one protocol message for schedule entry m and tallies it.
func (w *worker) sendTag(from, to int, m, kind int32) {
	w.sends[m]++
	w.nw.SendTag(simnet.NodeID(from), simnet.NodeID(to), tagOf(m, kind))
}

// sendBatch emits one wire message carrying every id in ids as kind,
// tallying each entry — the entry tallies keep Ledger.Sends in id units so
// the conservation identity is wire-format independent.
func (w *worker) sendBatch(from, to int, kind int32, ids []int32) {
	for _, m := range ids {
		w.sends[m]++
	}
	w.nw.SendBatch(simnet.NodeID(from), simnet.NodeID(to), kind, ids)
}

// pendHas reports whether member l already has a NACK in flight for m
// this round (false when the run keeps no pending state).
func (w *worker) pendHas(m, l int) bool { return w.pend != nil && w.pend.Get(m, l) }

// pendMark records l's in-flight NACK for m so duplicate digests this
// round don't trigger duplicate repair round-trips.
func (w *worker) pendMark(m, l int) {
	if w.pend == nil {
		return
	}
	w.pend.Set(m, l)
	w.pendM = append(w.pendM, int32(m))
	w.pendL = append(w.pendL, int32(l))
}

// pendRetire clears every pending-repair mark — the per-round dedupe
// window closing at the worker's tick.
func (w *worker) pendRetire() {
	if len(w.pendM) == 0 {
		return
	}
	for i, m := range w.pendM {
		w.pend.Unset(int(m), int(w.pendL[i]))
	}
	w.pendM, w.pendL = w.pendM[:0], w.pendL[:0]
}

// onMessage is the block's network handler, dispatching on the packed
// (id, kind) tag.
func (w *worker) onMessage(now sim.Time, msg simnet.Message) {
	m := msg.Tag >> kindBits
	w.recvs[m]++
	id := int(msg.To)
	switch msg.Tag & kindMask {
	case kindData, kindRepair:
		w.receiveData(id, int(m), now, false)
	case kindDigest:
		// NACK only ids not yet received whose active window is still
		// open — a stale digest is not worth a repair round-trip — and
		// not already requested this round (the pending-repair dedupe).
		if l := w.local(id); !w.bits.Get(int(m), l) && now < w.sh.expiry[m] && !w.pendHas(int(m), l) {
			w.pendMark(int(m), l)
			w.sendTag(id, int(msg.From), m, kindNack)
		}
	case kindNack:
		if w.buf.find(w.local(id), m) >= 0 {
			w.sendTag(id, int(msg.From), m, kindRepair)
		} else {
			w.repairMiss++ // already evicted or expired here
		}
	}
}

// onBatch is the block's batch handler — the Config.Batch wire format,
// where one network event carries a whole (member, round, peer) digest,
// NACK set, or repair batch. Replies batch symmetrically: one digest in,
// at most one NACK set out; one NACK set in, at most one repair batch
// out. The ids slice aliases the fabric's pooled slab, consumed before
// any reply is sent (SendBatch copies the reply scratch at send time).
func (w *worker) onBatch(now sim.Time, from, to simnet.NodeID, kind int32, ids []int32) {
	id := int(to)
	l := w.local(id)
	for _, m := range ids {
		w.recvs[m]++
	}
	switch kind {
	case kindData, kindRepair:
		for _, m := range ids {
			w.receiveData(id, int(m), now, false)
		}
	case kindDigest:
		w.reply = w.reply[:0]
		for _, m := range ids {
			if !w.bits.Get(int(m), l) && now < w.sh.expiry[m] && !w.pendHas(int(m), l) {
				w.pendMark(int(m), l)
				w.reply = append(w.reply, m)
			}
		}
		if len(w.reply) > 0 {
			w.sendBatch(id, int(from), kindNack, w.reply)
		}
	case kindNack:
		w.reply = w.reply[:0]
		for _, m := range ids {
			if w.buf.find(l, m) >= 0 {
				w.reply = append(w.reply, m)
			} else {
				w.repairMiss++ // already evicted or expired here
			}
		}
		if len(w.reply) > 0 {
			w.sendBatch(id, int(from), kindRepair, w.reply)
		}
	}
}

// receiveData processes a copy of message m arriving at member id —
// from the network (data or repair), from the publish bootstrap
// (origin=true), or out of band from the scenario seam. First receipts
// are recorded unconditionally (late copies still count for
// reliability); buffering and forwarding happen only inside the active
// window.
func (w *worker) receiveData(id, m int, now sim.Time, origin bool) {
	l := w.local(id)
	if w.bits.Get(m, l) {
		w.dups[m]++
		if i := w.buf.find(l, int32(m)); i >= 0 {
			w.buf.bump(l, i) // the lpbcast eviction signal
		}
		return
	}
	w.bits.Set(m, l)
	w.first[m]++
	w.firstTotal++
	if !origin {
		d := now - w.sh.pubTime[m]
		w.lat.Add(d.Seconds())
		w.probe.ObserveDeliver(now, d)
	}
	if now >= w.sh.expiry[m] {
		return // late receipt: counted, not buffered or forwarded
	}
	w.insert(l, int32(m), now)
	if w.sh.cfg.Discipline.keyed() {
		w.forward(id, int32(m), core.Key(id, m))
	}
}

// insert admits m into member l's buffer, accounting the eviction if the
// policy displaced a victim.
func (w *worker) insert(l int, m int32, now sim.Time) {
	w.seq++
	w.inserted++
	victim, evicted := w.buf.insert(l, m, w.seq, w.sh.cfg.Eviction, w.sh.pubRound, w.rng)
	if evicted {
		w.evicted++
		w.evics[victim]++
		w.probe.ObserveEvict(now)
	} else {
		w.occ++
	}
}

// forward pushes m from id to the targets drawn for key: the paper's
// forward (core.Forwarder) at the run's fanout.
func (w *worker) forward(id int, m int32, key uint64) {
	w.targets = w.fw.Targets(w.targets, key, w.sh.fanout, w.sh.view, id)
	for _, v := range w.targets {
		w.sendTag(id, v, m, kindData)
	}
}

// roundTargets draws a fanout and that many of id's targets into
// w.targets from the worker's run stream, the round disciplines' draw. It
// reports false, drawing no targets, for a fanout of zero.
func (w *worker) roundTargets(id int) bool {
	f := w.sh.cfg.Fanout.Sample(w.rng)
	if f <= 0 {
		return false
	}
	w.targets = w.sh.view.SampleTargets(w.targets[:0], id, f, w.rng)
	return true
}

// publish bootstraps schedule entry m at its source: the origin receipt
// (insert + discipline forward) for live sources, a skip mark for dead
// ones.
func (w *worker) publish(m int, now sim.Time) {
	src := int(w.sh.source[m])
	if !w.sh.mask.Alive(src) || !w.nw.Up(simnet.NodeID(src)) {
		w.skipped++
		w.sh.pubState[m] = pubSkipped
		return
	}
	w.published++
	w.sh.pubState[m] = pubDone
	w.probe.ObservePublish(now)
	w.receiveData(src, m, now, true)
}

// armPublishes installs the worker's publish chain on kernel k: a typed
// handler whose payload is the position in pubList, each firing
// scheduling the next — no closure per message, so warm runs allocate
// nothing here.
func (w *worker) armPublishes(k *sim.Kernel) {
	if len(w.pubList) == 0 {
		return
	}
	w.pubHID = k.RegisterHandler(func(now sim.Time, _, pos int32) {
		w.publish(int(w.pubList[pos]), now)
		if next := pos + 1; int(next) < len(w.pubList) {
			k.Schedule(w.sh.pubTime[w.pubList[next]], w.pubHID, 0, next)
		}
	})
	k.Schedule(w.sh.pubTime[w.pubList[0]], w.pubHID, 0, 0)
}

// installTick installs the worker's round tick: expiry compaction every
// round for every member, round gossip for the push disciplines, and the
// active-message gauge on the lead worker. Ticks stop after the round at
// which the whole schedule has expired; in-flight arrivals drain after.
func (w *worker) installTick(k *sim.Kernel) {
	sh := w.sh
	k.Every(0, sh.interval, func() bool {
		w.tick(k.Now())
		return w.round <= sh.lastRound
	})
}

// tick runs one round over the worker's block. Only members with
// non-empty buffers draw RNG, so idle ticks perturb no streams.
func (w *worker) tick(now sim.Time) {
	R := w.round
	w.round++
	sh := w.sh
	if w.s == 0 {
		// The active-message gauge: schedule entries published but not
		// yet expired at this tick (lead worker only; the shard merge
		// passes it through).
		for w.acPub < sh.M && sh.pubTime[w.acPub] <= now {
			w.acPub++
			w.act++
		}
		for w.acExp < sh.M && sh.expiry[w.acExp] <= now {
			w.acExp++
			w.act--
		}
	}
	w.pendRetire() // close the round's NACK-dedupe window
	active := int32(sh.cfg.ActiveRounds)
	disc := sh.cfg.Discipline
	for id := w.base; id < w.limit; id++ {
		l := id - w.base
		if w.buf.len(l) == 0 {
			continue
		}
		if k := w.buf.expireRow(l, R, active, sh.pubRound); k > 0 {
			w.occ -= int64(k)
			w.expired += int64(k)
			w.probe.ObserveExpire(now, k)
		}
		if w.buf.len(l) == 0 || (disc != DisciplinePush && disc != DisciplinePushPull) {
			continue
		}
		if !w.nw.Up(simnet.NodeID(id)) {
			continue // crashed mid-run: buffered, but silent
		}
		if !w.roundTargets(id) {
			continue
		}
		kind := kindData
		if disc == DisciplinePushPull {
			kind = kindDigest
		}
		if sh.cfg.Batch {
			// One wire message per target carrying the whole buffer:
			// O(fanout) kernel events for this member's round instead of
			// O(buffer·fanout).
			w.ids = w.ids[:0]
			for _, e := range w.buf.row(l) {
				w.ids = append(w.ids, e.msg)
			}
			for _, v := range w.targets {
				w.sendBatch(id, v, kind, w.ids)
			}
			continue
		}
		for _, v := range w.targets {
			for _, e := range w.buf.row(l) {
				w.sendTag(id, v, e.msg, kind)
			}
		}
	}
}

// scenarioPublish is the core.NetRun publish hook for member id (up and
// alive, NetRun.Publish saw to that): if id lacks the most recently
// published message (latest, -1 for none) it obtains it out of band — an
// additional publisher — otherwise it re-gossips its whole buffer in one
// burst: eager and flood forward each entry again, keyed by member,
// message and instant as the paper's re-gossip is; the round disciplines
// send each entry to a fresh round draw. Runs on the worker's own clock.
func (w *worker) scenarioPublish(id, latest int, now sim.Time) {
	if latest >= 0 && !w.bits.Get(latest, w.local(id)) {
		w.receiveData(id, latest, now, false)
		return
	}
	for _, e := range w.buf.row(w.local(id)) {
		if w.sh.cfg.Discipline.keyed() {
			w.forward(id, e.msg, core.RegossipKey(id, int(e.msg), now))
			continue
		}
		if w.roundTargets(id) {
			for _, v := range w.targets {
				w.sendTag(id, v, e.msg, kindData)
			}
		}
	}
}
