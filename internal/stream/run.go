package stream

import (
	"fmt"
	"math"
	"sort"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// RunProbed executes one streaming run on one shard, with the full seam
// set of RunSharded: inject, arena and probe, each optional.
func RunProbed(cfg Config, netCfg simnet.Config, r *xrand.RNG,
	inject func(*core.NetRun), arena *Arena, probe *obs.StreamProbe) (Result, error) {
	return RunSharded(cfg, netCfg, r, inject, arena, probe, core.ShardOptions{Shards: 1})
}

// RunSharded executes one streaming run. It is the one stream runner, a
// front end on core.Run like core.ExecuteOnNetworkSharded (see there for
// the sharded runtime); on one shard — what RunProbed asks for — a single
// kernel drained in one go.
//
// inject (non-nil) receives the core.NetRun injection facade before the
// clock starts, so scenario campaigns drive crash waves and burst loss
// while the stream is live; arena (non-nil) recycles run state across
// runs; probe (non-nil) collects streaming telemetry — on more than one
// shard through per-shard children whose merged telemetry it adopts, the
// active-message gauge living on shard 0. Results are byte-identical
// whatever the arena or probe state.
//
// RNG layout: the publish schedule comes from r.Split(publishSplit) —
// splits never advance r — then eager and flood take the paper's key root
// off r (core.KeyRoot), then the failure mask consumes r. Member u
// forwards message m from the keyed streams of core.Key(u, m) through a
// core.Forwarder, as the paper's executor forwards its one message (Key(u,
// 0) = u). Everything else — push and push-pull's round draws, EvictRandom
// and the network under them — runs on shard s's streams of core.Run's
// layout.
//
// Determinism contract (matching core's): a fixed shard count is
// byte-identical across repeated runs and arenas for the same GOARCH and
// Go release (the test suite checks amd64; on arm64, ppc64le, s390x and riscv64
// TestNoFusedFloat keeps fused multiply-add out of this module's float
// code, and the standard library's math functions are not yet measured
// across architectures; testdata/runprobed.golden pins the one-shard
// layout). Different shard counts share the publish schedule and the
// failure mask. A one-message eager or flood run is the paper's run at
// every shard count, per seed (TestStreamEagerIsPaper). Push and
// push-pull, EvictRandom, and the tie order among many messages' copies
// arriving at one instant are only statistically pinned across shard
// counts: they draw from, or order by, per-shard streams and queues.
// opts.Shards below 1 means one shard; see core.EffectiveShards for the
// configurations that run on fewer shards than asked.
func RunSharded(cfg Config, netCfg simnet.Config, r *xrand.RNG,
	inject func(*core.NetRun), arena *Arena, probe *obs.StreamProbe, opts core.ShardOptions) (Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return Result{}, err
	}
	if arena == nil {
		arena = NewArena()
	}
	sh := arena.schedule(cfg, netCfg.RoundInterval(cfg.RoundInterval), r)
	run := arena.net.Begin(cfg.N, netCfg, r, opts)
	kernels, ctl, sn := run.Kernels, run.Control, run.Net
	block := sn.Block()

	workers := arena.leaseWorkers(len(kernels))
	pubBy := arena.publishLists(sh, len(kernels), block)
	// Eager and flood take the key root where the paper's executor takes
	// it, after Begin and before Reset and the mask; the round disciplines
	// take none.
	var keys xrand.RNG
	if cfg.Discipline.keyed() {
		keys = core.KeyRoot(r)
	}
	run.Reset(budget(cfg, sh), func(s int) {
		w := workers[s]
		w.rng = run.RNG(s)
		if cfg.Discipline.keyed() {
			w.fw.Reset(keys, sn.Shard(s))
		}
		lo, hi := sn.Range(s)
		// A round puts every buffered id of every member of the block in
		// the air fanout times over — one kernel event per id, or per
		// batch where the discipline batches (eager and flood ignore
		// Batch) — which is far more than the one per member the network
		// assumed.
		airborne := float64(hi-lo) * cfg.Fanout.Mean()
		if !cfg.Batch || cfg.Discipline.keyed() {
			airborne *= float64(cfg.BufferCap)
		}
		sn.Shard(s).HintPending(int(min(airborne, math.MaxInt32)))
		run.Bits[s].Reset(sh.M, hi-lo)
		var pend *core.MessageBits
		if cfg.Discipline == DisciplinePushPull {
			pend = run.Nacks[s]
			pend.Reset(sh.M, hi-lo)
		}
		w.reset(s, lo, hi, sn.Shard(s), sh, run.Bits[s], pend, pubBy[s])
	})
	sh.mask = run.Mask
	sh.mask.FillBernoulli(cfg.N, cfg.AliveRatio, 0, r)
	sh.view = cfg.View
	if sh.view == nil {
		sh.view = membership.NewFullView(cfg.N)
	}
	sh.fanout = cfg.Fanout
	if cfg.Discipline == DisciplineFlood {
		sh.fanout = dist.NewFixed(cfg.N - 1)
	}

	for s, child := range probe.ShardProbes(len(kernels)) { // none for a nil probe
		workers[s].probe = child
		var act *int64
		if s == 0 {
			act = &workers[0].act
		}
		child.Attach(sn.Shard(s), &workers[s].occ, act)
	}

	for s, w := range workers {
		sn.Shard(s).RegisterAll(func(now sim.Time, msg simnet.Message) { w.onMessage(now, msg) })
		sn.Shard(s).RegisterBatchAll(func(now sim.Time, from, to simnet.NodeID, kind int32, ids []int32) {
			w.onBatch(now, from, to, kind, ids)
		})
	}
	run.Each(func(s int) {
		run.CrashFailed(s)
		workers[s].armPublishes(kernels[s])
		workers[s].installTick(kernels[s])
	})

	if inject != nil {
		inject(run.NetRun(sh.view, core.RunHooks{
			HasReceived: func(id int) bool { return hasReceivedLatest(sh, workers, cfg.N, id, ctl.Now()) },
			Delivered: func() int {
				total := 0
				for _, w := range workers {
					total += w.firstTotal
				}
				return total
			},
			Publish: func(id int) {
				now := ctl.Now()
				workers[id/block].scenarioPublish(id, latestPublished(sh, now), now)
			},
		}))
	}

	if err := run.Drive(); err != nil {
		return Result{}, fmt.Errorf("stream: execution aborted: %w", err)
	}
	end := ctl.Now()
	for s, w := range workers {
		w.probe.Finish(kernels[s].Now())
		if kernels[s].Now() > end {
			end = kernels[s].Now()
		}
	}
	probe.AdoptShards()
	return reduce(cfg, sh, workers, sn.Stats(), run.Queue(), end), nil
}

// budget bounds the kernel event count — a runaway guard far above any
// real run: per-round gossip is at most every member emptying a full
// buffer to a generous fanout, plus the eager/flood per-receipt cascades.
func budget(cfg Config, sh *runShared) uint64 {
	perRound := uint64(cfg.N+1) * uint64(cfg.BufferCap*64+64)
	return uint64(sh.lastRound+16)*perRound + uint64(sh.M+1)*uint64(cfg.N+1)*8
}

// latestPublished returns the most recent schedule index published at or
// before now (-1 for none), skipping dead-source entries. Callers run on
// the control kernel (workers parked).
func latestPublished(sh *runShared, now sim.Time) int {
	i := sort.Search(sh.M, func(j int) bool { return sh.pubTime[j] > now }) - 1
	for ; i >= 0; i-- {
		if sh.pubState[i] == pubDone {
			return i
		}
	}
	return -1
}

// hasReceivedLatest reports whether id holds the most recently published
// message — the streaming reading of the single-rumor NetRun predicate
// (true before the first publish: there is nothing to lack).
func hasReceivedLatest(sh *runShared, ws []*worker, n, id int, now sim.Time) bool {
	latest := latestPublished(sh, now)
	if latest < 0 || id < 0 || id >= n {
		return true
	}
	for _, w := range ws {
		if id >= w.base && id < w.limit {
			return w.bits.Get(latest, id-w.base)
		}
	}
	return true
}

// reduce folds the workers' tallies into the run Result. The
// Result.Messages slice is the run's only O(M) allocation — and under
// Config.SummaryOnly it is skipped entirely: the same per-message pass
// folds outcome tallies, reliability moments, and loss attribution into
// the aggregate fields, so a summary run makes zero O(M) allocations and
// every non-Messages field is identical to a full run's.
func reduce(cfg Config, sh *runShared, ws []*worker, net simnet.Stats, queue core.QueueCounters, end sim.Time) Result {
	res := Result{
		N:              cfg.N,
		AliveCount:     sh.mask.AliveCount(),
		Scheduled:      sh.M,
		Net:            net,
		Queue:          queue,
		End:            end.Duration(),
		MinReliability: 1,
		SummaryOnly:    cfg.SummaryOnly,
	}
	if !cfg.SummaryOnly {
		res.Messages = make([]MessageResult, sh.M)
	}
	for _, w := range ws {
		res.Delivered += w.firstTotal
		res.Ledger.Inserted += w.inserted
		res.Ledger.Evicted += w.evicted
		res.Ledger.Expired += w.expired
		res.Ledger.Resident += w.occ
		res.Ledger.RepairMisses += w.repairMiss
		res.DeliveryLatency.Merge(w.lat)
		if int(w.round) > res.Rounds {
			res.Rounds = int(w.round)
		}
	}
	var relSum float64
	for m := 0; m < sh.M; m++ {
		var sends, recvs int64
		var first, dups, evics int32
		for _, w := range ws {
			sends += w.sends[m]
			recvs += w.recvs[m]
			first += w.first[m]
			dups += w.dups[m]
			evics += w.evics[m]
		}
		res.Ledger.Sends += sends
		res.Ledger.Receipts += recvs
		res.Duplicates += int64(dups)
		drops := sends - recvs
		var rel float64
		if res.AliveCount > 0 {
			rel = float64(first) / float64(res.AliveCount)
		}
		var outcome MessageOutcome
		switch {
		case sh.pubState[m] == pubSkipped:
			outcome = MsgSkipped
			res.Skipped++
		case int(first) == res.AliveCount:
			outcome = MsgDelivered
			res.FullyDelivered++
		case evics > 0:
			outcome = MsgLostEviction
			res.LostEviction++
		case drops > 0:
			outcome = MsgLostDrop
			res.LostDrop++
		default:
			outcome = MsgDied
			res.Died++
		}
		if !cfg.SummaryOnly {
			res.Messages[m] = MessageResult{
				ID:          m,
				Source:      int(sh.source[m]),
				PublishedAt: sh.pubTime[m].Duration(),
				Delivered:   int(first),
				Reliability: rel,
				Duplicates:  int(dups),
				Evictions:   int(evics),
				Drops:       drops,
				Outcome:     outcome,
			}
		}
		if outcome == MsgSkipped {
			continue
		}
		res.Published++
		res.Reliability.Add(rel)
		relSum += rel
		if rel < res.MinReliability {
			res.MinReliability = rel
		}
	}
	if res.Published > 0 {
		res.MeanReliability = relSum / float64(res.Published)
	} else {
		res.MinReliability = 0
	}
	res.MessagesSent = res.Ledger.Sends
	return res
}
