package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"gossipkit"
	"gossipkit/internal/bitset"
	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/failure"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/graph"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/protocols"
	"gossipkit/internal/runpool"
	"gossipkit/internal/scenario"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/stream"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// The traced run. This PR may not instrument the program, so layers are
// measured from outside: the harness records a span around every call it
// makes (workload → iteration → facade.Run, then a `ladder` span with one
// child span per rung), and the rungs below the facade are replays — the
// harness drives each layer's exported API at the operation counts, sizes
// and queue occupancy of the workload being traced, with pre-drawn random
// tables so that a rung pays only for itself and the rungs under it. A
// layer's self time is its rung minus the rung below, per message.

// profile is the shape the replays run at: the traced workload's own group
// size and stream length. Every per-layer metric is therefore a row per
// workload: sim.calendar_ns_per_event on rumor_1m is the calendar queue at
// n=10⁶ occupancy, on des_sweep_5k the same queue in cache.
type profile struct {
	n          int // group size of the single-rumor replays
	streamMsgs int // rumors in the stream replays
}

func profileOf(w workload, sz sizes) profile {
	p := profile{n: sz.n5k, streamMsgs: max(sz.streamMsgs/10, 1)}
	switch w.name {
	case "rumor_1m", "rumor_1m_sharded":
		p.n = sz.n1m
	case "stream_perid", "stream_batch":
		p.streamMsgs = sz.streamMsgs
	case "compare_grid":
		p.n = sz.nCompare
	}
	return p
}

const tracedWarmIters = 4 // two recorded, two not: their ratio is the tracing overhead

// ladder holds one traced run's state.
type ladder struct {
	e *env
	w workload
	p profile
	m map[string]float64

	// Phase A: the workload itself under harness spans.
	facadeWarm []float64 // warm iteration walls
	facadeMsgs float64   // mean messages per warm iteration
	facadeRuns float64   // mean ops per iteration

	bare, shard1, shardK *execSeries
	perid, batch         *streamSeries
	peakPending          int // highest in-flight count of one probed execution
	occupancy            int // in-flight count the average message saw then: what the replays hold
}

// sink defeats dead-code elimination in the micro rungs.
var sink uint64

func runLadder(e *env, w workload) (map[string]float64, []string, string, error) {
	rec := newRecorder()
	e.rec = rec
	e.col.keepDetails = true
	l := &ladder{e: e, w: w, p: profileOf(w, e.sz), m: map[string]float64{}}

	root := rec.begin("workload " + w.name)
	if err := w.run(e, tracedWarmIters); err != nil {
		return nil, nil, "", err
	}
	rec.record(true)
	l.phaseA()

	lad := rec.begin("ladder")
	for _, step := range []func() error{
		l.coreRungs, l.streamRungs, l.facadeRungs, l.runpoolRungs, l.protocolRungs,
		l.simnetRungs, l.simRungs, l.samplingRungs, l.bitsetRungs, l.modelRungs,
	} {
		if err := step(); err != nil {
			return nil, nil, "", err
		}
	}
	unresolved := l.closeLadder()
	rec.end(lad, nil)
	rec.end(root, map[string]int64{"ops": int64(e.col.ops)})

	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, nil, "", err
	}
	traceFile := filepath.Join("out", fmt.Sprintf("%s-seed%d.trace.json", w.name, e.seed))
	f, err := os.Create(traceFile)
	if err != nil {
		return nil, nil, "", err
	}
	if err := writeChromeTrace(f, rec.spans); err != nil {
		f.Close()
		return nil, nil, "", err
	}
	if err := f.Close(); err != nil {
		return nil, nil, "", err
	}
	for _, d := range perLayer {
		if v, ok := l.m[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, "", fmt.Errorf("ladder produced no finite value for %s", d.Name)
		}
	}
	return l.m, unresolved, filepath.Join("bench", traceFile), nil
}

// rung times fn under a span and returns the elapsed seconds.
func (l *ladder) rung(name string, counts map[string]int64, fn func()) float64 {
	id := l.e.rec.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.e.rec.end(id, counts)
	return d.Seconds()
}

// inFlightProfile reads an execution's in-flight curve: its peak, and the
// occupancy the average message met — sends happen at a rate proportional
// to the in-flight count, so that is Σ I² / Σ I.
func inFlightProfile(curve []int64) (peak, weighted int) {
	var sum, sq float64
	for _, v := range curve {
		peak = max(peak, int(v))
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	if sum > 0 {
		weighted = int(sq / sum)
	}
	return max(peak, 1), max(weighted, 1)
}

// quietest is the least disturbed of repeated timings of identical work:
// interference from other tenants only ever adds time (see quietPass).
func quietest(xs []float64) float64 { return slices.Min(xs) }

// series runs fn once cold (untimed) and reps times warm, and returns the
// warm walls in seconds.
func series(reps int, fn func(i int)) (warm []float64) {
	for i := 0; i <= reps; i++ {
		t0 := time.Now()
		fn(i)
		if i > 0 {
			warm = append(warm, time.Since(t0).Seconds())
		}
	}
	return warm
}

// phaseA reads the traced workload run: the harness-side tracing overhead
// (recorded vs unrecorded warm iterations), die-outs, and fabric totals.
func (l *ladder) phaseA() {
	c := l.e.col
	var on, off []float64
	var msgs float64
	for i, it := range c.iters[1:] {
		l.facadeWarm = append(l.facadeWarm, it.WallS)
		msgs += float64(it.Msgs)
		if (i+1)%2 == 1 {
			on = append(on, it.WallS)
		} else {
			off = append(off, it.WallS)
		}
	}
	l.facadeMsgs = msgs / float64(len(c.iters)-1)
	l.facadeRuns = float64(c.ops) / float64(len(c.iters))
	l.m["bench.trace_overhead_ratio"] = quietest(on) / quietest(off)
	l.m["bench.dieouts"] = float64(c.dieouts)

	var sent, dropped, boxed int64
	for _, d := range c.details {
		var st simnet.Stats
		switch r := d.(type) {
		case gossipkit.NetResult:
			st = r.Net
		case gossipkit.StreamResult:
			st = r.Net
		default:
			continue
		}
		sent += st.Sent
		dropped += st.DroppedLoss + st.DroppedCrash + st.DroppedPart
		boxed += st.BoxedSends
	}
	l.m["simnet.drop_share"] = 0
	if sent > 0 {
		l.m["simnet.drop_share"] = float64(dropped) / float64(sent)
	}
	l.m["simnet.boxed_sends"] = float64(boxed)
}

// ---------------------------------------------------------------------------
// core: the single-rumor executor at the profile's group size

// execSeries is one executor variant run cold then warm on its own arena.
// Executions that die at the source (a few events, the model's 1−S) carry
// no per-message cost worth timing and are left out, like the workloads
// leave them out.
type execSeries struct {
	coldNs  float64   // ns per message of the first execution that took off
	warmNs  []float64 // ns per message of every later one that took off
	warm    []float64 // their walls in seconds
	perMsg  float64   // mean delivered members per message, for the residual
	results []core.NetResult
}

func (s *execSeries) nsPerMsg() float64 { return quietest(s.warmNs) }

// ops is a rung's loop count: the constant given, cut down for the test
// suite's toy sizes.
func (l *ladder) ops(n int) int {
	if l.e.sz.toy {
		return max(n>>8, 4)
	}
	return n
}

// execReps keeps every executor variant near a second of warm work.
func (l *ladder) execReps() int { return max(l.ops(min(1_000_000/l.p.n, 200)), 2) }

func (l *ladder) rumorParams() (core.Params, simnet.Config) {
	return core.Params{N: l.p.n, Fanout: dist.NewPoisson(rumorFanout), AliveRatio: rumorQ},
		simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
}

// execVariant times run(split) for splits 0..reps — the same split indices
// the facade's replications use, so results can be compared bit for bit.
func (l *ladder) execVariant(name string, run func(i int, r *xrand.RNG) (core.NetResult, error)) (*execSeries, error) {
	root := xrand.New(l.e.seed)
	s := &execSeries{}
	var err error
	var msgs, delivered int64
	reps := l.execReps()
	l.rung(name, map[string]int64{"n": int64(l.p.n), "runs": int64(reps + 1)}, func() {
		for i := 0; i <= reps || len(s.warmNs) == 0; i++ {
			t0 := time.Now()
			res, e := run(i, root.Split(uint64(i)))
			wall := time.Since(t0).Seconds()
			if e != nil {
				err = e
				return
			}
			s.results = append(s.results, res)
			if float64(res.Delivered) < dieoutThreshold*float64(res.AliveCount) {
				continue
			}
			ns := wall / float64(res.Net.Sent) * 1e9
			if s.coldNs == 0 {
				s.coldNs = ns
				continue
			}
			s.warmNs, s.warm = append(s.warmNs, ns), append(s.warm, wall)
			msgs += res.Net.Sent
			delivered += int64(res.Delivered)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	s.perMsg = float64(delivered) / float64(msgs)
	return s, nil
}

func (l *ladder) coreRungs() error {
	p, netCfg := l.rumorParams()
	arena := core.NewNetArena()
	var err error

	// Bare single kernel, with the allocation counters read around the
	// warm runs only.
	var before, after runtime.MemStats
	if l.bare, err = l.execVariant("core.exec", func(i int, r *xrand.RNG) (core.NetResult, error) {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		return core.ExecuteOnNetworkProbed(p, netCfg, r, nil, arena, nil)
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.m["core.exec_ns_per_msg"] = l.bare.nsPerMsg()
	warmRuns := float64(len(l.bare.results) - 1)
	l.m["core.warm_allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / warmRuns
	l.m["core.warm_bytes_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / warmRuns

	// The same runs observed by a pooled probe on the same warm arena: the
	// base of the "≤15 % probe budget" claim. One untimed run grows the
	// probe's own pools; its in-flight curve gives the queue occupancy the
	// sim and simnet replays run at.
	probe := obs.New(obs.Options{})
	probed, err := l.execVariant("obs.probed", func(_ int, r *xrand.RNG) (core.NetResult, error) {
		res, err := core.ExecuteOnNetworkProbed(p, netCfg, r, nil, arena, probe)
		if peak, weighted := inFlightProfile(probe.Metrics().InFlight); peak > l.peakPending {
			l.peakPending, l.occupancy = peak, weighted
		}
		return res, err
	})
	if err != nil {
		return err
	}
	l.m["obs.probe_overhead_ratio"] = probed.nsPerMsg() / l.bare.nsPerMsg()
	l.m["sim.peak_pending"] = float64(l.peakPending)

	// Lease: what a run pays before its first event (kernel, network,
	// mask and bitset reset) on a warm arena.
	leases := l.ops(min(max(10_000_000/l.p.n, 10), 2000))
	leaseRNG := xrand.New(l.e.seed)
	d := l.rung("core.lease", map[string]int64{"leases": int64(leases)}, func() {
		for i := 0; i < leases; i++ {
			st := arena.Lease(l.p.n, netCfg, leaseRNG)
			sink += uint64(st.Received.Len())
		}
	})
	l.m["core.lease_us"] = d / float64(leases) * 1e6

	// The sharded entry point on one shard (byte-identical event stream:
	// the "≤5 % overhead" claim) and on the benchmark's shard count.
	sharded := func(shards int, barriers *int, events *uint64) func(int, *xrand.RNG) (core.NetResult, error) {
		sa := core.NewNetArena().Sharded(shards)
		return func(_ int, r *xrand.RNG) (core.NetResult, error) {
			return core.ExecuteOnNetworkSharded(p, netCfg, r, nil, sa, nil, core.ShardOptions{
				Shards: shards,
				Progress: func(ev uint64, _ sim.Time) {
					*barriers++
					*events = ev
				},
			})
		}
	}
	var b1 int
	var ev1 uint64
	if l.shard1, err = l.execVariant("core.shard1", sharded(1, &b1, &ev1)); err != nil {
		return err
	}
	var bK int
	var evK, evSum uint64
	runK := sharded(l.e.shards, &bK, &evK)
	if l.shardK, err = l.execVariant("core.sharded", func(i int, r *xrand.RNG) (core.NetResult, error) {
		res, err := runK(i, r)
		evSum += evK
		return res, err
	}); err != nil {
		return err
	}
	l.m["core.shard1_overhead_ratio"] = l.shard1.nsPerMsg() / l.bare.nsPerMsg()
	l.m["core.shard_speedup"] = l.bare.nsPerMsg() / l.shardK.nsPerMsg()
	l.m["core.shard_cold_over_warm"] = l.shardK.coldNs / l.shardK.nsPerMsg()
	l.m["core.shard_barriers_per_run"] = float64(bK) / float64(len(l.shardK.results))
	l.m["core.shard_events_per_barrier"] = float64(evSum) / float64(max(bK, 1))

	// ComponentReliability (the fig5_model inner call) and the streaming
	// delivery matrix, both at paper scale.
	compRNG := xrand.New(l.e.seed)
	cp := core.Params{N: l.e.sz.n5k, Fanout: dist.NewPoisson(4), AliveRatio: 0.9}
	compRuns := l.ops(40)
	d = l.rung("core.component", map[string]int64{"runs": int64(compRuns)}, func() {
		for i := 0; i < compRuns; i++ {
			res, e := core.ComponentReliability(cp, compRNG)
			if e != nil && err == nil {
				err = e
			}
			sink += uint64(res.GiantSize)
		}
	})
	if err != nil {
		return fmt.Errorf("component reliability: %w", err)
	}
	l.m["core.component_us_per_run"] = d / float64(compRuns) * 1e6

	bits := arena.MessageBits(l.p.streamMsgs, l.e.sz.n5k)
	idx := randomTable(xrand.New(l.e.seed), l.p.streamMsgs*l.e.sz.n5k)
	bitOps := l.ops(1 << 21)
	d = l.rung("core.msgbits", map[string]int64{"ops": int64(bitOps)}, func() {
		for i := 0; i < bitOps; i++ {
			at := idx[i&tableMask]
			row, col := at/l.e.sz.n5k, at%l.e.sz.n5k
			if !bits.Get(row, col) {
				bits.Set(row, col)
				sink++
			}
		}
	})
	l.m["core.msgbits_ns_per_op"] = d / float64(bitOps) * 1e9
	return nil
}

// ---------------------------------------------------------------------------
// facade: Run/RunMany against the direct internal call at the same split

// direct replays one facade iteration through the internal entry points
// the facade dispatches to, keeping what a direct caller would keep (one
// arena per worker for the whole pass). It returns every per-replication
// result in the facade's observation order.
func (l *ladder) direct(it int) ([]any, error) {
	e := l.e
	ctx := e.ctx
	var details []any
	switch l.w.name {
	case "fig5_model":
		cell := 0
		for _, q := range fig5Qs {
			for _, f := range fig5Fanouts {
				p := core.Params{N: e.sz.n5k, Fanout: dist.NewPoisson(f), AliveRatio: q}
				if _, err := core.EstimateComponentReliabilityCtx(ctx, p, e.sz.figReps, e.cellSeed(it, cell), e.workers,
					func(_ int, res core.ComponentResult) { details = append(details, res) }); err != nil {
					return nil, err
				}
				pred, err := core.Predict(p)
				if err != nil {
					return nil, err
				}
				details = append(details, pred)
				cell++
			}
		}
	case "des_sweep_5k":
		arenas := make([]*core.NetArena, e.workers)
		for w := range arenas {
			arenas[w] = core.NewNetArena()
		}
		for ci, c := range sweepCells() {
			p := core.Params{N: e.sz.n5k, Fanout: dist.NewPoisson(c.f), AliveRatio: c.q}
			root := xrand.New(e.cellSeed(it, ci))
			topo := topology.Spec{}
			if c.kout {
				topo = topology.Spec{Kind: topology.KOut, K: sweepKOut}
			}
			err := runpool.RunOrdered(ctx, e.sz.sweepReps, e.workers, func(w, i int) (core.NetResult, error) {
				r, pp := root.Split(uint64(i)), p
				if ov, err := topo.Build(pp.N, r.Split(topology.Split)); err != nil {
					return core.NetResult{}, err
				} else if ov != nil {
					pp.View = ov
				}
				return core.ExecuteOnNetworkProbed(pp, c.net, r, nil, arenas[w], nil)
			}, func(_ int, res core.NetResult) { details = append(details, res) })
			if err != nil {
				return nil, err
			}
		}
	case "compare_grid":
		spec := compareSpec(e.sz)
		executors := []scenario.Executor{scenario.PaperExecutor("paper")}
		for _, p := range spec.Protocols {
			executors = append(executors, scenario.NewProtocolExecutor(p))
		}
		for call := 0; call < compareCalls; call++ {
			_, err := scenario.CompareCtx(ctx, spec.Scenarios, scenario.CompareConfig{
				Run: spec.Config, Executors: executors, Seeds: e.sz.compareSeeds, BaseSeed: e.cellSeed(it, call), Workers: e.workers,
			}, func(_ int, rep scenario.RunReport) { details = append(details, rep) })
			if err != nil {
				return nil, err
			}
		}
	}
	return details, nil
}

func (l *ladder) facadeRungs() error {
	c := l.e.col
	// Iteration boundaries inside the flat detail list: sweep workloads
	// observe a fixed number of reports per iteration.
	perIter := len(c.details) / len(c.iters)
	var directWarm []float64
	var facadeDetails, directDetails []any

	switch l.w.name {
	case "rumor_1m", "rumor_1m_sharded", "stream_perid", "stream_batch":
		// One replication per iteration: the direct call at split i is in
		// the executor or stream series the rungs above already measured
		// at this workload's own profile.
		pair := func(i int, res any) {
			if i < len(c.details) {
				facadeDetails = append(facadeDetails, c.details[i])
				directDetails = append(directDetails, res)
			}
		}
		switch l.w.name {
		case "rumor_1m":
			directWarm = l.bare.warm
			for i, res := range l.bare.results {
				pair(i, res)
			}
		case "rumor_1m_sharded":
			directWarm = l.shardK.warm
			for i, res := range l.shardK.results {
				pair(i, res)
			}
		case "stream_perid":
			directWarm = l.perid.warm
			for i, res := range l.perid.results {
				pair(i, res)
			}
		case "stream_batch":
			directWarm = l.batch.warm
			for i, res := range l.batch.results {
				pair(i, res)
			}
		}
	default:
		const directIters = 2
		var err error
		l.rung("facade.direct", map[string]int64{"iterations": directIters + 1}, func() {
			directWarm = series(directIters, func(it int) {
				d, e := l.direct(it)
				if e != nil && err == nil {
					err = e
				}
				directDetails = append(directDetails, d...)
			})
		})
		if err != nil {
			return fmt.Errorf("direct replay: %w", err)
		}
		facadeDetails = c.details[:min(perIter*(directIters+1), len(c.details))]
	}

	mismatches := 0
	if len(facadeDetails) != len(directDetails) {
		mismatches = max(len(facadeDetails), len(directDetails))
	} else {
		for i := range facadeDetails {
			if !reflect.DeepEqual(facadeDetails[i], directDetails[i]) {
				mismatches++
			}
		}
	}
	self := quietest(l.facadeWarm) - quietest(directWarm)
	l.m["facade.result_mismatches"] = float64(mismatches)
	l.m["facade.self_ns_per_msg"] = self / l.facadeMsgs * 1e9
	l.m["facade.self_us_per_run"] = self / l.facadeRuns * 1e6
	return nil
}

// ---------------------------------------------------------------------------
// runpool

func (l *ladder) runpoolRungs() error {
	ctx, workers := l.e.ctx, l.e.workers
	items := l.ops(100_000)
	var err error
	d := l.rung("runpool.dispatch", map[string]int64{"items": int64(items)}, func() {
		err = runpool.RunOrdered(ctx, items, workers,
			func(_, i int) (int, error) { return i, nil }, func(_ int, v int) { sink += uint64(v) })
	})
	if err != nil {
		return err
	}
	l.m["runpool.dispatch_ns_per_run"] = d / float64(items) * 1e9

	// One des_sweep_5k-shaped pass with harness-owned bodies: how much of
	// workers × wall the pool keeps busy, and the per-replication time
	// distribution (1200 samples, so p99 still has 12 beyond it).
	reps := max(l.ops(1200), 2*workers)
	p := core.Params{N: l.e.sz.n5k, Fanout: dist.NewPoisson(rumorFanout), AliveRatio: rumorQ}
	_, netCfg := l.rumorParams()
	arenas := make([]*core.NetArena, workers)
	for w := range arenas {
		arenas[w] = core.NewNetArena()
	}
	root := xrand.New(l.e.seed)
	body := make([]float64, reps)
	wall := l.rung("runpool.pass", map[string]int64{"runs": int64(reps), "workers": int64(workers)}, func() {
		err = runpool.RunOrdered(ctx, reps, workers, func(w, i int) (int, error) {
			t0 := time.Now()
			res, err := core.ExecuteOnNetworkArena(p, netCfg, root.Split(uint64(i)), nil, arenas[w])
			body[i] = time.Since(t0).Seconds()
			return res.Delivered, err
		}, func(_ int, v int) { sink += uint64(v) })
	})
	if err != nil {
		return err
	}
	var busy float64
	for _, b := range body {
		busy += b
	}
	l.m["runpool.busy_share"] = busy / (float64(workers) * wall)
	if l.m["runpool.rep_s_p50"], err = stats.Quantile(body, 0.50); err != nil {
		return err
	}
	if l.m["runpool.rep_s_p99"], err = stats.Quantile(body, 0.99); err != nil {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// stream

type streamSeries struct {
	warm    []float64
	entries float64 // mean id entries per warm run
	results []stream.Result
	allocs  float64
}

func (s *streamSeries) nsPerEntry() float64 { return quietest(s.warm) / s.entries * 1e9 }

// streamVariant times stream.RunProbed at splits 0..reps on one arena.
func (l *ladder) streamVariant(name string, batch bool, msgs, reps int) (*streamSeries, error) {
	sz := l.e.sz
	sz.streamMsgs = msgs
	spec := streamSpec(sz, batch)
	arena := stream.NewArena()
	root := xrand.New(l.e.seed)
	s := &streamSeries{}
	var err error
	var entries int64
	var before, after runtime.MemStats
	l.rung(name, map[string]int64{"rumors": int64(msgs), "runs": int64(reps + 1)}, func() {
		s.warm = series(reps, func(i int) {
			if i == 1 {
				runtime.ReadMemStats(&before)
			}
			res, e := stream.RunProbed(spec.Config, spec.Net, root.Split(uint64(i)), nil, arena, nil)
			if e != nil && err == nil {
				err = e
			}
			s.results = append(s.results, res)
			if i > 0 {
				entries += res.MessagesSent
			}
		})
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	s.entries = float64(entries) / float64(reps)
	s.allocs = float64(after.Mallocs-before.Mallocs) / float64(reps)
	return s, nil
}

func (l *ladder) streamRungs() error {
	reps := 2
	if l.p.streamMsgs < fullSizes.streamMsgs {
		reps = 5
	}
	perid, err := l.streamVariant("stream.perid", false, l.p.streamMsgs, reps)
	if err != nil {
		return err
	}
	batch, err := l.streamVariant("stream.batch", true, l.p.streamMsgs, reps)
	if err != nil {
		return err
	}
	l.perid, l.batch = perid, batch
	l.m["stream.exec_ns_per_entry_perid"] = perid.nsPerEntry()
	l.m["stream.exec_ns_per_entry_batch"] = batch.nsPerEntry()
	l.m["stream.warm_allocs_per_run"] = perid.allocs
	open := 0
	for _, s := range []*streamSeries{perid, batch} {
		for _, res := range s.results {
			if streamLedgerOpen(res) != "" {
				open++
			}
		}
	}
	l.m["stream.ledger_open"] = float64(open)
	l.m["stream.repair_misses"] = float64(perid.results[len(perid.results)-1].Ledger.RepairMisses)
	last := batch.results[len(batch.results)-1].Net
	l.m["stream.entries_per_wire_msg"] = float64(last.SentEntries()) / float64(max(last.Sent, 1))
	return nil
}

// ---------------------------------------------------------------------------
// protocols, scenario

func (l *ladder) protocolRungs() error {
	spec := compareSpec(l.e.sz)
	netCfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 20 * time.Millisecond}}
	arena := core.NewNetArena()
	runs := l.ops(20)
	names := []string{"pbcast", "lpbcast", "antientropy", "rdg", "lrg"}
	for i, p := range spec.Protocols {
		r := xrand.New(l.e.seed)
		var err error
		var warm []float64
		l.rung("protocols."+names[i], map[string]int64{"runs": int64(runs + 1), "n": int64(l.e.sz.nCompare)}, func() {
			warm = series(runs, func(int) {
				out, e := protocols.RunOnDES(p, protocols.DESConfig{Net: netCfg}, r, nil, arena)
				if e != nil && err == nil {
					err = e
				}
				sink += uint64(out.Delivered)
			})
		})
		if err != nil {
			return fmt.Errorf("protocols.%s: %w", names[i], err)
		}
		l.m["protocols."+names[i]+"_us_per_run"] = quietest(warm) * 1e6
	}

	// The scenario layer's own cost for a fault-free cell: a campaign run
	// minus the bare paper execution it wraps (both build their SCAMP
	// views and run on a throwaway arena).
	cfg := spec.Config
	cfg.Net = netCfg
	baseline, ok := scenario.ByName("baseline")
	if !ok {
		return fmt.Errorf("bundled scenario %q missing", "baseline")
	}
	// Both sides run the same seeds, so the same executions die at the
	// source on both; those are left out (their wall is near zero).
	var err error
	tookOff := func(delivered int) bool { return float64(delivered) >= dieoutThreshold*float64(cfg.Params.N) }
	var campaign, bare []float64
	l.rung("scenario.cell", map[string]int64{"runs": int64(3 * runs)}, func() {
		for i := 0; i < 3*runs && err == nil; i++ {
			t0 := time.Now()
			rep, e := scenario.Run(baseline, cfg, l.e.seed+uint64(i))
			t1 := time.Now()
			res, e2 := scenario.ExecutePaper(cfg, xrand.New(l.e.seed+uint64(i)), nil, nil)
			t2 := time.Now()
			if e != nil {
				err = e
			} else if e2 != nil {
				err = e2
			}
			if tookOff(rep.Delivered) && tookOff(res.Delivered) {
				campaign, bare = append(campaign, t1.Sub(t0).Seconds()), append(bare, t2.Sub(t1).Seconds())
			}
		}
	})
	if err != nil {
		return fmt.Errorf("scenario rung: %w", err)
	}
	if len(campaign) == 0 {
		return fmt.Errorf("scenario rung: no execution took off in %d runs", 3*runs)
	}
	l.m["scenario.self_us_per_cell"] = (quietest(campaign) - quietest(bare)) * 1e6

	executors := []scenario.Executor{scenario.PaperExecutor("paper")}
	for _, p := range spec.Protocols {
		executors = append(executors, scenario.NewProtocolExecutor(p))
	}
	const seeds = 2
	cells := len(executors) * len(spec.Scenarios) * seeds
	d := l.rung("scenario.grid", map[string]int64{"cells": int64(cells)}, func() {
		_, err = scenario.CompareCtx(l.e.ctx, spec.Scenarios, scenario.CompareConfig{
			Run: spec.Config, Executors: executors, Seeds: seeds, BaseSeed: l.e.seed, Workers: l.e.workers,
		}, nil)
	})
	if err != nil {
		return fmt.Errorf("scenario grid: %w", err)
	}
	l.m["scenario.cells_per_s"] = float64(cells) / d
	return nil
}

// ---------------------------------------------------------------------------
// simnet, sim: steady-state replays at the observed queue occupancy

const (
	tableSize = 1 << 16
	tableMask = tableSize - 1
)

// randomTable pre-draws uniform values in [0, n) so a replay pays for no
// sampling of its own.
func randomTable(r *xrand.RNG, n int) []int {
	t := make([]int, tableSize)
	for i := range t {
		t[i] = r.Intn(n)
	}
	return t
}

// replayEvents is how many send→deliver (or schedule→fire) cycles one
// replay pass makes: two turnovers of the queue, and no fewer than 2¹⁶.
func (l *ladder) replayEvents() int { return max(2*l.occupancy, l.ops(1<<16)) }

// replaySend holds `occupancy` messages in flight — every delivery sends
// one more to a pre-drawn target until `total` have been sent — and returns
// the seconds one warm pass took and the drained network. The first pass is
// not timed: like the executor's arena, the queue and pools are grown and
// their pages touched before the measurement.
func (l *ladder) replaySend(name string, total, batch int, send func(nw *simnet.Network, from, to simnet.NodeID)) (float64, *simnet.Network) {
	n, occupancy := l.p.n, min(l.occupancy, total)
	cfg := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
	targets := randomTable(xrand.New(l.e.seed+1), n)
	k, rng := sim.New(), xrand.New(l.e.seed)
	nw := simnet.New(k, n, rng, cfg)
	pass := func() {
		k.Reset()
		nw.Reset(k, n, rng, cfg)
		remaining, ti := total-occupancy, 0
		forward := func(from simnet.NodeID) {
			if remaining > 0 {
				remaining--
				send(nw, from, simnet.NodeID(targets[ti&tableMask]))
				ti++
			}
		}
		nw.RegisterAll(func(_ sim.Time, msg simnet.Message) { forward(msg.To) })
		nw.RegisterBatchAll(func(_ sim.Time, _, to simnet.NodeID, _ int32, _ []int32) { forward(to) })
		for i := 0; i < occupancy; i++ {
			send(nw, simnet.NodeID(i%n), simnet.NodeID(targets[i&tableMask]))
		}
		if err := k.RunAll(); err != nil {
			panic(err) // no budget is set; unreachable
		}
	}
	pass()
	return l.quietestPass(name, total, map[string]int64{"msgs": int64(total), "in_flight": int64(occupancy), "batch": int64(batch)}, pass), nw
}

// quietestPass times a replay pass of `events` events as often as fits in
// four million events (at most 32 times) and returns the quickest. The
// executor rungs take the quietest of up to 200 short executions; a replay
// timed as one long pass would read colder than them on a noisy host for
// that reason alone.
func (l *ladder) quietestPass(name string, events int, counts map[string]int64, pass func()) float64 {
	var walls []float64
	for i := 0; i < min(max(4_000_000/events, 1), l.ops(32)); i++ {
		walls = append(walls, l.rung(name, counts, pass))
	}
	return quietest(walls)
}

func (l *ladder) simnetRungs() error {
	total := l.replayEvents()
	d, nw := l.replaySend("simnet.send", total, 0, func(nw *simnet.Network, from, to simnet.NodeID) { nw.Send(from, to, nil) })
	l.m["simnet.send_ns_per_msg"] = d / float64(total) * 1e9
	inflight, slabs := nw.Stats().InFlight(), int64(nw.SlabsInUse())

	d, nw = l.replaySend("simnet.sendtag", total, 0, func(nw *simnet.Network, from, to simnet.NodeID) { nw.SendTag(from, to, 5) })
	l.m["simnet.sendtag_ns_per_msg"] = d / float64(total) * 1e9
	inflight += nw.Stats().InFlight()

	ids := make([]int32, 256)
	for i := range ids {
		ids[i] = int32(i)
	}
	for _, b := range []int{1, 16, 256} {
		// Hold the id-entry volume of the plain replay, not its message
		// count, so every batch size moves the same number of ids.
		batches := max(total/b, l.ops(1<<12))
		d, nw = l.replaySend(fmt.Sprintf("simnet.sendbatch.b%d", b), batches, b,
			func(nw *simnet.Network, from, to simnet.NodeID) { nw.SendBatch(from, to, 1, ids[:b]) })
		l.m[fmt.Sprintf("simnet.sendbatch_ns_per_entry_b%d", b)] = d / float64(batches*b) * 1e9
		if b == 16 {
			l.m["simnet.sendbatch_ns_per_batch_b16"] = d / float64(batches) * 1e9
		}
		inflight += nw.Stats().InFlight()
		slabs += int64(nw.SlabsInUse())
	}
	l.m["simnet.inflight_end"] = float64(inflight)
	l.m["simnet.slabs_in_use_end"] = float64(slabs)
	return nil
}

// replayKernel holds `occupancy` typed events pending — every firing
// schedules one more after a pre-drawn delay until `total` have fired — and
// returns the seconds one warm pass took (see replaySend).
func (l *ladder) replayKernel(name string, calendar bool, total int) float64 {
	occupancy := min(l.occupancy, total)
	delays := randomTable(xrand.New(l.e.seed), int(9*time.Millisecond))
	k := sim.New()
	pass := func() {
		k.Reset()
		if calendar {
			k.SetBoundedDelayHint(10*time.Millisecond, l.p.n) // simnet's own hint: one pending event per member
		}
		remaining, di := total-occupancy, 0
		var h sim.HandlerID
		h = k.RegisterHandler(func(_ sim.Time, node, payload int32) {
			if remaining > 0 {
				remaining--
				k.ScheduleAfter(time.Millisecond+time.Duration(delays[di&tableMask]), h, node, payload)
				di++
			}
		})
		for i := 0; i < occupancy; i++ {
			k.ScheduleAfter(time.Millisecond+time.Duration(delays[i&tableMask]), h, int32(i), 0)
		}
		if err := k.RunAll(); err != nil {
			panic(err) // no budget is set; unreachable
		}
	}
	pass()
	return l.quietestPass(name, total, map[string]int64{"events": int64(total), "pending": int64(occupancy)}, pass)
}

func (l *ladder) simRungs() error {
	total := l.replayEvents()
	l.m["sim.calendar_ns_per_event"] = l.replayKernel("sim.calendar", true, total) / float64(total) * 1e9
	l.m["sim.heap_ns_per_event"] = l.replayKernel("sim.heap", false, total) / float64(total) * 1e9
	l.m["simnet.self_ns_per_msg"] = l.m["simnet.send_ns_per_msg"] - l.m["sim.calendar_ns_per_event"]

	// The closure layer (At/After/Cancel/Every) at the low occupancy its
	// callers — scenario hooks, protocol round ticks — keep it at.
	events, pending := l.ops(1<<19), 1024
	k := sim.New()
	remaining := events - pending
	var fire func()
	fire = func() {
		if remaining > 0 {
			remaining--
			k.After(time.Millisecond, fire)
		}
	}
	d := l.rung("sim.closure", map[string]int64{"events": int64(events)}, func() {
		for i := 0; i < pending; i++ {
			k.After(time.Duration(i)*time.Microsecond, fire)
		}
		if err := k.RunAll(); err != nil {
			panic(err)
		}
	})
	l.m["sim.closure_ns_per_event"] = d / float64(events) * 1e9

	k = sim.New()
	d = l.rung("sim.cancel", map[string]int64{"events": int64(events)}, func() {
		for i := 0; i < events; i++ {
			k.Cancel(k.After(time.Millisecond, fire))
		}
		if err := k.RunAll(); err != nil {
			panic(err)
		}
	})
	l.m["sim.cancel_ns_per_event"] = d / float64(events) * 1e9

	k = sim.New()
	ticks := 0
	d = l.rung("sim.every", map[string]int64{"ticks": int64(events)}, func() {
		k.Every(0, time.Millisecond, func() bool { ticks++; return ticks < events })
		if err := k.RunAll(); err != nil {
			panic(err)
		}
	})
	l.m["sim.every_ns_per_tick"] = d / float64(events) * 1e9
	return nil
}

// ---------------------------------------------------------------------------
// membership, xrand, dist, topology

func (l *ladder) samplingRungs() error {
	draws, k := l.ops(1<<19), 5
	n := l.p.n
	r := xrand.New(l.e.seed)
	selves := randomTable(xrand.New(l.e.seed+1), n)
	dst := make([]int, 0, 64)

	sample := func(name string, view membership.View, group int) float64 {
		targets := 0
		d := l.rung(name, map[string]int64{"draws": int64(draws), "k": int64(k), "n": int64(group)}, func() {
			for i := 0; i < draws; i++ {
				dst = view.SampleTargets(dst[:0], selves[i&tableMask]%group, k, r)
				targets += len(dst)
			}
		})
		return d / float64(max(targets, 1)) * 1e9
	}
	l.m["membership.sample_ns_per_target"] = sample("membership.full", membership.NewFullView(n), n)
	pvN := l.e.sz.nCompare
	l.m["membership.partial_sample_ns_per_target"] = sample("membership.partial", membership.NewPartialViews(pvN, 2, xrand.New(l.e.seed)), pvN)

	d := l.rung("xrand.sample_excl", map[string]int64{"draws": int64(draws), "k": int64(k)}, func() {
		for i := 0; i < draws; i++ {
			dst = r.SampleExcluding(dst, n, k, selves[i&tableMask])
			sink += uint64(dst[0])
		}
	})
	l.m["xrand.sample_excl_ns_per_target"] = d / float64(draws*k) * 1e9

	words := l.ops(1 << 24)
	d = l.rung("xrand.uint64", map[string]int64{"draws": int64(words)}, func() {
		for i := 0; i < words; i++ {
			sink += r.Uint64()
		}
	})
	l.m["xrand.uint64_ns"] = d / float64(words) * 1e9

	po := dist.NewPoisson(rumorFanout)
	d = l.rung("dist.poisson", map[string]int64{"draws": int64(draws)}, func() {
		for i := 0; i < draws; i++ {
			sink += uint64(po.Sample(r))
		}
	})
	l.m["dist.poisson_ns_per_draw"] = d / float64(draws) * 1e9

	// The des_sweep_5k overlay: built once per replication there.
	spec := topology.Spec{Kind: topology.KOut, K: sweepKOut}
	var ov *topology.Overlay
	var err error
	warm := series(l.ops(10), func(int) {
		id := l.e.rec.begin("topology.kout_build")
		o, e := spec.Build(l.e.sz.n5k, r)
		l.e.rec.end(id, map[string]int64{"n": int64(l.e.sz.n5k), "k": sweepKOut})
		if e != nil && err == nil {
			err = e
		}
		ov = o
	})
	if err != nil {
		return fmt.Errorf("k-out build: %w", err)
	}
	l.m["topology.kout_build_us"] = quietest(warm) * 1e6
	l.m["topology.sample_ns_per_target"] = sample("topology.sample", ov, l.e.sz.n5k)
	return nil
}

// ---------------------------------------------------------------------------
// bitset, failure

func (l *ladder) bitsetRungs() error {
	n := l.p.n
	var b bitset.Bits
	b.Reset(n)
	idx := randomTable(xrand.New(l.e.seed), n)
	ops := l.ops(1 << 22)
	d := l.rung("bitset.random", map[string]int64{"ops": int64(ops), "bits": int64(n)}, func() {
		for i := 0; i < ops; i++ {
			// The executor's first-receipt test: read, then set on a miss.
			// The table repeats, so later passes are read-only hits, as
			// most deliveries are.
			if at := idx[i&tableMask]; !b.Get(at) {
				b.Set(at)
				sink++
			}
		}
	})
	l.m["bitset.random_ns_per_op"] = d / float64(ops) * 1e9

	reps := l.ops(min(max(50_000_000/n, 20), 2000))
	d = l.rung("bitset.count", map[string]int64{"reps": int64(reps)}, func() {
		for i := 0; i < reps; i++ {
			sink += uint64(b.Count())
		}
	})
	l.m["bitset.count_us"] = d / float64(reps) * 1e6
	d = l.rung("bitset.reset", map[string]int64{"reps": int64(reps)}, func() {
		for i := 0; i < reps; i++ {
			b.Reset(n)
		}
	})
	l.m["bitset.reset_us"] = d / float64(reps) * 1e6

	mask := failure.NewMask(n)
	r := xrand.New(l.e.seed)
	fills := l.ops(min(max(5_000_000/n, 5), 500))
	warm := series(fills, func(int) { mask.FillExact(n, rumorQ, 0, r) })
	l.m["failure.fill_exact_us"] = quietest(warm) * 1e6
	return nil
}

// ---------------------------------------------------------------------------
// graph, genfunc

func (l *ladder) modelRungs() error {
	n := l.e.sz.n5k
	r := xrand.New(l.e.seed)
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	warm := series(l.ops(20), func(int) {
		id := l.e.rec.begin("graph.giant")
		g := graph.GossipGraph(n, dist.NewPoisson(4), r)
		sink += uint64(graph.LargestOutComponent(g, active, []int{0}))
		l.e.rec.end(id, map[string]int64{"n": int64(n), "arcs": int64(g.Arcs())})
	})
	l.m["graph.giant_us_per_run"] = quietest(warm) * 1e6

	calls := l.ops(1 << 14)
	var err error
	d := l.rung("genfunc.reliability", map[string]int64{"calls": int64(calls)}, func() {
		for i := 0; i < calls; i++ {
			v, e := genfunc.PoissonReliability(1.1+float64(i%57)/10, 0.9)
			if e != nil && err == nil {
				err = e
			}
			sink += math.Float64bits(v)
		}
	})
	if err != nil {
		return fmt.Errorf("genfunc: %w", err)
	}
	l.m["genfunc.reliability_us_per_call"] = d / float64(calls) * 1e6

	// Model gap: one Fig. 5 series (q=0.6, the paper's 15 fanouts × 20
	// replications) — simulated statistics, so the values repeat exactly
	// at one seed. Reported, not bounded.
	var worst, sq float64
	l.rung("genfunc.model_gap", map[string]int64{"points": int64(len(fig5Fanouts))}, func() {
		for i, f := range fig5Fanouts {
			p := core.Params{N: n, Fanout: dist.NewPoisson(f), AliveRatio: 0.6}
			est, e := core.EstimateComponentReliabilityCtx(l.e.ctx, p, l.e.sz.figReps, l.e.seed+uint64(i), l.e.workers, nil)
			want, e2 := genfunc.PoissonReliability(f, 0.6)
			if err == nil {
				err = e
			}
			if err == nil {
				err = e2
			}
			gap := math.Abs(est.Mean - want)
			worst = max(worst, gap)
			sq += gap * gap
		}
	})
	if err != nil {
		return fmt.Errorf("model gap: %w", err)
	}
	l.m["genfunc.model_gap_max"] = worst
	l.m["genfunc.model_gap_rmse"] = math.Sqrt(sq / float64(len(fig5Fanouts)))
	return nil
}

// ---------------------------------------------------------------------------
// closure

// closeLadder derives the self times that need two rungs and checks that
// the rungs below the executor explain it within the stated slack: per
// message the single-rumor executor pays one target draw, one send→deliver
// (which contains one kernel event), one first-receipt bit test, and one
// fanout draw per delivered member.
func (l *ladder) closeLadder() []string {
	m := l.m
	explained := m["simnet.send_ns_per_msg"] + m["membership.sample_ns_per_target"] +
		m["bitset.random_ns_per_op"] + m["dist.poisson_ns_per_draw"]*l.bare.perMsg
	exec := m["core.exec_ns_per_msg"]
	m["core.residual_ns_per_msg"] = exec - explained
	m["core.residual_share"] = (exec - explained) / exec
	m["stream.residual_ns_per_entry_perid"] = m["stream.exec_ns_per_entry_perid"] - m["simnet.sendtag_ns_per_msg"]
	m["stream.residual_ns_per_entry_batch"] = m["stream.exec_ns_per_entry_batch"] - m["simnet.sendbatch_ns_per_entry_b16"]

	const lo, hi = -0.10, 0.40
	share := m["core.residual_share"]
	switch {
	case share < lo:
		return []string{fmt.Sprintf("core ladder: the replayed rungs (%.0f ns/msg) over-explain the executor (%.0f ns/msg): residual share %.2f < %.2f — a replay runs colder than the executor's own use of that layer", explained, exec, share, lo)}
	case share > hi:
		return []string{fmt.Sprintf("core ladder: the replayed rungs (%.0f ns/msg) under-explain the executor (%.0f ns/msg): residual share %.2f > %.2f — a rung is missing below core", explained, exec, share, hi)}
	}
	return nil
}
