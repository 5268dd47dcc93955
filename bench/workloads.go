package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gossipkit"
	"gossipkit/internal/genfunc"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// sizes are the workload dimensions. They are constants of the benchmark,
// identical on every commit; the CLI has no flag for them. toySizes exists
// for the test suite only.
type sizes struct {
	n5k          int // the paper's largest group (Figs. 5a/5b), cache-resident
	n1m          int // the scale headline: run state far exceeds cache
	nCompare     int // protocol × campaign grid group size
	figReps      int // replications per Fig. 5 point (the paper's 20)
	sweepReps    int // replications per DES sweep cell
	compareSeeds int // seeds per (protocol, campaign) cell and facade call
	streamMsgs   int // rumors in the sustained stream
	// slack widens the statistical tolerances (1 at full size): at toy
	// scale finite-size effects are several times the full-size bands.
	slack float64
	toy   bool // test-suite scale: the traced run's rungs cut their loop counts too
}

var fullSizes = sizes{n5k: 5000, n1m: 1_000_000, nCompare: 1000, figReps: 20, sweepReps: 30, compareSeeds: 3, streamMsgs: 10_000, slack: 1}

var toySizes = sizes{n5k: 1000, n1m: 2000, nCompare: 200, figReps: 3, sweepReps: 8, compareSeeds: 1, streamMsgs: 50, slack: 6, toy: true}

// workload is one named set of inputs. warmPer8s is the number of warm
// iterations a run of --seconds 8 measures: a constant, so every commit
// does identical work (an adaptive count would mix cold and warm state
// differently on a faster commit). Iteration 0 is cold and reported only in
// setup_s.
type workload struct {
	name      string
	why       string
	warmPer8s int
	run       func(e *env, warm int) error
}

// workloads lists the seven workloads in the order they are reported; the
// names are normative.
var workloads = []workload{
	{"fig5_model", "The paper's own validation loop (Figs. 5a+5b, n=5000): graph, genfunc, numeric and failure do the work, sim and simnet none.", 5, runFig5},
	{"des_sweep_5k", "Cache-resident DES sweep: per-message CPU, per-run set-up, runpool and facade overhead; the only load on the heap queue and topology.", 5, runSweep},
	{"rumor_1m", "One n=1e6 rumor on a single kernel: memory-bound, so sim/simnet/bitset locality shows here and not on des_sweep_5k.", 3, runRumor},
	{"rumor_1m_sharded", "The same n=1e6 rumor on the sharded kernel: decides ROADMAP item 2 against rumor_1m, cold and warm kept apart.", 6, runRumorSharded},
	{"stream_perid", "Sustained 1e4-rumor push-pull stream, one kernel event per id: simnet.SendTag, sim event rate and stream worker rounds.", 4, runStreamPerID},
	{"stream_batch", "The same stream on the batched wire: simnet.SendBatch, slab pool and core.MessageBits; moves opposite to stream_perid on a wire trade-off.", 12, runStreamBatch},
	{"compare_grid", "Protocol x campaign grid at N=1000: protocols.Runtime round ticks, scenario injection, the kernel's closure path and partial views.", 5, runCompare},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmIters scales a workload's constant to the run length asked for.
func (w workload) warmIters(seconds int) int {
	return max(3, (w.warmPer8s*seconds+4)/8)
}

// cellSeed derives the seed of one facade call from the run's seed: call
// `cell` of iteration `it` runs on xrand.New(seed).Split(it<<16|cell).
func (e *env) cellSeed(it, cell int) uint64 {
	return xrand.New(e.seed).Split(uint64(it)<<16 | uint64(cell)).Uint64()
}

// iterate runs iter once cold and `warm` times warm, closing one timed
// iteration after each.
func (e *env) iterate(warm int, iter func(it int) error) error {
	for it := 0; it <= warm; it++ {
		e.rec.record(it == 0 || it%2 == 1) // the traced run records every other warm iteration
		id := e.rec.begin("iteration")
		if err := iter(it); err != nil {
			return err
		}
		e.col.mark()
		e.rec.end(id, map[string]int64{"index": int64(it), "msgs": e.col.iters[len(e.col.iters)-1].Msgs})
	}
	return nil
}

var uniform10ms = gossipkit.NetConfig{Latency: gossipkit.UniformLatency(time.Millisecond, 10*time.Millisecond)}

// ---------------------------------------------------------------------------
// fig5_model

var (
	fig5Qs      = []float64{0.1, 0.3, 0.5, 1.0, 0.4, 0.6, 0.8, 1.0} // panels 5a then 5b
	fig5Fanouts = func() []float64 {                                // the paper's 15-point sweep 1.1 … 6.7
		fs := make([]float64, 15)
		for i := range fs {
			fs[i] = 1.1 + 0.4*float64(i)
		}
		return fs
	}()
)

// fig5Tolerance is the repo's own figure tolerance (internal/experiment):
// 0.12, widened to 0.22 where finite-size effects are visible — the sweep
// points next to the critical fanout 1/q and the q=0.1 series, whose alive
// set is a tenth of the group.
func fig5Tolerance(f, q float64) float64 {
	if q <= 0.1 || math.Abs(f-1/q) < 0.45 {
		return 0.22
	}
	return 0.12
}

// checkFig5Point judges one sweep point: simulated giant-component
// reliability against Eq. 11.
func checkFig5Point(f, q, simulated, predicted, slack float64) verdict {
	tol := fig5Tolerance(f, q) * slack
	if gap := math.Abs(simulated - predicted); gap > tol || math.IsNaN(gap) {
		return failf("fig5 f=%.1f q=%.1f: simulated %.4f vs Eq. 11 %.4f (gap %.4f > %.2f)", f, q, simulated, predicted, gap, tol)
	}
	return verdict{}
}

func runFig5(e *env, warm int) error {
	return e.iterate(warm, func(it int) error {
		cell := 0
		for _, q := range fig5Qs {
			for _, f := range fig5Fanouts {
				p := gossipkit.Params{N: e.sz.n5k, Fanout: gossipkit.Poisson(f), AliveRatio: q}
				sim, err := e.run(gossipkit.MonteCarlo{Params: p, Metric: gossipkit.GiantComponent}, e.sz.figReps,
					gossipkit.WithSeed(e.cellSeed(it, cell)), gossipkit.WithWorkers(e.workers), e.observed(nil))
				if err != nil {
					return err
				}
				model, err := e.run(gossipkit.Analytic{Params: p}, 1, e.observed(nil))
				if err != nil {
					return err
				}
				e.col.apply(checkFig5Point(f, q, sim.Reliability.Mean, model.Reliability.Mean, e.sz.slack))
				cell++
			}
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// des_sweep_5k

// sweepCell is one (fanout, q, substrate) point of the DES sweep.
type sweepCell struct {
	f, q float64
	net  gossipkit.NetConfig
	kout bool // gossip over a k-out overlay built per replication
}

// sweepCells: 12 Poisson cells on bounded latency (calendar queue), 4 on
// exponential latency (no bound, so the kernel keeps the heap queue), 4 on
// a k-out overlay.
func sweepCells() []sweepCell {
	var cells []sweepCell
	for _, f := range []float64{3, 4, 5, 6} {
		for _, q := range []float64{0.6, 0.8, 1.0} {
			cells = append(cells, sweepCell{f: f, q: q, net: uniform10ms})
		}
	}
	expNet := gossipkit.NetConfig{Latency: simnet.ExponentialLatency{Floor: time.Millisecond, Mean: 3 * time.Millisecond}}
	for _, q := range []float64{0.6, 0.7, 0.8, 0.9} {
		cells = append(cells, sweepCell{f: 5, q: q, net: expNet})
	}
	for _, q := range []float64{0.6, 0.7, 0.8, 0.9} {
		cells = append(cells, sweepCell{f: 5, q: q, net: uniform10ms, kout: true})
	}
	return cells
}

const (
	sweepKOut       = 13   // ⌈log₂ 5000⌉
	sweepTolerance  = 0.02 // mean take-off reliability vs Eq. 11, loss-free uniform-selection cells
	dieoutThreshold = 0.01 // delivered < 1 % of alive: the epidemic died at the source
)

// isDieout reports whether a single-rumor execution died at the source —
// the model predicts this with probability 1−S; it is not a failure.
func isDieout(r gossipkit.Report) bool {
	return float64(r.Delivered) < dieoutThreshold*float64(r.AliveCount)
}

// checkNetRun judges one Network replication: the fabric must have drained.
func checkNetRun(r gossipkit.Report) verdict {
	res, ok := r.Detail.(gossipkit.NetResult)
	if !ok {
		return failf("network report carries %T, want NetResult", r.Detail)
	}
	if in := res.Net.InFlight(); in != 0 {
		return failf("network run %d ended with %d messages in flight", r.Run, in)
	}
	return verdict{}
}

// checkSweepCell judges a cell's mean reliability over its take-off
// replications against Eq. 11 (uniform-selection cells only; the overlay
// cells have no closed form).
func checkSweepCell(c sweepCell, takeoffMean float64, takeoffs int, slack float64) verdict {
	if c.kout {
		return verdict{}
	}
	want, err := genfunc.PoissonReliability(c.f, c.q)
	if err != nil {
		return failf("sweep f=%g q=%g: %v", c.f, c.q, err)
	}
	if takeoffs == 0 {
		return failf("sweep f=%g q=%g: no replication took off", c.f, c.q)
	}
	if gap := math.Abs(takeoffMean - want); gap > sweepTolerance*slack || math.IsNaN(gap) {
		return failf("sweep f=%g q=%g: take-off mean %.4f vs Eq. 11 %.4f (gap %.4f > %.2f)", c.f, c.q, takeoffMean, want, gap, sweepTolerance*slack)
	}
	return verdict{}
}

func runSweep(e *env, warm int) error {
	cells := sweepCells()
	return e.iterate(warm, func(it int) error {
		for ci, c := range cells {
			var sum float64
			var takeoffs int
			check := func(r gossipkit.Report) verdict {
				if isDieout(r) {
					return verdict{dieout: true}
				}
				sum += r.Reliability
				takeoffs++
				return checkNetRun(r)
			}
			opts := []gossipkit.Option{
				gossipkit.WithSeed(e.cellSeed(it, ci)), gossipkit.WithWorkers(e.workers),
				gossipkit.WithoutReports(), e.observed(check),
			}
			if c.kout {
				opts = append(opts, gossipkit.WithTopology(gossipkit.KOutTopology(sweepKOut)))
			}
			p := gossipkit.Params{N: e.sz.n5k, Fanout: gossipkit.Poisson(c.f), AliveRatio: c.q}
			if _, err := e.run(gossipkit.Network{Params: p, Net: c.net}, e.sz.sweepReps, opts...); err != nil {
				return err
			}
			e.col.apply(checkSweepCell(c, sum/float64(takeoffs), takeoffs, e.sz.slack))
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// rumor_1m, rumor_1m_sharded

const (
	rumorFanout    = 5.0
	rumorQ         = 0.9
	rumorTolerance = 0.01 // reliability vs Eq. 11 (≈ 0.988)
	spareRuns      = 3    // extra split indices available to replace die-outs
)

func rumorSpec(n int) gossipkit.Network {
	return gossipkit.Network{
		Params: gossipkit.Params{N: n, Fanout: gossipkit.Poisson(rumorFanout), AliveRatio: rumorQ},
		Net:    uniform10ms,
	}
}

// checkRumor judges one n=10⁶-class execution.
func checkRumor(r gossipkit.Report, n int, slack float64) verdict {
	if isDieout(r) {
		return verdict{dieout: true}
	}
	if v := checkNetRun(r); len(v.failures) > 0 {
		return v
	}
	if want := int(float64(n) * rumorQ); r.AliveCount != want {
		return failf("rumor run %d: %d alive, want the exact mask's %d", r.Run, r.AliveCount, want)
	}
	want, err := genfunc.PoissonReliability(rumorFanout, rumorQ)
	if err != nil {
		return failf("rumor: %v", err)
	}
	if gap := math.Abs(r.Reliability - want); gap > rumorTolerance*slack || math.IsNaN(gap) {
		return failf("rumor run %d: reliability %.4f vs Eq. 11 %.4f (gap %.4f > %.2f)", r.Run, r.Reliability, want, gap, rumorTolerance*slack)
	}
	return verdict{}
}

// runSingle drives a workload whose iteration is one replication: one
// RunMany on one worker, so the per-worker arena stays warm exactly as in a
// user's sweep, with iteration boundaries taken from observer timestamps.
// Die-outs are counted, excluded from timing and replaced by the next split
// index; once enough iterations are in, the observer cancels the rest.
func runSingle(e *env, warm int, spec gossipkit.Engine, check func(gossipkit.Report) verdict, opts ...gossipkit.Option) error {
	need := 1 + warm
	ctx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	// One facade call spans every iteration, so here the span tree reads
	// workload → facade.Run → iteration.
	callSpan := e.rec.begin("facade.Run")
	iterSpan := e.rec.begin("iteration")
	observer := gossipkit.WithObserver(func(r gossipkit.Report) {
		e.col.observe(r)
		v := check(r)
		e.col.apply(v)
		if v.dieout {
			e.col.skip()
			return
		}
		e.col.relSum += r.Reliability
		e.col.relN++
		e.col.aliveCount = r.AliveCount
		e.col.mark()
		done := len(e.col.iters)
		e.rec.end(iterSpan, map[string]int64{"index": int64(done - 1), "msgs": int64(r.MessagesSent)})
		iterSpan = -1
		if done == need {
			cancel()
			return
		}
		e.rec.record(done%2 == 1)
		iterSpan = e.rec.begin("iteration")
	})
	opts = append(opts, gossipkit.WithSeed(e.seed), gossipkit.WithWorkers(1), observer)
	_, err := gossipkit.RunMany(ctx, spec, need+spareRuns, opts...)
	e.rec.end(iterSpan, nil) // still open only when the spare runs ran out
	e.rec.record(true)
	e.rec.end(callSpan, map[string]int64{"runs_requested": int64(need + spareRuns), "runs": int64(e.col.ops)})
	if len(e.col.iters) < need {
		if err == nil {
			err = fmt.Errorf("only %d of %d iterations took off within %d spare runs", len(e.col.iters), need, spareRuns)
		}
		return err
	}
	if err != nil && !errors.Is(err, gossipkit.ErrCanceled) {
		return err
	}
	return nil
}

func runRumor(e *env, warm int) error {
	return runSingle(e, warm, rumorSpec(e.sz.n1m), func(r gossipkit.Report) verdict { return checkRumor(r, e.sz.n1m, e.sz.slack) })
}

func runRumorSharded(e *env, warm int) error {
	return runSingle(e, warm, rumorSpec(e.sz.n1m), func(r gossipkit.Report) verdict { return checkRumor(r, e.sz.n1m, e.sz.slack) },
		gossipkit.WithShards(e.shards))
}

// ---------------------------------------------------------------------------
// stream_perid, stream_batch

func streamSpec(sz sizes, batch bool) gossipkit.Stream {
	return gossipkit.Stream{
		Config: gossipkit.StreamConfig{
			N:             sz.n5k,
			Rate:          125_000,
			Duration:      200 * time.Millisecond,
			MaxMessages:   sz.streamMsgs,
			Fanout:        gossipkit.FixedFanout(3),
			BufferCap:     16,
			ActiveRounds:  8,
			RoundInterval: 10 * time.Millisecond,
			Discipline:    gossipkit.StreamPushPull,
			Batch:         batch,
		},
		Net: gossipkit.NetConfig{
			Latency: gossipkit.UniformLatency(time.Millisecond, 5*time.Millisecond),
			Loss:    gossipkit.BernoulliLoss(0.05),
		},
	}
}

// checkStream judges one streaming run by its conservation identities.
func checkStream(r gossipkit.Report) verdict {
	res, ok := r.Detail.(gossipkit.StreamResult)
	if !ok {
		return failf("stream report carries %T, want StreamResult", r.Detail)
	}
	if msg := streamLedgerOpen(res); msg != "" {
		return failf("stream run %d: %s", r.Run, msg)
	}
	return verdict{}
}

// streamLedgerOpen names the first conservation identity res violates, or
// returns "" when the ledger closes.
func streamLedgerOpen(res gossipkit.StreamResult) string {
	l := res.Ledger
	switch {
	case l.Inserted != l.Evicted+l.Expired+l.Resident:
		return fmt.Sprintf("copy ledger open: inserted %d != evicted %d + expired %d + resident %d", l.Inserted, l.Evicted, l.Expired, l.Resident)
	case l.Sends != res.Net.SentEntries()+res.Net.DownEntries():
		return fmt.Sprintf("send ledger open: sends %d != sent entries %d + down entries %d", l.Sends, res.Net.SentEntries(), res.Net.DownEntries())
	case l.Receipts != res.Net.DeliveredEntries():
		return fmt.Sprintf("receipt ledger open: receipts %d != delivered entries %d", l.Receipts, res.Net.DeliveredEntries())
	case res.Published+res.Skipped != res.Scheduled:
		return fmt.Sprintf("schedule open: published %d + skipped %d != scheduled %d", res.Published, res.Skipped, res.Scheduled)
	case res.FullyDelivered+res.LostEviction+res.LostDrop+res.Died != res.Published:
		return fmt.Sprintf("outcomes do not partition published: %d+%d+%d+%d != %d", res.FullyDelivered, res.LostEviction, res.LostDrop, res.Died, res.Published)
	case res.Net.InFlight() != 0:
		return fmt.Sprintf("%d messages in flight at the end", res.Net.InFlight())
	}
	return ""
}

func runStreamPerID(e *env, warm int) error {
	return runSingle(e, warm, streamSpec(e.sz, false), checkStream)
}

func runStreamBatch(e *env, warm int) error {
	return runSingle(e, warm, streamSpec(e.sz, true), checkStream)
}

// ---------------------------------------------------------------------------
// compare_grid

var compareCampaigns = []string{"crash-wave", "burst-loss", "partition-heal"}

const (
	compareBurstLossFloor = 0.95 // baseline rows' mean reliability under burst-loss
	compareCalls          = 4    // grid passes per iteration, each on its own seeds
)

func compareSpec(sz sizes) gossipkit.Compare {
	n := sz.nCompare
	spec := gossipkit.Compare{
		Paper: true,
		Protocols: []gossipkit.ProtocolSpec{
			gossipkit.PbcastParams{N: n, Fanout: 4, Rounds: 10, AliveRatio: 1},
			gossipkit.LpbcastParams{N: n, Fanout: 4, Rounds: 10, BufferSize: 8, Events: 3, AliveRatio: 1, ViewCopies: 2},
			gossipkit.AntiEntropyParams{N: n, Rounds: 10, Mode: gossipkit.PushPull, AliveRatio: 1},
			gossipkit.RDGParams{N: n, Fanout: 4, PushRounds: 10, RecoveryRounds: 5, AliveRatio: 1, ViewCopies: 2, PayloadProb: 0.8},
			gossipkit.LRGParams{N: n, Degree: 6, GossipProb: 0.8, RepairRounds: 5, AliveRatio: 1},
		},
		Config: gossipkit.ScenarioRunConfig{
			Params:            gossipkit.Params{N: n, Fanout: gossipkit.Poisson(5), AliveRatio: 1},
			PartialViewCopies: 2,
		},
	}
	for _, name := range compareCampaigns {
		sc, ok := gossipkit.ScenarioByName(name)
		if !ok {
			panic("bundled scenario missing: " + name)
		}
		spec.Scenarios = append(spec.Scenarios, sc)
	}
	return spec
}

// checkCompareRun judges one grid cell replication.
func checkCompareRun(r gossipkit.Report) verdict {
	rep, ok := r.Detail.(gossipkit.ScenarioReport)
	if !ok {
		return failf("compare report carries %T, want ScenarioReport", r.Detail)
	}
	if s := rep.SurvivorReliability; !(s >= 0 && s <= 1) {
		return failf("compare %s/%s: survivor reliability %g outside [0,1]", rep.Protocol, rep.Scenario, s)
	}
	return verdict{}
}

// checkCompareGrid judges one grid pass: every cell produced.
func checkCompareGrid(grid *gossipkit.ScenarioCompareResult, runs, wantRuns int) verdict {
	if grid == nil {
		return failf("compare grid has no aggregate")
	}
	if runs != wantRuns || len(grid.Cells)*grid.Seeds != wantRuns {
		return failf("compare grid produced %d runs in %d cells, want %d runs", runs, len(grid.Cells), wantRuns)
	}
	return verdict{}
}

// rowMean accumulates one protocol row's reliability under one campaign.
type rowMean struct {
	sum float64
	n   int
}

// checkBurstLoss judges the baseline rows over every replication of the
// run: each must ride out the loss burst with mean reliability at or above
// the floor. It pools the whole run because a baseline's rare bad execution
// (LRG: 3 in 400 deliver under 90 %) would sink the mean of a single
// three-seed pass.
func checkBurstLoss(rows map[string]rowMean) verdict {
	var v verdict
	for protocol, r := range rows {
		if mean := r.sum / float64(r.n); !(mean >= compareBurstLossFloor) {
			v.failures = append(v.failures, fmt.Sprintf("compare %s/burst-loss: mean reliability %.4f over %d runs < %.2f", protocol, mean, r.n, compareBurstLossFloor))
		}
	}
	return v
}

func runCompare(e *env, warm int) error {
	spec := compareSpec(e.sz)
	cells := (1 + len(spec.Protocols)) * len(spec.Scenarios) * e.sz.compareSeeds
	burst := map[string]rowMean{}
	check := func(r gossipkit.Report) verdict {
		if rep, ok := r.Detail.(gossipkit.ScenarioReport); ok && rep.Scenario == "burst-loss" && rep.Protocol != "paper" {
			row := burst[rep.Protocol]
			burst[rep.Protocol] = rowMean{row.sum + rep.Reliability, row.n + 1}
		}
		return checkCompareRun(r)
	}
	err := e.iterate(warm, func(it int) error {
		for call := 0; call < compareCalls; call++ {
			out, err := e.run(spec, e.sz.compareSeeds,
				gossipkit.WithSeed(e.cellSeed(it, call)), gossipkit.WithWorkers(e.workers),
				gossipkit.WithoutReports(), e.observed(check))
			if err != nil {
				return err
			}
			grid, _ := out.Aggregate.(*gossipkit.ScenarioCompareResult)
			e.col.apply(checkCompareGrid(grid, out.Runs, cells))
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.col.apply(checkBurstLoss(burst))
	return nil
}
