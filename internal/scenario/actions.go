package scenario

import (
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/membership"
	"gossipkit/internal/simnet"
	"gossipkit/internal/topology"
	"gossipkit/internal/xrand"
)

// ---------------------------------------------------------------------------
// Action constructors (the builder vocabulary)

// CrashFraction fail-stops frac of the currently-up members.
func CrashFraction(frac float64) Action { return Action{Op: OpCrash, Frac: frac} }

// CrashZone fail-stops the contiguous id range [loFrac·n, hiFrac·n).
func CrashZone(loFrac, hiFrac float64) Action {
	return Action{Op: OpCrashZone, LoFrac: loFrac, HiFrac: hiFrac}
}

// RestartFraction restarts frac of the currently-down members.
func RestartFraction(frac float64) Action { return Action{Op: OpRestart, Frac: frac} }

// Partition isolates the id range [loFrac·n, hiFrac·n) from the rest.
func Partition(loFrac, hiFrac float64) Action {
	return Action{Op: OpPartition, LoFrac: loFrac, HiFrac: hiFrac}
}

// Heal clears any partition.
func Heal() Action { return Action{Op: OpHeal} }

// Loss installs Bernoulli message loss with probability p.
func Loss(p float64) Action { return Action{Op: OpLoss, P: p} }

// BurstLoss installs Gilbert–Elliott bursty loss.
func BurstLoss(pG2B, pB2G, pGood, pBad float64) Action {
	return Action{Op: OpBurstLoss, PG2B: pG2B, PB2G: pB2G, PGood: pGood, PBad: pBad}
}

// ClearLoss removes any loss model.
func ClearLoss() Action { return Action{Op: OpClearLoss} }

// Latency installs a constant per-message latency.
func Latency(d time.Duration) Action { return Action{Op: OpLatency, Latency: Duration(d)} }

// ChurnFraction makes frac of the currently-up members leave (SCAMP
// unsubscription when the view is partial) and fail-stop.
func ChurnFraction(frac float64) Action { return Action{Op: OpChurn, Frac: frac} }

// FlashCrowd seeds the message at count additional up members.
func FlashCrowd(count int) Action { return Action{Op: OpPublish, Count: count} }

// Regossip makes count random infected up members forward m again.
func Regossip(count int) Action { return Action{Op: OpRegossip, Count: count} }

// ---------------------------------------------------------------------------
// Application

// env is the runtime context an action fires against.
type env struct {
	run    *core.NetRun
	rng    *xrand.RNG
	n      int
	source int

	// campaign counters reported by the runner
	crashed     int
	restarted   int
	departed    int
	arcsDonated int
	published   int
}

// apply executes the action against the running execution. The action must
// already be validated.
func (a Action) apply(e *env) {
	switch a.Op {
	case OpCrash:
		for _, id := range e.pickUp(a.Frac, 0) {
			e.retire(id)
			e.run.Net.Crash(simnet.NodeID(id))
			e.crashed++
		}
	case OpCrashZone:
		lo, hi := a.zone(e.n)
		for id := lo; id < hi; id++ {
			if id == e.source || !e.run.Net.Up(simnet.NodeID(id)) {
				continue
			}
			e.retire(id)
			e.run.Net.Crash(simnet.NodeID(id))
			e.crashed++
		}
	case OpRestart:
		// Only scenario-crashed members can come back; members failed by
		// the execution's static mask are fail-stop gone and have no
		// handler to process messages with.
		var down []int
		for id := 0; id < e.n; id++ {
			if !e.run.Net.Up(simnet.NodeID(id)) && e.run.Restartable(id) {
				down = append(down, id)
			}
		}
		for _, i := range e.pickFrom(len(down), countFor(a.Frac, len(down))) {
			if ov, ok := e.run.View.(*topology.Overlay); ok {
				ov.Restore(down[i])
			}
			e.run.Net.Restart(simnet.NodeID(down[i]))
			e.restarted++
		}
	case OpPartition:
		lo, hi := a.zone(e.n)
		e.run.Net.SetPartition(simnet.SplitPartition(func(id simnet.NodeID) bool {
			return int(id) >= lo && int(id) < hi
		}))
	case OpHeal:
		e.run.Net.SetPartition(nil)
	case OpLoss:
		e.run.Net.SetLoss(simnet.BernoulliLoss{P: a.P})
	case OpBurstLoss:
		e.run.Net.SetLoss(simnet.NewGilbertElliott(a.PG2B, a.PB2G, a.PGood, a.PBad))
	case OpClearLoss:
		e.run.Net.SetLoss(nil)
	case OpLatency:
		e.run.Net.SetLatency(simnet.ConstantLatency{D: a.Latency.Std()})
	case OpChurn:
		pv, _ := e.run.View.(*membership.PartialViews)
		for _, id := range e.pickUp(a.Frac, 0) {
			if pv != nil {
				e.arcsDonated += pv.Unsubscribe(id, e.rng)
			}
			e.retire(id)
			e.run.Net.Crash(simnet.NodeID(id))
			e.departed++
		}
	case OpPublish:
		for _, id := range e.pickUp(0, a.Count) {
			e.run.Publish(id)
			e.published++
		}
	case OpRegossip:
		var infected []int
		for id := 0; id < e.n; id++ {
			if e.run.HasReceived(id) && e.run.Net.Up(simnet.NodeID(id)) {
				infected = append(infected, id)
			}
		}
		for _, i := range e.pickFrom(len(infected), min(a.Count, len(infected))) {
			e.run.Publish(infected[i])
		}
	}
}

// retire drops id from the gossip overlay's neighbor sets when the run
// gossips over one (crashed and churned members vanish from neighbor
// sets; OpRestart's Restore is the inverse). Actions run on the control
// kernel at window barriers, where overlay mutation is safe.
func (e *env) retire(id int) {
	if ov, ok := e.run.View.(*topology.Overlay); ok {
		ov.Remove(id)
	}
}

// zone converts the fractional range to concrete id bounds.
func (a Action) zone(n int) (lo, hi int) {
	lo = int(a.LoFrac * float64(n))
	hi = int(a.HiFrac * float64(n))
	if hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// countFor converts a fraction of a population to a count (rounding to
// nearest, at least 1 for a positive fraction of a non-empty population).
func countFor(frac float64, population int) int {
	if population == 0 || frac <= 0 {
		return 0
	}
	c := int(float64(frac*float64(population)) + 0.5)
	if c < 1 {
		c = 1
	}
	if c > population {
		c = population
	}
	return c
}

// pickUp selects members uniformly at random among the currently-up
// members excluding the source: count members when count > 0, otherwise
// frac of them.
func (e *env) pickUp(frac float64, count int) []int {
	var up []int
	for id := 0; id < e.n; id++ {
		if id != e.source && e.run.Net.Up(simnet.NodeID(id)) {
			up = append(up, id)
		}
	}
	if count == 0 {
		count = countFor(frac, len(up))
	}
	if count > len(up) {
		count = len(up)
	}
	picked := make([]int, 0, count)
	for _, i := range e.pickFrom(len(up), count) {
		picked = append(picked, up[i])
	}
	return picked
}

// pickFrom samples k distinct indices from [0, n).
func (e *env) pickFrom(n, k int) []int {
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	return e.rng.SampleInts(make([]int, 0, k), n, k)
}
