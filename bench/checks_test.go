package main

import (
	"strings"
	"testing"

	"gossipkit"
	"gossipkit/internal/scenario"
	"gossipkit/internal/simnet"
)

// goodRumor is a healthy n=10⁶-class report: exact mask, drained fabric,
// reliability on Eq. 11 (≈ 0.988 at Poisson(5), q=0.9).
func goodRumor(n int) gossipkit.Report {
	alive := int(float64(n) * rumorQ)
	delivered := int(0.9883 * float64(alive))
	return gossipkit.Report{
		Reliability: float64(delivered) / float64(alive), Delivered: delivered, AliveCount: alive, MessagesSent: 5 * delivered,
		Detail: gossipkit.NetResult{Net: simnet.Stats{Sent: 1000, Delivered: 900, DroppedCrash: 100}},
	}
}

// collect applies verdicts the way a workload's observer does.
func collect(vs ...verdict) *collector {
	c := newCollector()
	for _, v := range vs {
		c.apply(v)
	}
	return c
}

// TestRumorChecker: an undrained fabric and a reliability off the model are
// failed ops; a die-out is counted in bench.dieouts and is not a failure.
func TestRumorChecker(t *testing.T) {
	const n = 100_000
	if c := collect(checkRumor(goodRumor(n), n, 1)); c.failedOps != 0 || c.dieouts != 0 {
		t.Fatalf("healthy run judged %+v %v", c, c.failures)
	}

	inflight := goodRumor(n)
	inflight.Detail = gossipkit.NetResult{Net: simnet.Stats{Sent: 1000, Delivered: 900}} // 100 unaccounted
	offModel := goodRumor(n)
	offModel.Reliability, offModel.Delivered = 0.95, int(0.95*float64(offModel.AliveCount))
	wrongMask := goodRumor(n)
	wrongMask.AliveCount--
	for name, r := range map[string]gossipkit.Report{"in flight": inflight, "off model": offModel, "wrong mask": wrongMask} {
		if c := collect(checkRumor(r, n, 1)); c.failedOps != 1 || c.dieouts != 0 {
			t.Errorf("%s: failed_ops %d dieouts %d, want 1 and 0", name, c.failedOps, c.dieouts)
		}
	}

	died := goodRumor(n)
	died.Delivered, died.Reliability = 3, 3/float64(died.AliveCount)
	if c := collect(checkRumor(died, n, 1)); c.failedOps != 0 || c.dieouts != 1 {
		t.Errorf("die-out: failed_ops %d dieouts %d, want 0 and 1", c.failedOps, c.dieouts)
	}
}

// TestSweepCheckers: per-replication drain check, per-cell model check over
// the take-off replications only.
func TestSweepCheckers(t *testing.T) {
	cell := sweepCell{f: 5, q: 0.8} // Eq. 11: ≈ 0.9802
	if v := checkSweepCell(cell, 0.975, 25, 1); len(v.failures) != 0 {
		t.Errorf("cell on the model failed: %v", v.failures)
	}
	if c := collect(checkSweepCell(cell, 0.93, 25, 1)); c.failedOps != 1 {
		t.Errorf("cell 0.05 off the model: failed_ops %d, want 1", c.failedOps)
	}
	if c := collect(checkSweepCell(cell, 0, 0, 1)); c.failedOps != 1 {
		t.Errorf("cell with no take-off: failed_ops %d, want 1", c.failedOps)
	}
	if v := checkSweepCell(sweepCell{f: 5, q: 0.8, kout: true}, 0.5, 25, 1); len(v.failures) != 0 {
		t.Errorf("overlay cell judged against Eq. 11: %v", v.failures)
	}
	undrained := gossipkit.Report{Detail: gossipkit.NetResult{Net: simnet.Stats{Sent: 10, Delivered: 9}}}
	if c := collect(checkNetRun(undrained)); c.failedOps != 1 {
		t.Errorf("undrained replication: failed_ops %d, want 1", c.failedOps)
	}
	if !isDieout(gossipkit.Report{Delivered: 4, AliveCount: 4000}) || isDieout(gossipkit.Report{Delivered: 3900, AliveCount: 4000}) {
		t.Error("isDieout misjudges the 1 % threshold")
	}
}

func TestFig5Checker(t *testing.T) {
	if v := checkFig5Point(4.3, 0.8, 0.96, 0.9604, 1); len(v.failures) != 0 {
		t.Errorf("point on the curve failed: %v", v.failures)
	}
	if c := collect(checkFig5Point(4.3, 0.8, 0.80, 0.9604, 1)); c.failedOps != 1 {
		t.Errorf("point 0.16 off the curve: failed_ops %d, want 1", c.failedOps)
	}
	// Next to the critical fanout 1/q the band is the wider 0.22.
	if v := checkFig5Point(2.3, 0.4, 0.18, 0.0, 1); len(v.failures) != 0 {
		t.Errorf("near-critical point inside 0.22 failed: %v", v.failures)
	}
	if c := collect(checkFig5Point(2.3, 0.4, 0.30, 0.0, 1)); c.failedOps != 1 {
		t.Errorf("near-critical point 0.30 off: failed_ops %d, want 1", c.failedOps)
	}
}

// closedStream is a streaming result whose every identity holds.
func closedStream() gossipkit.StreamResult {
	res := gossipkit.StreamResult{
		Scheduled: 100, Published: 98, Skipped: 2,
		FullyDelivered: 10, LostEviction: 80, LostDrop: 5, Died: 3,
		Net: simnet.Stats{Sent: 1000, Delivered: 950, DroppedLoss: 50, DroppedDown: 7},
	}
	res.Ledger.Inserted, res.Ledger.Evicted, res.Ledger.Expired, res.Ledger.Resident = 500, 300, 200, 0
	res.Ledger.Sends, res.Ledger.Receipts = 1007, 950
	return res
}

// TestStreamChecker: every way the ledger can be left open is a failed op.
func TestStreamChecker(t *testing.T) {
	if v := checkStream(gossipkit.Report{Detail: closedStream()}); len(v.failures) != 0 {
		t.Fatalf("closed ledger failed: %v", v.failures)
	}
	open := map[string]func(*gossipkit.StreamResult){
		"copy ledger":    func(r *gossipkit.StreamResult) { r.Ledger.Evicted-- },
		"send ledger":    func(r *gossipkit.StreamResult) { r.Ledger.Sends++ },
		"receipt ledger": func(r *gossipkit.StreamResult) { r.Ledger.Receipts-- },
		"schedule":       func(r *gossipkit.StreamResult) { r.Skipped++ },
		"outcomes":       func(r *gossipkit.StreamResult) { r.Died++ },
		"in flight":      func(r *gossipkit.StreamResult) { r.Net.DroppedLoss-- },
	}
	for name, mutate := range open {
		res := closedStream()
		mutate(&res)
		if c := collect(checkStream(gossipkit.Report{Detail: res})); c.failedOps != 1 {
			t.Errorf("%s left open: failed_ops %d, want 1", name, c.failedOps)
		}
	}
	if c := collect(checkStream(gossipkit.Report{Detail: "not a stream result"})); c.failedOps != 1 {
		t.Errorf("foreign detail: failed_ops %d, want 1", c.failedOps)
	}
}

func TestCompareCheckers(t *testing.T) {
	ok := gossipkit.Report{Detail: gossipkit.ScenarioReport{Protocol: "pbcast", Scenario: "burst-loss", SurvivorReliability: 1}}
	if v := checkCompareRun(ok); len(v.failures) != 0 {
		t.Errorf("healthy cell failed: %v", v.failures)
	}
	bad := gossipkit.Report{Detail: gossipkit.ScenarioReport{SurvivorReliability: 1.2}}
	if c := collect(checkCompareRun(bad)); c.failedOps != 1 {
		t.Errorf("survivor reliability 1.2: failed_ops %d, want 1", c.failedOps)
	}

	grid := &gossipkit.ScenarioCompareResult{Seeds: 3, Cells: make([]scenario.CompareCell, 6)}
	if v := checkCompareGrid(grid, 18, 18); len(v.failures) != 0 {
		t.Errorf("healthy grid failed: %v", v.failures)
	}
	if c := collect(checkCompareGrid(grid, 17, 18)); c.failedOps != 1 || !strings.Contains(c.failures[0], "17 runs") {
		t.Errorf("missing run: %+v", c.failures)
	}
	grid.Cells = grid.Cells[:5]
	if c := collect(checkCompareGrid(grid, 18, 18)); c.failedOps != 1 {
		t.Errorf("missing cell: failed_ops %d, want 1", c.failedOps)
	}
	if c := collect(checkCompareGrid(nil, 18, 18)); c.failedOps != 1 {
		t.Errorf("nil grid: failed_ops %d, want 1", c.failedOps)
	}

	rows := map[string]rowMean{"pbcast": {72, 72}, "lrg": {70.9, 72}}
	if v := checkBurstLoss(rows); len(v.failures) != 0 {
		t.Errorf("rows above the floor failed: %v", v.failures)
	}
	rows["lrg"] = rowMean{(compareBurstLossFloor - 0.02) * 72, 72}
	if c := collect(checkBurstLoss(rows)); c.failedOps != 1 || !strings.Contains(c.failures[0], "lrg/burst-loss") {
		t.Errorf("baseline under the burst-loss floor: %+v", c.failures)
	}
}

// TestCollectorCountsOneFailedOpPerVerdict: several findings about one op
// are one failed op; die-outs never are.
func TestCollectorCountsOneFailedOpPerVerdict(t *testing.T) {
	c := collect(verdict{failures: []string{"a", "b"}}, verdict{dieout: true}, verdict{}, failf("c"))
	if c.failedOps != 2 || c.dieouts != 1 || len(c.failures) != 3 {
		t.Errorf("failed_ops %d dieouts %d failures %v", c.failedOps, c.dieouts, c.failures)
	}
}
