package obs

import (
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

func TestMergeShardMetricsSeriesAndTotals(t *testing.T) {
	a := &Metrics{
		Tick:      time.Millisecond,
		End:       3 * time.Millisecond,
		Infected:  []int64{1, 2, 4},
		InFlight:  []int64{2, 1, 0},
		Sent:      []int64{3, 5, 6},
		Delivered: []int64{1, 2, 4},
		Totals:    simnet.Stats{Sent: 6, Delivered: 4},
		Latency:   HistSnapshot{BinWidth: time.Millisecond, Counts: []int64{2, 1}, Total: 3},
	}
	// b drained one tick earlier: padding must hold its final values.
	b := &Metrics{
		Tick:      time.Millisecond,
		End:       2 * time.Millisecond,
		Infected:  []int64{0, 3},
		InFlight:  []int64{1, 0},
		Sent:      []int64{2, 4},
		Delivered: []int64{0, 3},
		Totals:    simnet.Stats{Sent: 4, Delivered: 3, DroppedLoss: 1},
		Latency:   HistSnapshot{BinWidth: time.Millisecond, Counts: []int64{1, 1}, Total: 2},
	}
	m := MergeShardMetrics([]*Metrics{a, b})
	if m.Tick != time.Millisecond || m.End != 3*time.Millisecond {
		t.Fatalf("tick/end %v/%v", m.Tick, m.End)
	}
	if want := []int64{1, 5, 7}; !reflect.DeepEqual(m.Infected, want) {
		t.Errorf("Infected = %v, want %v", m.Infected, want)
	}
	if want := []int64{3, 1, 0}; !reflect.DeepEqual(m.InFlight, want) {
		t.Errorf("InFlight = %v, want %v", m.InFlight, want)
	}
	if want := []int64{5, 9, 10}; !reflect.DeepEqual(m.Sent, want) {
		t.Errorf("Sent = %v, want %v", m.Sent, want)
	}
	if m.Totals.Sent != 10 || m.Totals.Delivered != 7 || m.Totals.DroppedLoss != 1 {
		t.Errorf("Totals = %+v", m.Totals)
	}
	if want := []int64{3, 2}; !reflect.DeepEqual(m.Latency.Counts, want) || m.Latency.Total != 5 {
		t.Errorf("Latency = %+v", m.Latency)
	}
	if m.Hops.Counts != nil {
		t.Errorf("merged hops from disabled collectors should stay nil: %+v", m.Hops)
	}
	if MergeShardMetrics(nil) != nil {
		t.Error("merging no parts should yield nil")
	}
}

func TestMergeShardMetricsTraces(t *testing.T) {
	a := &Metrics{Trace: []simnet.Event{{At: 3}, {At: 9}}}
	b := &Metrics{Trace: []simnet.Event{{At: 1}, {At: 5}}, TraceDropped: 2}
	m := MergeShardMetrics([]*Metrics{a, b})
	var got []sim.Time
	for _, e := range m.Trace {
		got = append(got, e.At)
	}
	if want := []sim.Time{1, 3, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("merged trace times %v, want %v", got, want)
	}
	if m.TraceDropped != 2 {
		t.Errorf("TraceDropped = %d, want 2", m.TraceDropped)
	}
}

// TestShardProbesAdoption drives two child probes over independent
// relays, adopts, and checks the parent serves the merged view until the
// next Attach.
func TestShardProbesAdoption(t *testing.T) {
	parent := New(Options{CurveTick: time.Millisecond})
	children := parent.ShardProbes(2)
	if len(children) != 2 {
		t.Fatalf("ShardProbes returned %d children", len(children))
	}
	if again := parent.ShardProbes(2); &again[0] == nil || again[0] != children[0] {
		t.Fatal("children not pooled across ShardProbes calls")
	}

	// Each child observes a 2-node relay on its own kernel.
	delivered := [2]int{}
	for s, c := range children {
		k := sim.New()
		nw := simnet.New(k, 2, xrand.New(uint64(s+1)), simnet.Config{Latency: simnet.ConstantLatency{D: 2 * time.Millisecond}})
		delivered[s] = 1
		c.Attach(nw, 2, &delivered[s])
		nw.RegisterAll(func(now sim.Time, msg simnet.Message) {
			delivered[s]++
			c.ObserveFirstReceipt(int(msg.To), int(msg.From), now)
		})
		c.ObserveSeed(0)
		nw.Send(0, 1, nil)
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		c.Finish(k.Now())
	}
	parent.AdoptShards()
	m := parent.Metrics()
	if m == nil || m.Totals.Delivered != 2 {
		t.Fatalf("adopted metrics %+v, want 2 total deliveries", m)
	}
	if got := m.Infected[len(m.Infected)-1]; got != 4 {
		t.Errorf("final merged infected %d, want 4 (2 seeds + 2 deliveries)", got)
	}
	if m.Hops.Counts != nil {
		t.Error("child probes of a >1 fan-out should have hops disabled")
	}
	if parent.Metrics() != m {
		t.Error("Metrics should keep returning the adopted snapshot")
	}
	// Each shard kernel's queue record rides along, in shard order: the
	// bounded 2 ms latency put both on the calendar at its smallest
	// geometry, holding one message at a time.
	qs := parent.Queues()
	if len(qs) != 2 {
		t.Fatalf("%d queue records, want one per shard", len(qs))
	}
	for s, q := range qs {
		if q.Kind != "calendar" || q.NearBuckets != 256 || q.FarSlots != 2 || q.PeakPending != 1 ||
			q.RetainedBytes == 0 || q.Grows+q.Rebases+q.OverflowAdmits != 0 {
			t.Errorf("shard %d queue stats %+v", s, q)
		}
	}

	// Re-attaching the parent clears the adoption.
	k := sim.New()
	nw := simnet.New(k, 2, xrand.New(9), simnet.Config{})
	d := 0
	parent.Attach(nw, 2, &d)
	parent.Finish(0)
	if got := parent.Metrics(); got == m || got.Totals.Delivered != 0 {
		t.Errorf("Attach did not clear the adopted snapshot: %+v", got)
	}
	if qs := parent.ShardProbes(1)[0].Queues(); len(qs) != 1 || qs[0].Kind != "heap" {
		t.Errorf("one-shard queue records %+v, want the heap's (no latency bound)", qs)
	}
}

func TestShardProbesSingleKeepsHops(t *testing.T) {
	parent := New(Options{})
	c := parent.ShardProbes(1)[0]
	if c.hops == nil {
		t.Error("a single child probe should keep the hop histogram")
	}
	nilProbe := (*Probe)(nil)
	if nilProbe.ShardProbes(3) != nil {
		t.Error("nil probe ShardProbes should be nil")
	}
	nilProbe.AdoptShards() // must not panic
	if nilProbe.Queues() != nil {
		t.Error("nil probe Queues should be nil")
	}
}
