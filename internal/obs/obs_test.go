package obs

import (
	"strings"
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// run drives a tiny deterministic 3-node relay (0→1→2, 5ms constant
// latency) under a probe and returns its metrics.
func runRelay(t *testing.T, opts Options) *Metrics {
	t.Helper()
	p := New(opts)
	k := sim.New()
	nw := simnet.New(k, 3, xrand.New(1), simnet.Config{Latency: simnet.ConstantLatency{D: 5 * time.Millisecond}})
	delivered := 1 // node 0 seeds
	p.Attach(nw, 3, &delivered)
	nw.RegisterAll(func(now sim.Time, msg simnet.Message) {
		id := int(msg.To)
		delivered++
		p.ObserveFirstReceipt(id, int(msg.From), now)
		if id == 1 {
			p.ObserveFanout(1)
			nw.Send(1, 2, nil)
		}
	})
	p.ObserveSeed(0)
	p.ObserveFanout(1)
	nw.Send(0, 1, nil)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	p.Finish(k.Now())
	return p.Metrics()
}

func TestProbeCurvesAndHistograms(t *testing.T) {
	m := runRelay(t, Options{CurveTick: time.Millisecond})
	// Deliveries at 5ms and 10ms; samples at 0..10ms pre-event plus one
	// trailing point.
	if len(m.Infected) != 12 {
		t.Fatalf("series length %d, want 12", len(m.Infected))
	}
	// Sample i is the state just before time i·tick: infected stays 1
	// through the 5ms boundary (the 5ms delivery happens after the bin
	// fills), 2 through 10ms, and the trailing sample shows 3.
	for i, want := range []int64{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3} {
		if m.Infected[i] != want {
			t.Errorf("infected[%d] = %d, want %d (%v)", i, m.Infected[i], want, m.Infected)
		}
	}
	for i, want := range []int64{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0} {
		if m.InFlight[i] != want {
			t.Errorf("inflight[%d] = %d, want %d (%v)", i, m.InFlight[i], want, m.InFlight)
		}
	}
	if last := m.Sent[len(m.Sent)-1]; last != 2 {
		t.Errorf("final sent = %d", last)
	}
	if m.End != 10*time.Millisecond {
		t.Errorf("end = %v", m.End)
	}
	if m.Totals.Delivered != 2 {
		t.Errorf("totals %+v", m.Totals)
	}
	// Latency histogram: receipts at 5ms and 10ms with 1ms bins.
	if m.Latency.Counts[5] != 1 || m.Latency.Counts[10] != 1 || m.Latency.Total != 2 {
		t.Errorf("latency hist %v", m.Latency.Counts)
	}
	// Hop histogram: node 1 at hop 1, node 2 at hop 2.
	if m.Hops.Counts[1] != 1 || m.Hops.Counts[2] != 1 || m.Hops.Total != 2 {
		t.Errorf("hops hist %v", m.Hops.Counts)
	}
	if m.Fanout.Counts[1] != 2 || m.Fanout.Total != 2 {
		t.Errorf("fanout hist %v", m.Fanout.Counts)
	}
	if m.Truncated {
		t.Error("truncated")
	}
	if m.Trace != nil {
		t.Error("trace recorded without TraceCapacity")
	}
}

// TestProbeTruncation: the 10 ms relay sampled every microsecond outlives
// maxSamples ticks, so its series stop there.
func TestProbeTruncation(t *testing.T) {
	m := runRelay(t, Options{CurveTick: time.Microsecond})
	if !m.Truncated {
		t.Fatal("not truncated")
	}
	if len(m.Infected) != maxSamples {
		t.Fatalf("series length %d, want %d", len(m.Infected), maxSamples)
	}
	// Totals remain authoritative past the truncation point.
	if m.Totals.Delivered != 2 {
		t.Errorf("totals %+v", m.Totals)
	}
}

func TestProbeRingTrace(t *testing.T) {
	m := runRelay(t, Options{CurveTick: -1, TraceCapacity: 3})
	// 4 events (2 sent + 2 delivered) through a 3-slot ring: oldest
	// dropped.
	if len(m.Trace) != 3 || m.TraceDropped != 1 {
		t.Fatalf("trace %d events, %d dropped", len(m.Trace), m.TraceDropped)
	}
	// With the ring's full tracer, deliveries carry true send times.
	last := m.Trace[len(m.Trace)-1]
	if last.Kind != simnet.EventDelivered || last.At.Sub(last.SentAt) != 5*time.Millisecond {
		t.Errorf("last event %+v", last)
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, m.Trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"ph":"X"`) || !strings.Contains(b.String(), `"dur":5000`) {
		t.Errorf("chrome trace: %s", b.String())
	}
	b.Reset()
	if err := WriteTraceCSV(&b, m.Trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "delivered,1,2,10,5\n") {
		t.Errorf("trace csv: %s", b.String())
	}
}

func TestNilProbeHooksAreNoOps(t *testing.T) {
	var p *Probe
	p.Attach(nil, 0, nil)
	p.ObserveFirstReceipt(0, -1, 0)
	p.ObserveFirstReceiptRound(0, 1, 0)
	p.ObserveSeed(0)
	p.ObserveFanout(3)
	p.Finish(0)
	if p.Metrics() != nil {
		t.Error("nil probe produced metrics")
	}
}

func TestProbeReuseAcrossRuns(t *testing.T) {
	// The same Options through a fresh probe and a reused one must agree.
	a := runRelay(t, Options{})
	p := New(Options{})
	// Dirty the probe with one run, then re-run through runRelay's exact
	// sequence manually.
	for range 2 {
		k := sim.New()
		nw := simnet.New(k, 3, xrand.New(1), simnet.Config{Latency: simnet.ConstantLatency{D: 5 * time.Millisecond}})
		delivered := 1
		p.Attach(nw, 3, &delivered)
		nw.RegisterAll(func(now sim.Time, msg simnet.Message) {
			delivered++
			p.ObserveFirstReceipt(int(msg.To), int(msg.From), now)
			if msg.To == 1 {
				p.ObserveFanout(1)
				nw.Send(1, 2, nil)
			}
		})
		p.ObserveSeed(0)
		p.ObserveFanout(1)
		nw.Send(0, 1, nil)
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		p.Finish(k.Now())
	}
	b := p.Metrics()
	if len(a.Infected) != len(b.Infected) || a.Totals != b.Totals || a.Latency.Total != b.Latency.Total {
		t.Errorf("reused probe diverged: %+v vs %+v", a, b)
	}
	for i := range a.Infected {
		if a.Infected[i] != b.Infected[i] {
			t.Fatalf("infected[%d]: %d vs %d", i, a.Infected[i], b.Infected[i])
		}
	}
}

func TestMergedPadding(t *testing.T) {
	var g Merged
	// Run A: 3 samples ending at 5; run B: 5 samples ending at 9.
	g.Merge(&Metrics{Tick: time.Millisecond, Infected: []int64{1, 3, 5}})
	g.Merge(&Metrics{Tick: time.Millisecond, Infected: []int64{1, 2, 4, 8, 9}})
	if g.Runs != 2 || len(g.Infected.Points) != 5 {
		t.Fatalf("runs %d, points %d", g.Runs, len(g.Infected.Points))
	}
	// Index 3: run A padded with its final 5, run B has 8 → mean 6.5.
	if got := g.Infected.Points[3].Mean(); got != 6.5 {
		t.Errorf("padded mean %g, want 6.5", got)
	}
	if n := g.Infected.Points[4].N(); n != 2 {
		t.Errorf("padded N %d, want 2", n)
	}
	// Merge order A,B must equal a longer-first merge in the mean.
	var h Merged
	h.Merge(&Metrics{Tick: time.Millisecond, Infected: []int64{1, 2, 4, 8, 9}})
	h.Merge(&Metrics{Tick: time.Millisecond, Infected: []int64{1, 3, 5}})
	if h.Infected.Points[3].Mean() != g.Infected.Points[3].Mean() {
		t.Errorf("order-dependent padding: %g vs %g",
			h.Infected.Points[3].Mean(), g.Infected.Points[3].Mean())
	}
}

func TestMergedCurveCSV(t *testing.T) {
	var g Merged
	g.Merge(&Metrics{Tick: 2 * time.Millisecond, Infected: []int64{1, 4}, InFlight: []int64{0, 3},
		Sent: []int64{0, 5}, Delivered: []int64{0, 2}, DroppedLoss: []int64{0, 1},
		DroppedCrash: []int64{0, 0}, DroppedDown: []int64{0, 0}, DroppedPart: []int64{0, 0}})
	var b strings.Builder
	if err := g.WriteCurveCSV(&b, "demo", true); err != nil {
		t.Fatal(err)
	}
	want := CurveCSVHeader +
		"demo,0,1,1,0,0,0,0,0,0,0,0\n" +
		"demo,2,1,4,0,3,5,2,1,0,0,0\n"
	if b.String() != want {
		t.Errorf("csv:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestMergedHistSum(t *testing.T) {
	var g Merged
	g.Merge(&Metrics{Latency: HistSnapshot{BinWidth: time.Millisecond, Counts: []int64{1, 2}, Total: 3}})
	g.Merge(&Metrics{Latency: HistSnapshot{BinWidth: time.Millisecond, Counts: []int64{0, 1, 4}, Total: 5}})
	if g.Latency.Total != 8 || g.Latency.Counts[1] != 3 || g.Latency.Counts[2] != 4 {
		t.Errorf("merged hist %+v", g.Latency)
	}
	if g.Latency.BinWidth != time.Millisecond {
		t.Errorf("bin width %v", g.Latency.BinWidth)
	}
}

func TestStartPprof(t *testing.T) {
	addr, err := StartPprof("localhost:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	if addr == "" {
		t.Fatal("empty address")
	}
}
