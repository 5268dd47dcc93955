package simnet

import (
	"math"
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

func newNet(t *testing.T, n int, cfg Config) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.New()
	return k, New(k, n, xrand.New(1), cfg)
}

func TestDeliveryZeroLatency(t *testing.T) {
	k, nw := newNet(t, 2, Config{})
	var got []Message
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m) })
	nw.Send(0, 1, "hello")
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Payload != "hello" || got[0].From != 0 {
		t.Fatalf("delivered %v", got)
	}
	st := nw.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestZeroLatencyStaysOnHeap guards the queue choice at its edge: a network
// whose delays have no band to size calendar buckets by — no latency, zero
// latency, or a model of unknown shape — keeps its kernel on the heap, while
// a bounded positive latency selects the calendar.
func TestZeroLatencyStaysOnHeap(t *testing.T) {
	for _, cfg := range []Config{{}, {Latency: ConstantLatency{D: 0}}, {Latency: jitter{}}} {
		if k, _ := newNet(t, 1000, cfg); k.QueueKind() != "heap" {
			t.Errorf("latency %#v: queue %q, want heap", cfg.Latency, k.QueueKind())
		}
	}
	if k, _ := newNet(t, 1000, Config{Latency: ConstantLatency{D: time.Millisecond}}); k.QueueKind() != "calendar" {
		t.Errorf("1 ms latency: queue %q, want calendar", k.QueueKind())
	}
}

// jitter is a latency model simnet knows nothing about: no bound, no floor.
type jitter struct{}

func (jitter) Latency(r *xrand.RNG, _, _ NodeID) time.Duration {
	return time.Duration(r.Uint64n(uint64(time.Millisecond)))
}

// TestExponentialLatencyOnCalendar: ExponentialLatency has no bound, yet its
// networks run on the calendar, sized for the band Floor + 7·Mean, and the
// tail past the band waits in the overflow heap without moving a delivery.
// Round pacing, which reads LatencyBounder, does not move.
func TestExponentialLatencyOnCalendar(t *testing.T) {
	type delivery struct {
		from, to NodeID
		at       sim.Time
	}
	// gossip seeds one message per member and relays three per delivery
	// until 20 per member have been sent, on the queue the network hinted for
	// pending messages (Reset's n when 0) or forced onto the heap.
	gossip := func(n, pending int, lat LatencyModel, heap bool) ([]delivery, sim.QueueStats) {
		k := sim.New()
		nw := New(k, n, xrand.New(7), Config{Latency: lat})
		if pending > 0 {
			nw.HintPending(pending)
		}
		if heap {
			k.SetBoundedDelayHint(0, 0)
		}
		r, sends := xrand.New(11), 20*n
		var trace []delivery
		nw.RegisterAll(func(now sim.Time, m Message) {
			trace = append(trace, delivery{m.From, m.To, now})
			for i := 0; i < 3 && sends > 0; i++ {
				sends--
				nw.SendTag(m.To, NodeID(r.Intn(n)), 0)
			}
		})
		for i := 0; i < n; i++ {
			nw.SendTag(NodeID(i), NodeID((i+1)%n), 0)
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		return trace, k.QueueStats()
	}

	var m LatencyModel = ExponentialLatency{Floor: time.Millisecond, Mean: 3 * time.Millisecond}
	if _, ok := m.(LatencyBounder); ok {
		t.Error("ExponentialLatency implements LatencyBounder")
	}
	if d := (Config{Latency: m}).RoundInterval(0); d != 20*time.Millisecond {
		t.Errorf("round interval %v, want the unbounded models' 20ms", d)
	}
	// The calendar's reach past now is its far ring (1.25 bands, the bucket
	// width rounded up to a power of two) plus up to two near slots, so the
	// tail it hands to the overflow heap is thinnest where the band is wide
	// against a far slot. The last case is that: Floor 0 and a mean whose
	// band needs no rounding, under a stream-sized pending hint whose far
	// ring holds 512 slots — about one draw in 6000 overflows.
	for _, c := range []struct {
		n, pending int
		lat        ExponentialLatency
		overflowed bool
	}{
		{2, 0, ExponentialLatency{Floor: time.Millisecond, Mean: 3 * time.Millisecond}, false},
		{17, 0, ExponentialLatency{Floor: time.Millisecond, Mean: 3 * time.Millisecond}, false},
		{5000, 0, ExponentialLatency{Floor: time.Millisecond, Mean: 3 * time.Millisecond}, false},
		{5000, 1 << 20, ExponentialLatency{Mean: 980 * time.Millisecond}, true},
	} {
		got, q := gossip(c.n, c.pending, c.lat, false)
		want, _ := gossip(c.n, c.pending, c.lat, true)
		if q.Kind != "calendar" {
			t.Errorf("n=%d %+v: queue %q, want calendar", c.n, c.lat, q.Kind)
		}
		if c.overflowed && q.OverflowAdmits == 0 {
			t.Errorf("n=%d %+v: no delivery past the band went through the overflow heap: %+v", c.n, c.lat, q)
		}
		if len(got) != len(want) || len(got) < 20*c.n {
			t.Fatalf("n=%d %+v: %d deliveries on the calendar, %d on the heap", c.n, c.lat, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d %+v: delivery %d is %+v on the calendar, %+v on the heap", c.n, c.lat, i, got[i], want[i])
			}
		}
	}
}

func TestConstantLatencyTiming(t *testing.T) {
	k, nw := newNet(t, 2, Config{Latency: ConstantLatency{D: 250 * time.Millisecond}})
	var at sim.Time
	nw.RegisterAll(func(now sim.Time, _ Message) { at = now })
	nw.Send(0, 1, nil)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != sim.Time(250*time.Millisecond) {
		t.Errorf("delivered at %v", at)
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	lo, hi := 10*time.Millisecond, 20*time.Millisecond
	m := UniformLatency{Lo: lo, Hi: hi}
	r := xrand.New(3)
	for i := 0; i < 1000; i++ {
		d := m.Latency(r, 0, 1)
		if d < lo || d > hi {
			t.Fatalf("latency %v outside [%v, %v]", d, lo, hi)
		}
	}
	// Degenerate interval.
	if d := (UniformLatency{Lo: lo, Hi: lo}).Latency(r, 0, 1); d != lo {
		t.Errorf("degenerate uniform = %v", d)
	}
}

func TestExponentialLatencyFloor(t *testing.T) {
	m := ExponentialLatency{Floor: 5 * time.Millisecond, Mean: 10 * time.Millisecond}
	r := xrand.New(5)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := m.Latency(r, 0, 1)
		if d < 5*time.Millisecond {
			t.Fatalf("latency %v below floor", d)
		}
		sum += d
	}
	mean := sum / n
	want := 15 * time.Millisecond
	if mean < want-time.Millisecond || mean > want+time.Millisecond {
		t.Errorf("mean latency %v, want ~%v", mean, want)
	}
}

func TestBernoulliLoss(t *testing.T) {
	k, nw := newNet(t, 2, Config{Loss: BernoulliLoss{P: 0.5}})
	delivered := 0
	nw.RegisterAll(func(sim.Time, Message) { delivered++ })
	const n = 10000
	for i := 0; i < n; i++ {
		nw.Send(0, 1, i)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.DroppedLoss+int64(delivered) != n {
		t.Errorf("loss %d + delivered %d != %d", st.DroppedLoss, delivered, n)
	}
	if delivered < 4600 || delivered > 5400 {
		t.Errorf("delivered %d of %d at p=0.5", delivered, n)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// Long Good runs with rare loss, Bad state drops most messages.
	g := NewGilbertElliott(0.01, 0.2, 0.001, 0.9)
	r := xrand.New(11)
	drops := 0
	const n = 100000
	runLen, maxRun := 0, 0
	for i := 0; i < n; i++ {
		if g.Drop(r, 0, 1) {
			drops++
			runLen++
			if runLen > maxRun {
				maxRun = runLen
			}
		} else {
			runLen = 0
		}
	}
	// Stationary bad fraction = pG2B/(pG2B+pB2G) ≈ 0.0476; loss rate ≈
	// 0.0476*0.9 + 0.952*0.001 ≈ 0.0438.
	rate := float64(drops) / n
	if rate < 0.03 || rate > 0.06 {
		t.Errorf("GE loss rate %.4f, want ~0.044", rate)
	}
	if maxRun < 3 {
		t.Errorf("GE produced no bursts (max run %d)", maxRun)
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	for _, p := range []float64{1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("probability %g: no panic", p)
				}
			}()
			NewGilbertElliott(0, 0, 0, p)
		}()
	}
}

func TestCrashSemantics(t *testing.T) {
	k, nw := newNet(t, 3, Config{Latency: ConstantLatency{D: time.Millisecond}})
	got := 0
	nw.RegisterAll(func(sim.Time, Message) { got++ })

	// Crashed destination: message in flight is dropped at delivery.
	nw.Send(0, 1, "a")
	nw.Crash(1)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Error("message delivered to crashed node")
	}

	// Crashed source: send discarded.
	nw.Crash(0)
	nw.Send(0, 2, "b")
	if st := nw.Stats(); st.Sent != 1 {
		t.Errorf("crashed sender counted as sent: %+v", st)
	}

	// Restart: deliveries resume.
	nw.Restart(1)
	nw.Send(2, 1, "c")
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("delivered %d after restart, want 1", got)
	}
	if !nw.Up(1) || nw.Up(0) {
		t.Error("Up() wrong")
	}
}

func TestUnregisteredHandlerDrops(t *testing.T) {
	k, nw := newNet(t, 2, Config{})
	nw.Send(0, 1, nil)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if st := nw.Stats(); st.Delivered != 0 || st.DroppedCrash != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestPartition(t *testing.T) {
	k, nw := newNet(t, 4, Config{})
	var got []NodeID
	nw.RegisterAll(func(_ sim.Time, m Message) { got = append(got, m.To) })
	// Nodes {0,1} | {2,3}.
	nw.SetPartition(SplitPartition(func(id NodeID) bool { return id < 2 }))
	nw.Send(0, 1, nil) // same side: ok
	nw.Send(0, 2, nil) // cross: blocked
	nw.Send(3, 1, nil) // cross: blocked
	nw.Send(2, 3, nil) // same side: ok
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %v", got)
	}
	if st := nw.Stats(); st.DroppedPart != 2 {
		t.Errorf("partition drops = %d", st.DroppedPart)
	}
	// Healing the partition restores connectivity.
	nw.SetPartition(nil)
	nw.Send(0, 2, nil)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Error("partition not healed")
	}
}

func TestBadIDPanics(t *testing.T) {
	_, nw := newNet(t, 2, Config{})
	for _, f := range []func(){
		func() { nw.Send(-1, 0, nil) },
		func() { nw.Send(0, 2, nil) },
		func() { nw.Crash(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for out-of-range id")
				}
			}()
			f()
		}()
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		k := sim.New()
		nw := New(k, 10, xrand.New(42), Config{
			Latency: UniformLatency{Lo: time.Millisecond, Hi: 50 * time.Millisecond},
			Loss:    BernoulliLoss{P: 0.1},
		})
		var trace []sim.Time
		nw.RegisterAll(func(now sim.Time, m Message) {
			trace = append(trace, now)
			if len(trace) < 200 {
				nw.Send(m.To, NodeID((int(m.To)+1)%10), nil)
			}
		})
		nw.Send(0, 1, nil)
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
