package simnet

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// settleAll is the SendBefore cutoff that settles every copy past loss.
const settleAll = sim.Time(math.MinInt64)

// arrived is one delivery a pair's handler saw.
type arrived struct {
	at       sim.Time
	from, to NodeID
}

// sendPair is two networks on equal streams: queued takes Send, cut takes
// SendBefore, so any difference is SendBefore's. Each records what its
// handler sees.
type sendPair struct {
	kq, kc                   *sim.Kernel
	queued, cut              *Network
	lossQ, latQ, lossC, latC xrand.RNG
	gotQ, gotC               []arrived
}

func newSendPair(n int, cfg Config) *sendPair {
	p := &sendPair{kq: sim.New(), kc: sim.New()}
	p.queued, p.cut = New(p.kq, n, xrand.New(1), cfg), New(p.kc, n, xrand.New(1), cfg)
	p.lossQ, p.lossC = *xrand.New(11), *xrand.New(11)
	p.latQ, p.latC = *xrand.New(12), *xrand.New(12)
	p.queued.DrawFrom(&p.lossQ, &p.latQ)
	p.cut.DrawFrom(&p.lossC, &p.latC)
	p.queued.RegisterAll(func(now sim.Time, m Message) { p.gotQ = append(p.gotQ, arrived{now, m.From, m.To}) })
	p.cut.RegisterAll(func(now sim.Time, m Message) { p.gotC = append(p.gotC, arrived{now, m.From, m.To}) })
	return p
}

// TestSendBeforeDrawsAsSend: after each SendBefore the loss and latency
// streams stand where a Send of the same message leaves them — the next
// draw of each is the same — and so does every sender's burst-loss chain,
// under each loss model. A copy Send does not lose arrives at the time
// SendBefore returns; SendBefore settles it exactly when that time is at
// or past the cutoff, and queues the rest to arrive then. A settled copy
// the destination would not take counts DroppedCrash instead of Delivered.
func TestSendBeforeDrawsAsSend(t *testing.T) {
	const n = 8
	lat := UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}
	mid := sim.Time(3 * time.Millisecond)
	for _, loss := range []LossModel{NoLoss{}, BernoulliLoss{P: 0.3}, NewGilbertElliott(0.2, 0.3, 0.1, 0.7)} {
		p := newSendPair(n, Config{Latency: lat, Loss: loss})
		var kept, queued []arrived
		var crashed int64
		for i := 0; i < 300; i++ {
			from, to := NodeID(i%n), NodeID((i*3+1)%n)
			lost := p.queued.Stats().DroppedLoss
			p.queued.Send(from, to, nil)
			lost = p.queued.Stats().DroppedLoss - lost
			cutoff := []sim.Time{settleAll, mid, sim.End}[i%3]
			deliver := i%2 == 0
			at, settled := p.cut.SendBefore(from, to, cutoff, deliver)
			if (at == sim.End) != (lost == 1) {
				t.Fatalf("%T send %d: SendBefore returned arrival %v, Send lost %d", loss, i, at, lost)
			}
			if want := lost == 0 && at >= cutoff && cutoff != sim.End; settled != want {
				t.Fatalf("%T send %d: arrival %v, cutoff %v: settled %v, want %v", loss, i, at, cutoff, settled, want)
			}
			if lost == 0 {
				kept = append(kept, arrived{at, from, to})
				if !settled {
					queued = append(queued, arrived{at, from, to})
				} else if !deliver {
					crashed++
				}
			}
			nextQ, nextC := p.lossQ, p.lossC
			if a, b := nextQ.Uint64(), nextC.Uint64(); a != b {
				t.Fatalf("%T send %d: next loss draw %x after Send, %x after SendBefore", loss, i, a, b)
			}
			nextQ, nextC = p.latQ, p.latC
			if a, b := nextQ.Uint64(), nextC.Uint64(); a != b {
				t.Fatalf("%T send %d: next latency draw %x after Send, %x after SendBefore", loss, i, a, b)
			}
			if !reflect.DeepEqual(p.queued.burst, p.cut.burst) {
				t.Fatalf("%T send %d: burst-loss chains differ", loss, i)
			}
		}
		if err := p.kq.RunAll(); err != nil {
			t.Fatal(err)
		}
		if err := p.kc.RunAll(); err != nil {
			t.Fatal(err)
		}
		// Deliveries fire in (at, send order): a stable sort of the returned
		// arrivals is what each handler must have seen.
		byAt := func(a, b arrived) int { return int(a.at - b.at) }
		slices.SortStableFunc(kept, byAt)
		slices.SortStableFunc(queued, byAt)
		if !slices.Equal(p.gotQ, kept) {
			t.Errorf("%T: Send delivered %v, SendBefore's arrivals %v", loss, p.gotQ, kept)
		}
		if !slices.Equal(p.gotC, queued) {
			t.Errorf("%T: SendBefore delivered %v, its queued arrivals %v", loss, p.gotC, queued)
		}
		sq, sc := p.queued.Stats(), p.cut.Stats()
		if sc.Settled != int64(len(kept)-len(queued)) || sc.DroppedCrash != crashed || crashed == 0 ||
			sc.Delivered+sc.DroppedCrash != sq.Delivered || sc.Sent != sq.Sent || sc.DroppedLoss != sq.DroppedLoss {
			t.Errorf("%T: SendBefore stats %+v, Send's %+v", loss, sc, sq)
		}
	}
}

// TestSendBeforeEndIsSend: with cutoff sim.End SendBefore is Send — the
// same pending events, the same route-hook calls for cross-shard
// destinations, the same counters and deliveries — even when an arrival
// saturates at sim.End.
func TestSendBeforeEndIsSend(t *testing.T) {
	cfg := Config{Latency: ExponentialLatency{Floor: time.Millisecond, Mean: 2 * time.Millisecond}, Loss: BernoulliLoss{P: 0.2}}
	p := newSendPair(6, cfg)
	type call struct {
		from, to   NodeID
		sentAt, at sim.Time
	}
	var routedQ, routedC []call
	p.queued.SetRoute(func(from, to NodeID, _ int32, sentAt, at sim.Time) bool {
		routedQ = append(routedQ, call{from, to, sentAt, at})
		return to >= 4
	})
	p.cut.SetRoute(func(from, to NodeID, _ int32, sentAt, at sim.Time) bool {
		routedC = append(routedC, call{from, to, sentAt, at})
		return to >= 4
	})
	for i := 0; i < 200; i++ {
		from, to := NodeID(i%6), NodeID((i+1)%6)
		p.queued.Send(from, to, nil)
		if _, settled := p.cut.SendBefore(from, to, sim.End, true); settled {
			t.Fatalf("send %d settled under cutoff sim.End", i)
		}
	}
	if p.kc.Pending() != p.kq.Pending() || p.cut.Stats() != p.queued.Stats() || !slices.Equal(routedC, routedQ) {
		t.Errorf("%d events pending, stats %+v, %d routed; Send: %d, %+v, %d",
			p.kc.Pending(), p.cut.Stats(), len(routedC), p.kq.Pending(), p.queued.Stats(), len(routedQ))
	}
	if len(routedQ) == 0 {
		t.Fatal("no send reached the route hook")
	}
	if err := p.kq.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.kc.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.gotC, p.gotQ) {
		t.Errorf("SendBefore delivered %v, Send %v", p.gotC, p.gotQ)
	}

	// A delay too long to represent saturates the arrival at sim.End; Send
	// hands it to the kernel, which refuses it, so cutoff sim.End must not
	// settle it.
	k, nw := newNet(t, 2, Config{Latency: ConstantLatency{D: time.Duration(math.MaxInt64)}})
	if at, settled := nw.SendBefore(0, 1, sim.End, true); at != sim.End || settled || nw.Stats().Settled != 0 {
		t.Errorf("saturated arrival: at %v, settled %v, stats %+v; want sim.End, not settled", at, settled, nw.Stats())
	}
	if err := k.RunAll(); !errors.Is(err, sim.ErrTimeRange) {
		t.Errorf("saturated arrival: kernel returned %v, want %v", err, sim.ErrTimeRange)
	}
}

// TestSendBeforeFallsBackToSend: under a tracer, a partition or a down
// sender, SendBefore is Send at every cutoff — the same counters, queued
// events and traced events, before and after the kernel drains — and
// settles nothing, since the handler sees what arrives.
func TestSendBeforeFallsBackToSend(t *testing.T) {
	cfg := Config{Latency: ConstantLatency{D: time.Millisecond}, Loss: BernoulliLoss{P: 0.2}}
	for _, tc := range []struct {
		name  string
		setup func(*Network) *[]Event
	}{
		{"tracer", func(nw *Network) *[]Event {
			var evs []Event
			nw.SetTracer(func(e Event) { evs = append(evs, e) })
			return &evs
		}},
		{"lite-tracer", func(nw *Network) *[]Event {
			var evs []Event
			nw.SetTracerLite(func(e Event) { evs = append(evs, e) })
			return &evs
		}},
		{"partition", func(nw *Network) *[]Event {
			nw.SetPartition(SplitPartition(func(id NodeID) bool { return id < 2 }))
			return &[]Event{}
		}},
		{"down-sender", func(nw *Network) *[]Event {
			for id := NodeID(0); id < 4; id++ {
				nw.Crash(id)
			}
			return &[]Event{}
		}},
	} {
		p := newSendPair(4, cfg)
		evQ, evC := tc.setup(p.queued), tc.setup(p.cut)
		for i := 0; i < 40; i++ {
			from, to := NodeID(i%4), NodeID((i+1)%4)
			p.queued.Send(from, to, nil)
			if _, settled := p.cut.SendBefore(from, to, settleAll, true); settled {
				t.Fatalf("%s: SendBefore reported a settled copy on the queued path", tc.name)
			}
		}
		if p.kc.Pending() != p.kq.Pending() || p.cut.Stats() != p.queued.Stats() {
			t.Errorf("%s: %d events pending, stats %+v; Send: %d, %+v",
				tc.name, p.kc.Pending(), p.cut.Stats(), p.kq.Pending(), p.queued.Stats())
		}
		if err := p.kq.RunAll(); err != nil {
			t.Fatal(err)
		}
		if err := p.kc.RunAll(); err != nil {
			t.Fatal(err)
		}
		if st := p.cut.Stats(); st != p.queued.Stats() || st.Settled != 0 || !reflect.DeepEqual(*evC, *evQ) {
			t.Errorf("%s: drained stats %+v, Send's %+v (traces equal: %v)",
				tc.name, st, p.queued.Stats(), reflect.DeepEqual(*evC, *evQ))
		}
	}
}

// TestSendBeforeClosesItsLedger: a settled copy queues nothing and leaves
// nothing in flight — every accepted copy is Delivered, DroppedLoss or
// DroppedCrash at once, and Settled counts the ones past loss; with a
// cutoff inside the delay band the queued rest closes the ledger once the
// kernel drains.
func TestSendBeforeClosesItsLedger(t *testing.T) {
	cfg := Config{Latency: UniformLatency{Lo: time.Millisecond, Hi: 3 * time.Millisecond}, Loss: BernoulliLoss{P: 0.25}}
	k, nw := newNet(t, 10, cfg)
	nw.RegisterAll(func(sim.Time, Message) {})
	kept := int64(0)
	for i := 0; i < 500; i++ {
		if _, settled := nw.SendBefore(NodeID(i%10), NodeID((i+3)%10), settleAll, i%3 != 0); settled {
			kept++
		}
		st := nw.Stats()
		if st.InFlight() != 0 || k.Pending() != 0 {
			t.Fatalf("send %d: %d in flight, %d events pending", i, st.InFlight(), k.Pending())
		}
		if st.Sent != st.Delivered+st.DroppedLoss+st.DroppedCrash {
			t.Fatalf("send %d: Sent %d ≠ Delivered + DroppedLoss + DroppedCrash in %+v", i, st.Sent, st)
		}
	}
	if st := nw.Stats(); st.Settled != kept || kept == 0 || st.DroppedLoss == 0 || st.DroppedCrash == 0 {
		t.Errorf("stats %+v, %d copies kept", st, kept)
	}
	for i := 0; i < 500; i++ {
		nw.SendBefore(NodeID(i%10), NodeID((i+3)%10), sim.Time(2*time.Millisecond), true)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if st := nw.Stats(); st.InFlight() != 0 || st.Settled <= kept || st.Delivered == st.Settled {
		t.Errorf("after a split cutoff: stats %+v, %d in flight", st, st.InFlight())
	}
}

// TestSendBeforeZeroAlloc: settling a send touches no heap.
func TestSendBeforeZeroAlloc(t *testing.T) {
	_, nw := newNet(t, 64, Config{Latency: ExponentialLatency{Floor: time.Millisecond, Mean: time.Millisecond}, Loss: NewGilbertElliott(0.1, 0.3, 0.05, 0.5)})
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		nw.SendBefore(NodeID(i%64), NodeID((i+5)%64), settleAll, i%2 == 0)
		i++
	}); allocs != 0 {
		t.Errorf("SendBefore makes %.1f allocations per call, want 0", allocs)
	}
}
