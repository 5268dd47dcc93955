package simnet

import (
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// settledPair is two networks on equal streams: queued takes Send,
// settled takes SendSettled, so any difference is the settle path's.
type settledPair struct {
	kq, ks                   *sim.Kernel
	queued, settled          *Network
	lossQ, latQ, lossS, latS xrand.RNG
}

func newSettledPair(n int, cfg Config) *settledPair {
	p := &settledPair{kq: sim.New(), ks: sim.New()}
	p.queued, p.settled = New(p.kq, n, xrand.New(1), cfg), New(p.ks, n, xrand.New(1), cfg)
	p.lossQ, p.lossS = *xrand.New(11), *xrand.New(11)
	p.latQ, p.latS = *xrand.New(12), *xrand.New(12)
	p.queued.DrawFrom(&p.lossQ, &p.latQ)
	p.settled.DrawFrom(&p.lossS, &p.latS)
	for _, nw := range []*Network{p.queued, p.settled} {
		nw.RegisterAll(func(sim.Time, Message) {})
	}
	return p
}

// TestSendSettledDrawsAsSend: after each SendSettled the loss and latency
// streams stand where a Send of the same message leaves them — the next
// draw of each is the same — and so does every sender's burst-loss chain,
// under each loss model; it returns true exactly for the copies Send does
// not lose.
func TestSendSettledDrawsAsSend(t *testing.T) {
	const n = 8
	lat := UniformLatency{Lo: time.Millisecond, Hi: 5 * time.Millisecond}
	for _, loss := range []LossModel{NoLoss{}, BernoulliLoss{P: 0.3}, NewGilbertElliott(0.2, 0.3, 0.1, 0.7)} {
		p := newSettledPair(n, Config{Latency: lat, Loss: loss})
		for i := 0; i < 200; i++ {
			from, to := NodeID(i%n), NodeID((i*3+1)%n)
			lost := p.queued.Stats().DroppedLoss
			p.queued.Send(from, to, nil)
			lost = p.queued.Stats().DroppedLoss - lost
			if kept := p.settled.SendSettled(from, to, i%2 == 0); kept != (lost == 0) {
				t.Fatalf("%T send %d: SendSettled returned %v, Send lost %d", loss, i, kept, lost)
			}
			nextQ, nextS := p.lossQ, p.lossS
			if a, b := nextQ.Uint64(), nextS.Uint64(); a != b {
				t.Fatalf("%T send %d: next loss draw %x after Send, %x after SendSettled", loss, i, a, b)
			}
			nextQ, nextS = p.latQ, p.latS
			if a, b := nextQ.Uint64(), nextS.Uint64(); a != b {
				t.Fatalf("%T send %d: next latency draw %x after Send, %x after SendSettled", loss, i, a, b)
			}
			if !reflect.DeepEqual(p.queued.burst, p.settled.burst) {
				t.Fatalf("%T send %d: burst-loss chains differ", loss, i)
			}
		}
	}
}

// TestSendSettledFallsBackToSend: under a tracer, a partition or a down
// sender, SendSettled is Send — the same counters, queued events and
// traced events, before and after the kernel drains — and returns false,
// since the handler sees what arrives.
func TestSendSettledFallsBackToSend(t *testing.T) {
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
		p := newSettledPair(4, cfg)
		evQ, evS := tc.setup(p.queued), tc.setup(p.settled)
		for i := 0; i < 40; i++ {
			from, to := NodeID(i%4), NodeID((i+1)%4)
			p.queued.Send(from, to, nil)
			if p.settled.SendSettled(from, to, true) {
				t.Fatalf("%s: SendSettled reported a settled copy on the queued path", tc.name)
			}
		}
		if p.ks.Pending() != p.kq.Pending() || p.settled.Stats() != p.queued.Stats() {
			t.Errorf("%s: %d events pending, stats %+v; Send: %d, %+v",
				tc.name, p.ks.Pending(), p.settled.Stats(), p.kq.Pending(), p.queued.Stats())
		}
		if err := p.kq.RunAll(); err != nil {
			t.Fatal(err)
		}
		if err := p.ks.RunAll(); err != nil {
			t.Fatal(err)
		}
		if st := p.settled.Stats(); st != p.queued.Stats() || st.Settled != 0 || !reflect.DeepEqual(*evS, *evQ) {
			t.Errorf("%s: drained stats %+v, Send's %+v (traces equal: %v)",
				tc.name, st, p.queued.Stats(), reflect.DeepEqual(*evS, *evQ))
		}
	}
}

// TestSendSettledClosesItsLedger: a settled send queues nothing and leaves
// nothing in flight — every accepted copy is Delivered, DroppedLoss or
// DroppedCrash at once, and Settled counts the ones past loss.
func TestSendSettledClosesItsLedger(t *testing.T) {
	k, nw := newNet(t, 10, Config{Latency: UniformLatency{Lo: time.Millisecond, Hi: 3 * time.Millisecond}, Loss: BernoulliLoss{P: 0.25}})
	kept := int64(0)
	for i := 0; i < 500; i++ {
		if nw.SendSettled(NodeID(i%10), NodeID((i+3)%10), i%3 != 0) {
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
}

// TestSendSettledZeroAlloc: settling a send touches no heap.
func TestSendSettledZeroAlloc(t *testing.T) {
	_, nw := newNet(t, 64, Config{Latency: ExponentialLatency{Floor: time.Millisecond, Mean: time.Millisecond}, Loss: NewGilbertElliott(0.1, 0.3, 0.05, 0.5)})
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		nw.SendSettled(NodeID(i%64), NodeID((i+5)%64), i%2 == 0)
		i++
	}); allocs != 0 {
		t.Errorf("SendSettled makes %.1f allocations per call, want 0", allocs)
	}
}
