package scenario

import (
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/obs"
	"gossipkit/internal/simnet"
	"gossipkit/internal/topology"
)

// traceRing is the probes' ring capacity here: large enough that no event
// of either campaign is overwritten (the tests assert TraceDropped == 0).
const traceRing = 1 << 16

// traceKinds counts a probed run's ring events kind by kind.
func traceKinds(t *testing.T, m *obs.Metrics) map[simnet.EventKind]int64 {
	t.Helper()
	if m.TraceDropped != 0 {
		t.Fatalf("ring overwrote %d events; raise traceRing", m.TraceDropped)
	}
	counts := map[simnet.EventKind]int64{}
	for _, e := range m.Trace {
		counts[e.Kind]++
	}
	return counts
}

// TestDropAttributionReconciles: under a partition-heal campaign with a
// mid-spread crash wave, every drop the probe's ring attributes — partition vs
// crash-at-delivery vs down-sender discard — reconciles exactly with the
// network's Stats counters, and the probed Totals snapshot agrees with
// both. This is the attribution seam the telemetry exporters rely on:
// a drop misfiled between DroppedCrash and DroppedPart (or a send-time
// DroppedDown leaking into Sent) would silently skew every campaign's
// loss breakdown.
func TestDropAttributionReconciles(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	s := New("partition-heal-crash",
		"half the group partitioned away mid-spread with a crash wave inside the partition window, healed and re-gossiped").
		At(ms(3), Partition(0.50, 1.0)).
		At(ms(8), CrashFraction(0.20)).
		At(ms(60), Heal()).
		At(ms(65), Regossip(8))

	cfg := RunConfig{
		Params:            core.Params{N: 400, Fanout: dist.NewPoisson(5), AliveRatio: 1},
		PartialViewCopies: 2,
		Probe:             obs.New(obs.Options{TraceCapacity: traceRing}),
	}
	rep, err := Run(s, cfg, 2008)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("probed run has no metrics")
	}
	st := rep.Metrics.Totals
	counts := traceKinds(t, rep.Metrics)

	// The campaign must actually exercise all three attribution paths.
	if st.DroppedPart == 0 {
		t.Error("no partition drops — the partition window missed the spread")
	}
	if st.DroppedCrash == 0 {
		t.Error("no crash drops — the crash wave missed in-flight messages")
	}

	// Ring attribution == Stats counters, kind for kind. The ring and the
	// Totals snapshot come from one probe, and Totals is the same Stats
	// the network reports at quiescence.
	want := map[simnet.EventKind]int64{
		simnet.EventSent:             st.Sent,
		simnet.EventDelivered:        st.Delivered,
		simnet.EventDroppedLoss:      st.DroppedLoss,
		simnet.EventDroppedCrash:     st.DroppedCrash,
		simnet.EventDroppedPartition: st.DroppedPart,
		simnet.EventDroppedDown:      st.DroppedDown,
	}
	for kind, w := range want {
		if counts[kind] != w {
			t.Errorf("%s: ring saw %d, stats say %d", kind, counts[kind], w)
		}
	}

	// Every accepted message has exactly one outcome: the run is drained
	// (the runner's stall trigger waits on Network.Drained), so in-flight
	// is zero and the outcomes partition Sent.
	if got := st.Sent - st.Delivered - st.DroppedLoss - st.DroppedCrash - st.DroppedPart; got != 0 {
		t.Errorf("in-flight at quiescence = %d, want 0", got)
	}
	// Down-sender discards were never accepted, so they appear in no
	// other counter and cannot drive InFlight negative.
	if st.DroppedDown < 0 || st.InFlight() != 0 {
		t.Errorf("stats inconsistent at quiescence: %+v", st)
	}
}

// TestDropAttributionReconcilesOnWANTopology runs the same reconciliation
// on a clustered WAN overlay under a zone-failure campaign: an entire zone
// crashes mid-spread (so inter-zone bridge traffic dies in flight on the
// high-latency arcs ZoneLatency stretches out), part of it restarts, and a
// flash crowd republishes into the damage. Ring counts, Stats, and the
// probe's Totals must agree kind for kind, and Sent − Delivered − drops
// must be zero at quiescence — drop attribution owes nothing to the
// uniform full-view assumption.
func TestDropAttributionReconcilesOnWANTopology(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	s := New("zone-failure",
		"one WAN zone fail-stops mid-spread, partially restarts, and a flash crowd republishes").
		At(ms(4), CrashZone(0.25, 0.50)).
		At(ms(30), RestartFraction(0.5)).
		At(ms(35), FlashCrowd(5))

	topo, err := topology.Parse("wan:4:5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Params:   core.Params{N: 400, Fanout: dist.NewPoisson(5), AliveRatio: 1},
		Topology: topo,
		Probe:    obs.New(obs.Options{TraceCapacity: traceRing}),
	}
	rep, err := Run(s, cfg, 2008)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("probed run has no metrics")
	}
	st := rep.Metrics.Totals
	counts := traceKinds(t, rep.Metrics)

	// The zone crash must catch bridge traffic in flight: WAN inter-zone
	// latency is tens of milliseconds, so messages into the dying zone
	// attribute as crash drops.
	if st.DroppedCrash == 0 {
		t.Error("no crash drops — the zone failure missed all in-flight traffic")
	}
	if st.Sent == 0 || st.Delivered == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}

	want := map[simnet.EventKind]int64{
		simnet.EventSent:             st.Sent,
		simnet.EventDelivered:        st.Delivered,
		simnet.EventDroppedLoss:      st.DroppedLoss,
		simnet.EventDroppedCrash:     st.DroppedCrash,
		simnet.EventDroppedPartition: st.DroppedPart,
		simnet.EventDroppedDown:      st.DroppedDown,
	}
	for kind, w := range want {
		if counts[kind] != w {
			t.Errorf("%s: ring saw %d, stats say %d", kind, counts[kind], w)
		}
	}
	if got := st.Sent - st.Delivered - st.DroppedLoss - st.DroppedCrash - st.DroppedPart; got != 0 {
		t.Errorf("in-flight at quiescence = %d, want 0", got)
	}
	if st.DroppedDown < 0 || st.InFlight() != 0 {
		t.Errorf("stats inconsistent at quiescence: %+v", st)
	}
}
