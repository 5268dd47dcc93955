package simnet

import (
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/sim"
)

// TestInFlightAccounting: InFlight() counts exactly the accepted messages
// that are airborne — send-time discards from a down sender land in
// DroppedDown, not in any InFlight term, so the gauge can never go
// negative and quiescence checks keyed on InFlight() == 0 stay sound even
// when a crashed node's round logic still tries to send.
func TestInFlightAccounting(t *testing.T) {
	k, nw := newNet(t, 3, Config{Latency: ConstantLatency{D: 5 * time.Millisecond}})
	nw.RegisterAll(func(sim.Time, Message) {})

	nw.Send(0, 1, nil)
	if got := nw.Stats().InFlight(); got != 1 {
		t.Fatalf("one message airborne, InFlight() = %d", got)
	}

	// A send from a crashed node is discarded before it is ever "sent".
	nw.Crash(2)
	nw.Send(2, 1, nil)
	st := nw.Stats()
	if st.DroppedDown != 1 || st.Sent != 1 {
		t.Fatalf("down-sender discard: stats %+v", st)
	}
	if got := st.InFlight(); got != 1 {
		t.Fatalf("down-sender discard moved InFlight() to %d, want 1", got)
	}

	// A delivery-time crash drop resolves its airborne message.
	nw.Send(0, 2, nil) // node 2 is down: dropped at delivery
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st = nw.Stats()
	if st.Delivered != 1 || st.DroppedCrash != 1 {
		t.Fatalf("drain: stats %+v", st)
	}
	if got := st.InFlight(); got != 0 {
		t.Fatalf("drained network reports InFlight() = %d", got)
	}
}

// TestStatsAddSumsEveryField walks Stats by reflection, so a counter
// added to the struct but not to Add — the one per-field sum every shard
// reduction goes through — fails here rather than reading zero in a
// merged total.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Stats.Add: %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
