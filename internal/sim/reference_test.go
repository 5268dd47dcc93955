package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// referenceRun is Kernel.Run as it was before the event loop was fused: ask
// liveHead for the earliest live record (peeking, and popping canceled ones),
// test it against the horizon and the budget, and hand it to fire, which pops
// the same record again. It is the oracle Run is held to, and like Run it
// fails at once on a kernel that was scheduled past MaxTime.
func (k *Kernel) referenceRun(horizon Time) error {
	for {
		if k.err != nil {
			return k.err
		}
		head, ok := k.liveHead()
		if !ok || head.at() > horizon {
			return nil
		}
		if k.budget > 0 && k.fired >= k.budget {
			return ErrBudget
		}
		k.fire(head)
	}
}

// FuzzRunVsReference drives one byte-generated op stream through Run and
// through referenceRun, on the heap and on the calendar, and requires the
// same trace: typed and closure pushes into every tier, cancels at the head
// before and after a horizon, horizon runs followed by pushes, budgets that
// run out exactly at a horizon, resets and re-hints — and the same ErrBudget
// returns.
func FuzzRunVsReference(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, calendar := range []bool{false, true} {
			want := fuzzScript(data, calendar, (*Kernel).referenceRun)
			got := fuzzScript(data, calendar, (*Kernel).Run)
			equalTraces(t, got, want, fmt.Sprintf("Run (calendar %v)", calendar), "reference")
		}
	})
}

// TestRunBudgetAtHorizon pins the budget edge of the fused loop on both
// disciplines: a budget spent on the last event at or before the horizon is
// not an error, a spent budget with an event due is, and a canceled head
// counts for neither.
func TestRunBudgetAtHorizon(t *testing.T) {
	for _, calendar := range []bool{false, true} {
		k := New()
		if calendar {
			k.SetBoundedDelayHint(time.Millisecond, 0)
		}
		var fired []int
		for i := 1; i <= 4; i++ {
			i := i
			k.At(Time(i), func() { fired = append(fired, i) })
		}
		canceled := k.At(Time(2), func() { t.Error("canceled event fired") })
		k.Cancel(canceled)
		k.SetBudget(2)
		if err := k.Run(2); err != nil || len(fired) != 2 {
			t.Fatalf("calendar %v: Run(2) = %v after firing %v, want nil after [1 2]", calendar, err, fired)
		}
		if err := k.Run(2); err != nil {
			t.Errorf("calendar %v: spent budget, nothing due: Run(2) = %v, want nil", calendar, err)
		}
		if err := k.Run(3); !errors.Is(err, ErrBudget) {
			t.Errorf("calendar %v: spent budget, event 3 due: Run(3) = %v, want ErrBudget", calendar, err)
		}
		k.SetBudget(0)
		if err := k.RunAll(); err != nil || len(fired) != 4 || k.Now() != 4 || k.Pending() != 0 {
			t.Errorf("calendar %v: after lifting the budget: err %v, fired %v, now %v, pending %d", calendar, err, fired, k.Now(), k.Pending())
		}
	}
}

// TestRunPastHorizonKeepsWindow: a horizon run that finds nothing due but an
// overflow record leaves the calendar's window where it is, as a peek does.
// The sharded barrier pushes just past its horizon next; a window moved
// ahead to the overflow record would take a rebase for it.
func TestRunPastHorizonKeepsWindow(t *testing.T) {
	k := New()
	k.SetBoundedDelayHint(time.Millisecond, 0)
	h := k.RegisterHandler(func(Time, int32, int32) {})
	k.Schedule(Time(time.Second), h, 0, 0)
	if err := k.Run(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	k.Schedule(Time(2*time.Millisecond), h, 1, 0)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if q := k.QueueStats(); q.Rebases != 0 || q.OverflowAdmits != 1 || k.Fired() != 2 {
		t.Errorf("rebases %d, overflow admits %d, fired %d; want 0, 1, 2", q.Rebases, q.OverflowAdmits, k.Fired())
	}
}
