package scenario

import (
	"encoding/json"
	"fmt"
	"time"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("5ms") in JSON scenario specs, while still accepting plain nanosecond
// numbers on input.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting either a duration
// string ("5ms") or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: invalid duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string or nanosecond count: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Std returns d as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// maxSpan bounds every time and interval a spec may carry. Specs arrive
// from outside the program, and the runner and the fabric add these
// values to the kernel clock — At+Every, Until+Every, now+Window/2,
// now+Latency on every hop — so one value near the int64 limit wraps the
// sum negative and panics the kernel. A thousand hours is far beyond any
// campaign and leaves room for thousands of such additions.
const maxSpan = Duration(1000 * time.Hour)

// Op identifies a fault-injection operation.
type Op string

// The supported operations. Fractions refer to the group size n, so one
// spec scales across group sizes; node ranges are expressed as [LoFrac,
// HiFrac) id fractions for the same reason.
const (
	// OpCrash fail-stops Frac of the currently-up members (never the
	// source), chosen uniformly at random.
	OpCrash Op = "crash"
	// OpCrashZone fail-stops the contiguous id range [LoFrac·n,
	// HiFrac·n) — a correlated zone failure (rack, AZ).
	OpCrashZone Op = "crash-zone"
	// OpRestart restarts Frac of the currently-down members, chosen
	// uniformly at random.
	OpRestart Op = "restart"
	// OpPartition isolates the id range [LoFrac·n, HiFrac·n) from the
	// rest of the group (both directions), replacing any previous
	// partition.
	OpPartition Op = "partition"
	// OpHeal clears any partition.
	OpHeal Op = "heal"
	// OpLoss installs Bernoulli message loss with probability P.
	OpLoss Op = "loss"
	// OpBurstLoss installs bursty Gilbert–Elliott loss with transition
	// probabilities PG2B/PB2G and loss rates PGood/PBad.
	OpBurstLoss Op = "burst-loss"
	// OpClearLoss removes any loss model.
	OpClearLoss Op = "clear-loss"
	// OpLatency installs a constant per-message latency of Latency.
	OpLatency Op = "latency"
	// OpChurn makes Frac of the currently-up members (never the source)
	// leave: each departs the membership substrate (SCAMP Unsubscribe,
	// donating its arcs, when the view is partial) and fail-stops.
	OpChurn Op = "churn"
	// OpPublish seeds the message at Count additional up members (flash
	// crowd): each obtains m out of band and gossips it.
	OpPublish Op = "publish"
	// OpRegossip makes Count random up members that already hold m
	// forward it again (anti-entropy push wave).
	OpRegossip Op = "regossip"
)

// Action is one fault-injection operation with its parameters. Only the
// fields relevant to Op are meaningful; the zero values of the rest keep
// the JSON encoding sparse.
type Action struct {
	Op Op `json:"op"`
	// Frac is the member fraction for crash/restart/churn.
	Frac float64 `json:"frac,omitempty"`
	// LoFrac and HiFrac bound the id range [LoFrac·n, HiFrac·n) for
	// crash-zone and partition.
	LoFrac float64 `json:"lo,omitempty"`
	HiFrac float64 `json:"hi,omitempty"`
	// Count is the member count for publish/regossip.
	Count int `json:"count,omitempty"`
	// P is the Bernoulli loss probability.
	P float64 `json:"p,omitempty"`
	// Gilbert–Elliott burst-loss parameters.
	PG2B  float64 `json:"pg2b,omitempty"`
	PB2G  float64 `json:"pb2g,omitempty"`
	PGood float64 `json:"pgood,omitempty"`
	PBad  float64 `json:"pbad,omitempty"`
	// Latency is the constant per-message delay for the latency op.
	Latency Duration `json:"latency,omitempty"`
}

// Validate checks the action's parameters for its op.
func (a Action) Validate() error {
	frac01 := func(name string, v float64) error {
		if v < 0 || v > 1 || v != v {
			return fmt.Errorf("scenario: %s %s %g outside [0,1]", a.Op, name, v)
		}
		return nil
	}
	switch a.Op {
	case OpCrash, OpRestart, OpChurn:
		return frac01("frac", a.Frac)
	case OpCrashZone, OpPartition:
		if err := frac01("lo", a.LoFrac); err != nil {
			return err
		}
		if err := frac01("hi", a.HiFrac); err != nil {
			return err
		}
		if a.HiFrac <= a.LoFrac {
			return fmt.Errorf("scenario: %s empty range [%g,%g)", a.Op, a.LoFrac, a.HiFrac)
		}
		return nil
	case OpHeal, OpClearLoss:
		return nil
	case OpLoss:
		return frac01("p", a.P)
	case OpBurstLoss:
		for _, pv := range []struct {
			name string
			v    float64
		}{{"pg2b", a.PG2B}, {"pb2g", a.PB2G}, {"pgood", a.PGood}, {"pbad", a.PBad}} {
			if err := frac01(pv.name, pv.v); err != nil {
				return err
			}
		}
		return nil
	case OpLatency:
		if a.Latency < 0 || a.Latency > maxSpan {
			return fmt.Errorf("scenario: latency %v outside [0, %v]", a.Latency.Std(), maxSpan.Std())
		}
		return nil
	case OpPublish, OpRegossip:
		if a.Count < 1 {
			return fmt.Errorf("scenario: %s count %d < 1", a.Op, a.Count)
		}
		return nil
	default:
		return fmt.Errorf("scenario: unknown op %q", a.Op)
	}
}

// WhenStall is the conditional-trigger condition a Step.When may carry:
// the step fires when delivery makes no progress for the step's Window.
const WhenStall = "stall"

// Step is one timestamped action of a scenario, optionally recurring or
// conditional.
type Step struct {
	// At is the simulated time (from execution start) the action fires
	// (first fires, when recurring; watching starts, when conditional).
	At Duration `json:"at"`
	// Every, when positive, refires the action at this interval after the
	// first firing. An unbounded recurrence (Until zero) keeps firing
	// while the execution has work pending beyond the recurrences
	// themselves, then stops so the run can drain; traffic-generating
	// ops (publish, regossip) sustain themselves and therefore require
	// an Until bound.
	Every Duration `json:"every,omitempty"`
	// Until, when positive, bounds a recurrence: the action fires at
	// At, At+Every, ... up to and including Until.
	Until Duration `json:"until,omitempty"`
	// When, when set to "stall", makes the step conditional instead of
	// timed: a kernel event watches the run's delivered-member count and
	// fires the action (at most once per run) when delivery has made no
	// progress for Window of simulated time while at least one up member
	// still lacks m. The trigger works identically on the paper's
	// algorithm and on the protocol-baseline executors — both expose the
	// delivered count through the same NetRun seam.
	When string `json:"when,omitempty"`
	// Window is the no-progress window a stall trigger waits for.
	Window Duration `json:"window,omitempty"`
	// Action is the operation to apply.
	Action Action `json:"action"`
}

// Scenario is a named, ordered fault-injection campaign.
type Scenario struct {
	// Name identifies the scenario in reports and the CLI.
	Name string `json:"name"`
	// Description says what fault process the scenario models.
	Description string `json:"description,omitempty"`
	// Steps are the timestamped actions; they need not be pre-sorted
	// (the kernel fires them in time order, ties in append order).
	Steps []Step `json:"steps"`
}

// New starts a scenario for the builder API.
func New(name, description string) *Scenario {
	return &Scenario{Name: name, Description: description}
}

// At appends an action at time t and returns the scenario for chaining.
func (s *Scenario) At(t time.Duration, a Action) *Scenario {
	s.Steps = append(s.Steps, Step{At: Duration(t), Action: a})
	return s
}

// Every appends a recurring action: it first fires at interval and then
// refires every interval while the execution still has other events
// pending ("crash 1% every 10ms" for as long as the spread is in flight).
func (s *Scenario) Every(interval time.Duration, a Action) *Scenario {
	s.Steps = append(s.Steps, Step{At: Duration(interval), Every: Duration(interval), Action: a})
	return s
}

// EveryUntil appends a bounded recurring action firing at start,
// start+interval, ... up to and including until.
func (s *Scenario) EveryUntil(start, interval, until time.Duration, a Action) *Scenario {
	s.Steps = append(s.Steps, Step{
		At: Duration(start), Every: Duration(interval), Until: Duration(until), Action: a,
	})
	return s
}

// OnStall appends a conditional step: the action fires (at most once per
// run) when delivery has made no progress for window of simulated time
// while at least one up member still lacks m — "when the spread stalls,
// heal the partition / fire a re-gossip wave". JSON form:
// {"when": "stall", "window": "10ms", "action": {...}}.
func (s *Scenario) OnStall(window time.Duration, a Action) *Scenario {
	s.Steps = append(s.Steps, Step{When: WhenStall, Window: Duration(window), Action: a})
	return s
}

// Validate checks the scenario.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	for i, st := range s.Steps {
		if st.At < 0 {
			return fmt.Errorf("scenario %q: step %d at negative time %v", s.Name, i, st.At.Std())
		}
		if st.Every < 0 {
			return fmt.Errorf("scenario %q: step %d negative interval %v", s.Name, i, st.Every.Std())
		}
		if st.Until < 0 {
			return fmt.Errorf("scenario %q: step %d negative until %v", s.Name, i, st.Until.Std())
		}
		if max(st.At, st.Every, st.Until, st.Window) > maxSpan {
			return fmt.Errorf("scenario %q: step %d has a time beyond %v", s.Name, i, maxSpan.Std())
		}
		if st.Until > 0 && st.Every == 0 {
			return fmt.Errorf("scenario %q: step %d has until without every", s.Name, i)
		}
		if st.Until > 0 && st.Until < st.At {
			return fmt.Errorf("scenario %q: step %d until %v before at %v", s.Name, i, st.Until.Std(), st.At.Std())
		}
		switch st.When {
		case "":
			if st.Window != 0 {
				return fmt.Errorf("scenario %q: step %d has a window without when=%q", s.Name, i, WhenStall)
			}
		case WhenStall:
			if st.Window <= 0 {
				return fmt.Errorf("scenario %q: step %d: stall trigger needs a positive window", s.Name, i)
			}
			if st.Every != 0 || st.Until != 0 {
				return fmt.Errorf("scenario %q: step %d: stall trigger cannot recur (every/until)", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: step %d: unknown condition %q (only %q is supported)", s.Name, i, st.When, WhenStall)
		}
		// Publish and regossip generate fresh gossip traffic on every
		// firing, so an unbounded recurrence of them would keep the
		// execution alive forever (the drain check sees their own
		// messages as pending work) until the event budget aborts the
		// run. Require an explicit window.
		if st.Every > 0 && st.Until == 0 && (st.Action.Op == OpPublish || st.Action.Op == OpRegossip) {
			return fmt.Errorf("scenario %q: step %d: recurring %s is self-sustaining and needs an until bound", s.Name, i, st.Action.Op)
		}
		if err := st.Action.Validate(); err != nil {
			return fmt.Errorf("scenario %q: step %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// Marshal renders the scenario as its canonical indented JSON spec.
func (s *Scenario) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Parse decodes a JSON scenario spec and validates it.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
