package protocols

import "fmt"

// LpbcastParams configures the lpbcast-style baseline (Eugster et al.,
// "Lightweight Probabilistic Broadcast", the paper's reference [1]):
// gossip over bounded partial views with bounded event buffers. Members
// periodically gossip their buffered events to Fanout view members; event
// buffers are truncated to BufferSize, so under load old rumors age out —
// the protocol trades reliability for constant memory.
type LpbcastParams struct {
	// N is the group size.
	N int
	// Fanout is the per-round gossip fanout.
	Fanout int
	// Rounds is the number of gossip rounds.
	Rounds int
	// BufferSize bounds each member's event buffer (ids kept for
	// dedup are unbounded here; only payload buffers age out).
	BufferSize int
	// Events is the number of distinct multicasts injected at round 0,
	// all at the source. Buffer pressure appears when Events >
	// BufferSize.
	Events int
	// AliveRatio is the nonfailed member ratio q.
	AliveRatio float64
	// Source injects the events and never fails.
	Source int
	// ViewCopies is the SCAMP parameter c for the partial views.
	ViewCopies int
}

// Validate checks the parameters.
func (p LpbcastParams) Validate() error {
	if err := checkGroup(p.N, p.Source); err != nil {
		return err
	}
	if p.Fanout < 1 {
		return fmt.Errorf("protocols: fanout %d < 1", p.Fanout)
	}
	if p.Rounds < 1 {
		return fmt.Errorf("protocols: rounds %d < 1", p.Rounds)
	}
	if p.BufferSize < 1 {
		return fmt.Errorf("protocols: buffer size %d < 1", p.BufferSize)
	}
	if p.Events < 1 {
		return fmt.Errorf("protocols: events %d < 1", p.Events)
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	if err := checkViewCopies(p.ViewCopies, p.N); err != nil {
		return err
	}
	return nil
}

// LpbcastResult reports per-event delivery.
type LpbcastResult struct {
	// AliveCount is the number of nonfailed members.
	AliveCount int
	// DeliveredPerEvent[e] is the number of nonfailed members that
	// delivered event e.
	DeliveredPerEvent []int
	// MeanReliability averages delivered/alive over events.
	MeanReliability float64
	// MinReliability is the worst event's delivery ratio (buffer
	// pressure shows up here first).
	MinReliability float64
	// MessagesSent counts gossip messages (one per target per round per
	// gossiping member).
	MessagesSent int
}
