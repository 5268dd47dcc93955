package protocols

import (
	"fmt"
	"math"
)

// Result is the common outcome report for baseline protocols.
type Result struct {
	// AliveCount is the number of nonfailed members.
	AliveCount int
	// Delivered is the number of nonfailed members that got the message.
	Delivered int
	// Reliability is Delivered/AliveCount.
	Reliability float64
	// MessagesSent counts protocol messages (payload pushes; repair
	// pulls count as one message each).
	MessagesSent int
	// Rounds is the number of rounds actually executed.
	Rounds int
}

func finish(res *Result) {
	if res.AliveCount > 0 {
		res.Reliability = float64(res.Delivered) / float64(res.AliveCount)
	}
}

// ---------------------------------------------------------------------------
// Pbcast-style round-based gossip

// PbcastParams configures the round-based anti-entropy baseline.
type PbcastParams struct {
	// N is the group size.
	N int
	// Fanout is the per-round fanout of every infected member.
	Fanout int
	// Rounds is the number of gossip rounds.
	Rounds int
	// AliveRatio is the nonfailed member ratio q.
	AliveRatio float64
	// Source initiates the multicast and never fails.
	Source int
}

// Validate checks the parameters.
func (p PbcastParams) Validate() error {
	if err := checkGroup(p.N, p.Source); err != nil {
		return err
	}
	if p.Fanout < 0 {
		return fmt.Errorf("protocols: negative fanout %d", p.Fanout)
	}
	if p.Rounds < 1 {
		return fmt.Errorf("protocols: rounds %d < 1", p.Rounds)
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	return nil
}

// checkGroup bounds a group size at the node-id width, as simnet.New does,
// and the source member within it.
func checkGroup(n, source int) error {
	if n < 2 || n > math.MaxInt32 {
		return fmt.Errorf("protocols: group size %d outside [2, 2³¹)", n)
	}
	if source < 0 || source >= n {
		return fmt.Errorf("protocols: source %d out of range", source)
	}
	return nil
}

// checkViewCopies bounds the SCAMP copy count c of an n-member group to
// [0, n): c ≥ n asks for more copies of a subscription than there are
// members to hold them.
func checkViewCopies(c, n int) error {
	if c < 0 || c >= n {
		return fmt.Errorf("protocols: view copies %d outside [0, %d)", c, n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// LRG: local retransmission + gossip

// LRGParams configures the LRG baseline.
type LRGParams struct {
	// N is the group size.
	N int
	// Degree is the overlay degree (neighbors per member).
	Degree int
	// GossipProb is the probability an infected member forwards to a
	// neighbor (probabilistic flooding).
	GossipProb float64
	// RepairRounds is the number of NACK-style local repair rounds: a
	// member missing the message pulls it from any neighbor that has it.
	RepairRounds int
	// AliveRatio is the nonfailed member ratio q.
	AliveRatio float64
	// Source initiates and never fails.
	Source int
}

// Validate checks the parameters.
func (p LRGParams) Validate() error {
	if err := checkGroup(p.N, p.Source); err != nil {
		return err
	}
	if p.Degree < 1 || p.Degree >= p.N {
		return fmt.Errorf("protocols: degree %d out of range", p.Degree)
	}
	if p.GossipProb < 0 || p.GossipProb > 1 || p.GossipProb != p.GossipProb {
		return fmt.Errorf("protocols: gossip probability %g outside [0,1]", p.GossipProb)
	}
	if p.RepairRounds < 0 {
		return fmt.Errorf("protocols: negative repair rounds %d", p.RepairRounds)
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Flooding

// FloodingParams configures the best-effort flooding baseline.
type FloodingParams struct {
	N          int
	AliveRatio float64
	Source     int
}

// Validate checks the parameters.
func (p FloodingParams) Validate() error {
	if err := checkGroup(p.N, p.Source); err != nil {
		return err
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	return nil
}
