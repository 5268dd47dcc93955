package protocols

import "fmt"

// RDGParams configures the Route-Driven-Gossip-style baseline (Luo,
// Eugster & Hubaux, the paper's reference [8]): a "pure gossip" protocol
// in which data, negative acknowledgments, and membership all travel by
// gossip over partial views. Our simulation keeps its two signature
// mechanisms — push gossip of fresh packets over partial views, and
// NACK-driven pull recovery in later rounds — in a synchronous-round
// model.
type RDGParams struct {
	// N is the group size.
	N int
	// Fanout is the per-round push fanout.
	Fanout int
	// PushRounds is the number of proactive gossip rounds.
	PushRounds int
	// RecoveryRounds is the number of NACK/pull rounds after the push
	// phase: members that know a packet id but miss its payload pull
	// from a random view member.
	RecoveryRounds int
	// AliveRatio is the nonfailed member ratio q.
	AliveRatio float64
	// Source publishes the packet and never fails.
	Source int
	// ViewCopies is the SCAMP parameter c for the partial views.
	ViewCopies int
	// PayloadProb is the probability a push message has room for the
	// payload (RDG's per-message buffer limit); pushes without room carry
	// only the packet-id digest. 0 means 1.0 (always include).
	PayloadProb float64
}

// Validate checks the parameters.
func (p RDGParams) Validate() error {
	if err := checkGroup(p.N, p.Source); err != nil {
		return err
	}
	if p.Fanout < 1 {
		return fmt.Errorf("protocols: fanout %d < 1", p.Fanout)
	}
	if p.PushRounds < 1 {
		return fmt.Errorf("protocols: push rounds %d < 1", p.PushRounds)
	}
	if p.RecoveryRounds < 0 {
		return fmt.Errorf("protocols: negative recovery rounds %d", p.RecoveryRounds)
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	if err := checkViewCopies(p.ViewCopies, p.N); err != nil {
		return err
	}
	if p.PayloadProb < 0 || p.PayloadProb > 1 || p.PayloadProb != p.PayloadProb {
		return fmt.Errorf("protocols: payload probability %g outside [0,1]", p.PayloadProb)
	}
	return nil
}

// RDGResult extends Result with recovery accounting.
type RDGResult struct {
	Result
	// DeliveredByPush counts members satisfied during the push phase.
	DeliveredByPush int
	// DeliveredByPull counts members recovered via NACK pulls.
	DeliveredByPull int
	// AwareMisses is the number of members that learned the packet id
	// (via digests) but never obtained the payload.
	AwareMisses int
}
