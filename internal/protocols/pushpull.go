package protocols

import "fmt"

// Mode selects the anti-entropy exchange direction (Demers et al., the
// paper's reference [2]).
type Mode int

const (
	// Push: the caller infects the callee if the caller is infected.
	Push Mode = iota
	// Pull: the caller gets infected if the callee is infected.
	Pull
	// PushPull: both directions in one exchange.
	PushPull
)

func (m Mode) String() string {
	switch m {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case PushPull:
		return "push-pull"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// AntiEntropyParams configures the classic anti-entropy epidemic: in each
// round, every alive member contacts one uniformly random other member and
// exchanges state per Mode.
type AntiEntropyParams struct {
	// N is the group size.
	N int
	// Rounds is the number of rounds to run; 0 runs until every alive
	// member is infected or the run has been idle for aePatience rounds.
	Rounds int
	// Mode is the exchange direction.
	Mode Mode
	// AliveRatio is the nonfailed member ratio q.
	AliveRatio float64
	// Source starts infected and never fails.
	Source int
}

// Validate checks the parameters.
func (p AntiEntropyParams) Validate() error {
	if err := checkGroup(p.N, p.Source); err != nil {
		return err
	}
	if p.Rounds < 0 {
		return fmt.Errorf("protocols: negative rounds %d", p.Rounds)
	}
	switch p.Mode {
	case Push, Pull, PushPull:
	default:
		return fmt.Errorf("protocols: unknown mode %v", p.Mode)
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	return nil
}

// AntiEntropyResult extends Result with the per-round infection curve.
type AntiEntropyResult struct {
	Result
	// InfectedPerRound[r] is the cumulative infected alive count after
	// round r (index 0 = before any round).
	InfectedPerRound []int
}
