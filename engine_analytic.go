package gossipkit

import (
	"context"
	"fmt"

	"gossipkit/internal/core"
)

// Analytic is the engine for the paper's generalized-random-graph model:
// it evaluates Eq. 11's reliability R(q, P) and the critical ratio q_c
// without any simulation. The run is deterministic and seed-free; under
// RunMany it emits one identical Report per replication so analytic
// predictions slot into the same observer pipelines as simulations.
//
// Outcome.Aggregate is the Prediction; each Report.Detail carries it too.
type Analytic struct {
	// Params is the gossip model Gossip(n, P, q) to evaluate.
	Params Params
}

// Name implements Engine.
func (Analytic) Name() string { return "analytic" }

func (s Analytic) validate(o *runOptions) error {
	if !o.topology.IsUniform() {
		return fmt.Errorf("%w: Eq. 11 assumes uniform target selection; use MonteCarlo with WithTopology for overlay reliability", ErrInvalidParams)
	}
	if err := s.Params.Validate(); err != nil {
		return invalid(err)
	}
	return nil
}

func (s Analytic) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	pred, err := core.Predict(s.Params)
	if err != nil {
		return nil, invalid(err)
	}
	for i := 0; i < o.runs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		emit(Report{Reliability: pred.Reliability, Detail: pred})
	}
	return pred, nil
}
