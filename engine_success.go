package gossipkit

import (
	"context"
	"fmt"

	"gossipkit/internal/core"
)

// SuccessSim summarizes one simulation of the success protocol.
type SuccessSim = core.SuccessSim

// Success is the engine for the repeated-execution success protocol
// S(q, P, t) (paper §5.2): the source gossips the same message t times and
// the protocol succeeds when every nonfailed member received it at least
// once.
//
// A single Run executes Params.Simulations independent simulations as the
// spec declares; RunMany(n) overrides the simulation count with n. Either
// way one Report is emitted per simulation (Detail: SuccessSim) and
// Outcome.Aggregate is the SuccessOutcome.
type Success struct {
	// Params configures the protocol (model params, Executions t,
	// Simulations).
	Params SuccessParams
}

// Name implements Engine.
func (Success) Name() string { return "success" }

// params is the spec's SuccessParams with RunMany's simulation count.
func (s Success) params(o *runOptions) SuccessParams {
	p := s.Params
	if o.many {
		p.Simulations = o.runs
	}
	return p
}

func (s Success) validate(o *runOptions) error {
	if err := s.params(o).Validate(); err != nil {
		return invalid(err)
	}
	if !o.topology.IsUniform() {
		return fmt.Errorf("%w: the success protocol runs on the uniform model; use MonteCarlo or Network with WithTopology for overlay reliability", ErrInvalidParams)
	}
	return nil
}

func (s Success) run(ctx context.Context, o *runOptions, emit func(Report)) (any, error) {
	p := s.params(o)
	out, err := core.RunSuccessCtx(ctx, p, o.seed, o.workers, func(sim int, ss SuccessSim) {
		emit(Report{Reliability: ss.MeanReliability, Detail: ss})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
