package gossipkit

import (
	"context"
	"math"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/genfunc"
)

// These integration tests wire several subsystems together through the
// public facade, checking cross-module invariants that no single package's
// unit tests can see.

func TestIntegrationModelVsSimulationAcrossDistributions(t *testing.T) {
	// For every fanout family the giant out-component simulation must
	// match the forward-spread predictor (mean-only), the correct model
	// for directed gossip (ablation A1).
	const n, q = 3000, 0.85
	for _, d := range []Distribution{
		Poisson(4),
		FixedFanout(4),
		GeometricFanout(0.2),      // mean 4
		NegBinomialFanout(4, 0.5), // mean 4, var 8
		AtLeastOnce(Poisson(3.5)), // mean ~3.6
		UniformFanout(2, 6),       // mean 4
	} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			p := Params{N: n, Fanout: d, AliveRatio: q}
			out, err := RunMany(context.Background(), MonteCarlo{Params: p}, 25, WithSeed(99))
			if err != nil {
				t.Fatal(err)
			}
			est := out.Aggregate.(ComponentEstimate)
			want, err := genfunc.ForwardReach(d.Mean(), q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est.Mean-want) > 0.03 {
				t.Errorf("%s: sim %.4f vs forward model %.4f", d.Name(), est.Mean, want)
			}
		})
	}
}

func TestIntegrationOneShotDeliveryMatchesOutbreakModel(t *testing.T) {
	// Directed one-shot delivery = outbreak probability × coverage, with
	// the shape dependence carried entirely by the outbreak factor.
	const n, q = 3000, 0.9
	for _, d := range []Distribution{Poisson(4), FixedFanout(4)} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			p := Params{N: n, Fanout: d, AliveRatio: q}
			out, err := RunMany(context.Background(), MonteCarlo{Params: p, Metric: SourceReach}, 300, WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			est := out.Aggregate.(Estimate)
			want, err := genfunc.ExpectedOneShotReach(d, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est.Mean-want) > 0.025 {
				t.Errorf("%s: one-shot %.4f vs model %.4f", d.Name(), est.Mean, want)
			}
		})
	}
}

func TestIntegrationNetworkLossMatchesBondPercolation(t *testing.T) {
	// Network executions with Bernoulli loss vs the joint site+bond model:
	// the mean one-shot delivery tracks S(z(1−loss), q)².
	const n, z, q, loss = 1500, 5.0, 0.9, 0.3
	p := Params{N: n, Fanout: Poisson(z), AliveRatio: q}
	out, err := RunMany(context.Background(), Network{Params: p, Net: NetConfig{Loss: BernoulliLoss(loss)}}, 40)
	if err != nil {
		t.Fatal(err)
	}
	s, err := genfunc.JointReliability(dist.NewPoisson(z), q, loss)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Reliability.Mean; math.Abs(got-s*s) > 0.04 {
		t.Errorf("lossy delivery %.4f vs thinned S² %.4f", got, s*s)
	}
}

func TestIntegrationLatencyDoesNotChangeReach(t *testing.T) {
	// Latency reorders deliveries but must not change what is reachable:
	// a member's fanout, targets and loss draws are keyed by the member,
	// its delays by a stream of their own, so each seed reaches the same
	// members with the same messages with and without latency.
	p := Params{N: 800, Fanout: Poisson(4), AliveRatio: 0.9}
	net := NetConfig{Loss: BernoulliLoss(0.1)}
	zero, err := RunMany(context.Background(), Network{Params: p, Net: net}, 25, WithSeed(5000))
	if err != nil {
		t.Fatal(err)
	}
	net.Latency = UniformLatency(time.Millisecond, 40*time.Millisecond)
	lat, err := RunMany(context.Background(), Network{Params: p, Net: net}, 25, WithSeed(5000))
	if err != nil {
		t.Fatal(err)
	}
	reach := func(r Report) [9]int64 {
		d := r.Detail.(NetResult)
		return [9]int64{int64(d.AliveCount), int64(d.Delivered), int64(d.MessagesSent), int64(d.WastedOnFailed),
			int64(d.Duplicates), d.Net.Sent, d.Net.Delivered, d.Net.DroppedLoss, d.Net.DroppedCrash}
	}
	for i := range zero.Reports {
		if z, l := reach(zero.Reports[i]), reach(lat.Reports[i]); z != l {
			t.Errorf("run %d: latency changed reach: %v vs %v", i, l, z)
		}
	}
}

func TestIntegrationDesignLoopClosesEndToEnd(t *testing.T) {
	// The design workflow of ExampleExecutionsForSuccess: pick z from a
	// target via Eq. 12, then verify by simulation that the target holds.
	const target, q = 0.99, 0.75
	z, err := FanoutForReliability(target, q)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: 3000, Fanout: Poisson(z), AliveRatio: q}
	mc, err := RunMany(context.Background(), MonteCarlo{Params: p}, 30, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	est := mc.Aggregate.(ComponentEstimate)
	if math.Abs(est.Mean-target) > 0.01 {
		t.Errorf("designed for %.3f, measured %.4f (z=%.3f)", target, est.Mean, z)
	}
	// And the success protocol achieves its own target with the t from
	// Eq. 6.
	tmin, err := ExecutionsForSuccess(p, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Success{Params: SuccessParams{
		Params:      p,
		Executions:  tmin,
		Simulations: 30,
	}}, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	missFrac := out.Aggregate.(SuccessOutcome).ReceiptHistogram.Freq(0)
	// Eq. 6 guarantees per-member miss prob <= 0.001 under the model's
	// idealized p_r; the empirical p_r is lower (die-out), so allow an
	// order of magnitude.
	if missFrac > 0.01 {
		t.Errorf("per-member miss fraction %.4f after t=%d executions", missFrac, tmin)
	}
}

func TestIntegrationCoreRecurrenceAndAnalyticPlateauAgree(t *testing.T) {
	// The round-recurrence plateau and the percolation model's S must
	// land on the same coverage for a supercritical setting.
	const n, z, q = 5000, 5.0, 0.9
	cum, err := core.RecurrenceModel(n, z, q, 60)
	if err != nil {
		t.Fatal(err)
	}
	plateau := cum[len(cum)-1] / (float64(n) * q)
	s, err := genfunc.PoissonReliability(z, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plateau-s) > 0.02 {
		t.Errorf("recurrence plateau %.4f vs percolation S %.4f", plateau, s)
	}
}
