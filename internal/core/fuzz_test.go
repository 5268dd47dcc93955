package core

import (
	"context"
	"testing"
	"testing/quick"

	"gossipkit/internal/dist"
	"gossipkit/internal/xrand"
)

// randomParams decodes arbitrary fuzz bytes into valid Params, exercising
// every distribution family, mask kind, and crash timing.
func randomParams(a, b, c, d uint16) Params {
	n := 2 + int(a%400)
	q := float64(b%101) / 100
	var fan dist.Distribution
	switch c % 6 {
	case 0:
		fan = dist.NewPoisson(float64(c%80) / 10)
	case 1:
		fan = dist.NewFixed(int(c % 8))
	case 2:
		fan = dist.NewGeometric(0.1 + float64(c%9)/10)
	case 3:
		fan = dist.NewUniformRange(0, int(c%10))
	case 4:
		fan = dist.NewZeroTruncated(dist.NewPoisson(0.5 + float64(c%12)/2))
	default:
		fan = dist.NewNegBinomial(1+int(c%3), 0.3+float64(c%6)/10)
	}
	p := Params{
		N:          n,
		Fanout:     fan,
		AliveRatio: q,
		Source:     int(d) % n,
	}
	if d%4 >= 2 {
		p.MaskKind = Bernoulli
	}
	return p
}

// TestFuzzExecuteInvariants checks that every valid configuration executes
// without panics and satisfies the structural invariants of a run.
func TestFuzzExecuteInvariants(t *testing.T) {
	r := xrand.New(fuzzSeed())
	f := func(a, b, c, d uint16) bool {
		p := randomParams(a, b, c, d)
		if err := p.Validate(); err != nil {
			t.Logf("unexpected invalid params: %v", err)
			return false
		}
		res, err := ExecuteOnce(p, r)
		if err != nil {
			t.Logf("execute error: %v", err)
			return false
		}
		switch {
		case res.AliveCount < 1 || res.AliveCount > p.N:
			t.Logf("alive %d of %d", res.AliveCount, p.N)
			return false
		case res.Delivered < 1 || res.Delivered > res.AliveCount:
			t.Logf("delivered %d of %d", res.Delivered, res.AliveCount)
			return false
		case res.Reliability < 0 || res.Reliability > 1:
			t.Logf("reliability %g", res.Reliability)
			return false
		case res.WastedOnFailed > res.MessagesSent:
			t.Logf("wasted %d > sent %d", res.WastedOnFailed, res.MessagesSent)
			return false
		case res.MessagesSent < res.Delivered-1:
			t.Logf("sent %d < delivered-1 %d", res.MessagesSent, res.Delivered-1)
			return false
		case res.Rounds < 0 || (res.Delivered > 1 && res.Rounds < 1):
			t.Logf("rounds %d with delivered %d", res.Rounds, res.Delivered)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestFuzzComponentInvariants does the same for the giant-component
// semantics, additionally checking consistency between the two metrics.
func TestFuzzComponentInvariants(t *testing.T) {
	r := xrand.New(fuzzSeed() + 1)
	f := func(a, b, c, d uint16) bool {
		p := randomParams(a, b, c, d)
		res, err := ComponentReliability(p, r)
		if err != nil {
			t.Logf("component error: %v", err)
			return false
		}
		switch {
		case res.GiantSize < 0 || res.GiantSize > res.AliveCount:
			t.Logf("giant %d of %d", res.GiantSize, res.AliveCount)
			return false
		case res.Reliability < 0 || res.Reliability > 1:
			return false
		case res.SourceReach < 1 || res.SourceReach > res.AliveCount:
			t.Logf("source reach %d of %d", res.SourceReach, res.AliveCount)
			return false
		case res.SourceInGiant && res.SourceReach < res.GiantSize:
			t.Logf("in-giant flag inconsistent: reach %d < giant %d", res.SourceReach, res.GiantSize)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestFuzzSuccessAccounting verifies the success protocol's histogram
// accounting for arbitrary small configurations.
func TestFuzzSuccessAccounting(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		p := SuccessParams{
			Params:       randomParams(a, b, c, d),
			Executions:   1 + int(a%6),
			Simulations:  1 + int(b%4),
			ResampleMask: d%8 >= 4,
		}
		out, err := RunSuccessCtx(context.Background(), p, uint64(c)+1, 0, nil)
		if err != nil {
			t.Logf("success error: %v", err)
			return false
		}
		if len(out.ReceiptHistogram.Counts()) != p.Executions+1 {
			return false
		}
		// Total member-observations is simulations × alive members of
		// each simulation; with exact masks that's deterministic.
		if p.MaskKind == ExactCount && !p.ResampleMask {
			alive := int64(p.Simulations) * int64(maxInt(1, int(float64(p.N)*p.AliveRatio)))
			if out.ReceiptHistogram.Total() != alive {
				t.Logf("histogram total %d, want %d", out.ReceiptHistogram.Total(), alive)
				return false
			}
		}
		if out.SuccessRate < 0 || out.SuccessRate > 1 {
			return false
		}
		if out.MeanExecutionReliability < 0 || out.MeanExecutionReliability > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fuzzSeed pins the fuzz RNG so failures reproduce.
func fuzzSeed() uint64 { return 0xF022 }
