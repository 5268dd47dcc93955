package experiment

import (
	"fmt"
	"math"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/runpool"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/stream"
)

// StreamRoundInterval (S3, ROADMAP carry-over) measures how streaming
// reliability degrades as the gossip round interval shrinks below the
// network's latency bound. Round-driven disciplines assume a round's
// messages land before the next tick; when the interval undercuts the
// latency bound the active window (ActiveRounds × interval) closes
// before the spread completes and messages expire half-propagated. The
// sweep runs at three offered loads — below, near, and above the
// saturation knee for the bundled buffer size — so the interaction with
// eviction pressure is visible: under load a too-short interval both
// truncates the window and wastes sends on entries already evicted.
func StreamRoundInterval(cfg Config) (*Figure, error) {
	const (
		n       = 128
		fanout  = 3
		bufCap  = 16
		latLo   = time.Millisecond
		latHi   = 5 * time.Millisecond // the latency bound the x-axis is scaled by
		window  = 300 * time.Millisecond
		actives = 8
	)
	f := &Figure{
		ID:     "stream-round-interval",
		Title:  "Streaming reliability vs round interval / latency bound (n=128, push, cap=16)",
		XLabel: "round interval / latency bound",
		YLabel: "mean per-message reliability",
	}
	rates := []struct {
		rate float64
		name string
	}{
		{200, "rate 200 msg/s (below knee)"},
		{800, "rate 800 msg/s (near knee)"},
		{2400, "rate 2400 msg/s (above knee)"},
	}
	ratios := []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0}
	runs := cfg.runs(10, 3)
	for ri, load := range rates {
		rate := load.rate
		s := Series{Name: load.name}
		var short, atBound stats.Running
		for ii, ratio := range ratios {
			interval := time.Duration(ratio * float64(latHi))
			streamCfg := stream.Config{
				N: n, Rate: rate, Duration: window,
				Fanout: dist.NewFixed(fanout), BufferCap: bufCap,
				Discipline: stream.DisciplinePush, Eviction: stream.EvictAge,
				ActiveRounds: actives, RoundInterval: interval,
			}
			netCfg := simnet.Config{Latency: simnet.UniformLatency{Lo: latLo, Hi: latHi}}
			var acc stats.Running
			err := runpool.Replicate(cfg.ctx(), runs, 0, stream.NewArena,
				func(rI int, arena *stream.Arena) (stream.Result, error) {
					return stream.RunProbed(streamCfg, netCfg, cfg.stream(f.ID, ri, ii, rI), nil, arena, nil)
				}, func(_ int, res stream.Result) {
					acc.Add(res.MeanReliability)
				})
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, ratio)
			s.Y = append(s.Y, acc.Mean())
			switch ratio {
			case ratios[0]:
				short = acc
			case 1.0:
				atBound = acc
			}
		}
		f.Series = append(f.Series, s)
		// An interval below the latency bound closes the active window
		// before the spread completes.
		f.claim(Claim{ID: fmt.Sprintf("rate %.0f: ratio %.1f below ratio 1", rate, ratios[0]), Source: "S3",
			Measured: short.Mean(), SE: short.StdErr(), Rel: "<", Model: atBound.Mean(), Against: "reliability at the bound",
			Tol: 3 * math.Hypot(short.StdErr(), atBound.StdErr()), TolSource: tolSE})
	}
	return f, nil
}
