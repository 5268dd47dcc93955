// Protocol comparison: run the same fault campaigns against the paper's
// algorithm and the related-work baselines on one discrete-event
// substrate, through one gossipkit.Campaign with a protocol axis.
//
// The paper's claim is comparative — single-shot gossip buys most of the
// reliability of the heavyweight protocols at a fraction of the message
// cost. Here every protocol faces byte-identical campaign randomness (the
// same crash victims at the same instants): a mid-spread crash wave, and a
// partition that never heals on its own but is rescued by a conditional
// "when the spread stalls" trigger.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gossipkit"
)

func main() {
	ctx := context.Background()
	const n = 500

	// Two campaigns. The second never heals its partition on a timer:
	// a stall trigger watches delivery and fires the heal (plus a
	// re-gossip wave) only once the spread has made no progress for 30ms
	// of simulated time — the same trigger works on every protocol row.
	crashWave, _ := gossipkit.ScenarioByName("crash-wave")
	rescue := gossipkit.NewScenario("stall-rescue",
		"partition from t=0, healed by a stall trigger plus re-gossip").
		At(0, gossipkit.PartitionRange(0.5, 1.0)).
		OnStall(30*time.Millisecond, gossipkit.HealPartition()).
		OnStall(30*time.Millisecond, gossipkit.Regossip(10))

	spec := gossipkit.Campaign{
		Scenarios: []*gossipkit.Scenario{crashWave, rescue},
		Paper:     true, // the paper's algorithm, labeled "paper"
		Protocols: []gossipkit.ProtocolSpec{
			gossipkit.PbcastParams{N: n, Fanout: 4, Rounds: 12, AliveRatio: 1},
			gossipkit.AntiEntropyParams{N: n, Rounds: 12, Mode: gossipkit.PushPull, AliveRatio: 1},
			gossipkit.LRGParams{N: n, Degree: 7, GossipProb: 0.8, RepairRounds: 6, AliveRatio: 1},
			gossipkit.FloodingParams{N: n, AliveRatio: 1},
		},
		Config: gossipkit.ScenarioRunConfig{
			Params:            gossipkit.Params{N: n, Fanout: gossipkit.Poisson(5), AliveRatio: 1},
			PartialViewCopies: 2,
		},
	}

	// 5 seeds per (protocol, scenario) cell; deterministic for any
	// worker count.
	out, err := gossipkit.RunMany(ctx, spec, 5, gossipkit.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	grid := out.Aggregate.(*gossipkit.ScenarioCompareResult)
	fmt.Print(grid.Table())

	// The trade the grid measures: survivor reliability bought per
	// message. Flooding is the Θ(n²) upper envelope; the paper's
	// single-shot algorithm sits near the baselines' reliability at a
	// fraction of their cost.
	fmt.Println("\nmessages per survivor served (crash-wave):")
	for pi, proto := range grid.Protocols {
		cell := grid.Cells[pi*len(grid.Scenarios)] // crash-wave is scenario 0
		fmt.Printf("  %-14s %8.1f msgs  (survivor reliability %.3f)\n",
			proto, cell.MeanMessages/(cell.SurvivorReliability.Mean*cell.MeanUpAtEnd+1),
			cell.SurvivorReliability.Mean)
	}
}
