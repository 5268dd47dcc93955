// Package scenario is a declarative fault-injection engine for the gossip
// simulator: a Scenario scripts a time-varying fault campaign — crash
// waves, correlated zone failures, partitions that heal, churn bursts,
// bursty loss episodes, flash-crowd multi-publish — as timestamped Actions
// applied to a running discrete-event execution through the inject hook of
// core.ExecuteOnNetworkSharded.
//
// The paper models fault tolerance with a single static nonfailed ratio q
// per execution; scenarios stress-test that model with richer fault
// processes and quantify where the static-q prediction (Eq. 11) breaks.
// Scenarios are expressible both through the Go builder API
//
//	s := scenario.New("crash-wave", "three 10% crash waves").
//		At(5*time.Millisecond, scenario.CrashFraction(0.1)).
//		At(10*time.Millisecond, scenario.CrashFraction(0.1))
//
// and as a JSON spec (see Scenario's JSON encoding), so campaigns can be
// versioned and shared without recompiling. A run is a pure function of
// (params, scenario, seed): repeated runs with the same seed are
// byte-identical.
//
// Every sweep is one axis product (Axes): topology × protocol × scenario ×
// q × fanout × replication, an empty axis standing for the run's own value.
// Axes.Sweep builds the cells in that order, derives each replication's seed
// from its (scenario, [q, fanout], replication) indices alone, replicates
// on runpool.Replicate and reduces in cell order, so output is
// byte-identical for any worker count. The plain sweep, the (scenario × q ×
// fanout) grid and the (protocol × scenario [× topology]) comparison are
// views of that one Product (SweepResult, GridResult, CompareResult) that
// share one CSV writer. Each worker recycles one core.NetArena, so after
// its first run a worker executes campaigns with zero O(n)-sized
// allocations per run.
package scenario
