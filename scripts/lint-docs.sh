#!/bin/sh
# lint-docs.sh — fail CI when a package lacks its doc comment, or the
# prose docs lose a load-bearing anchor, name a deleted identifier or point
# at a document that is not in the tree.
#
# Every internal/ package must carry a `// Package <name> ...` comment (by
# convention in doc.go, but any non-test .go file counts) stating its role,
# paper section if any, and determinism/alloc guarantees — see
# ARCHITECTURE.md. Every cmd/ binary must likewise open with a
# `// Command <name> ...` comment documenting its usage. This is a grep,
# not a linter dependency, so it runs anywhere a POSIX shell does.
set -eu
cd "$(dirname "$0")/.."

fail=0
for dir in internal/*/; do
    pkg=$(basename "$dir")
    if ! grep -qs "^// Package $pkg " "$dir"*.go; then
        echo "docs-lint: package $pkg lacks a package comment ('// Package $pkg ...' in $dir)" >&2
        fail=1
    fi
done
for dir in cmd/*/; do
    name=$(basename "$dir")
    if ! grep -qs "^// Command $name " "$dir"*.go; then
        echo "docs-lint: command $name lacks a command comment ('// Command $name ...' in $dir)" >&2
        fail=1
    fi
done
# ARCHITECTURE.md must keep the "Parallel kernel" section in sync with the
# one DES executor: the section heading plus its load-bearing anchors (the
# entry point, the shard-count resolver and block partition, the one run
# assembly every front end and shard count shares — its type, where it
# opens and where it closes — the two-level determinism contract and the
# goldens that pin its one-shard case). A rename in code without the
# matching doc update fails here.
for anchor in \
    "## Parallel kernel" \
    "ExecuteOnNetworkSharded" \
    "EffectiveShards" \
    "ShardBlocks" \
    "core.Run" \
    "Begin" \
    "Drive" \
    "Determinism contract" \
    "testdata/oracle.golden" \
    "LatencyFloorer"; do
    if ! grep -qs "$anchor" ARCHITECTURE.md; then
        echo "docs-lint: ARCHITECTURE.md lost its Parallel kernel anchor: '$anchor'" >&2
        fail=1
    fi
done
# Likewise the "Topology" section and its load-bearing anchors: the view
# seam, the replay split, the corrected prediction, and the WAN latency
# matrix. Renaming any of these in code without the doc update fails here.
for anchor in \
    "## Topology" \
    "SampleTargets" \
    "topology.Split" \
    "ComponentReliability" \
    "ZoneLatency"; do
    if ! grep -qs "$anchor" ARCHITECTURE.md; then
        echo "docs-lint: ARCHITECTURE.md lost its Topology anchor: '$anchor'" >&2
        fail=1
    fi
done
# Likewise the "Streaming workloads" section and its load-bearing anchors:
# the tag packing and its boxed-send fallback counter, the message-id cap,
# the lpbcast eviction policy, the conservation identity, the probe
# family, the batched-wire/summary-mode seams (the batch primitive, its
# entry counters, the slab-leak invariant, and the summary switch), and
# the golden that pins the one-shard runner.
# Renaming any of these in code without the doc update fails here.
for anchor in \
    "## Streaming workloads" \
    "MaxMessagesCap" \
    "BoxedSends" \
    "EvictLpbcast" \
    "Inserted = Evicted + Expired + Resident" \
    "StreamProbe" \
    "SendBatch" \
    "BatchEntries" \
    "SlabsInUse" \
    "SummaryOnly" \
    "testdata/runprobed.golden"; do
    if ! grep -qs "$anchor" ARCHITECTURE.md; then
        echo "docs-lint: ARCHITECTURE.md lost its Streaming workloads anchor: '$anchor'" >&2
        fail=1
    fi
done
# Likewise the "Calendar queue vs heap" section: the two tiers, the hint
# that sizes them and the executor-side correction, the run's own queue
# record, and the fuzz target that locks fire order to the heap.
for anchor in \
    "## Calendar queue vs heap" \
    "near ring" \
    "far ring" \
    "SetBoundedDelayHint" \
    "HintPending" \
    "QueueStats" \
    "FuzzCalendarVsHeap"; do
    if ! grep -qs "$anchor" ARCHITECTURE.md; then
        echo "docs-lint: ARCHITECTURE.md lost its Calendar queue anchor: '$anchor'" >&2
        fail=1
    fi
done
# Likewise the "Observability" section: the one instrument under both
# probes, the stream front end, the queue record both serve, and the one
# per-field sum of the fabric counters.
for anchor in \
    "## Observability" \
    "sampler" \
    "StreamProbe" \
    "Queues" \
    "Stats.Add"; do
    if ! grep -qs "$anchor" ARCHITECTURE.md; then
        echo "docs-lint: ARCHITECTURE.md lost its Observability anchor: '$anchor'" >&2
        fail=1
    fi
done
# Likewise the "Membership views" paragraph: the stamp array that answers
# the walk's membership question, the arena-carved rows and the rule that
# lets one spill, the one walk, the read-only sampler and the oracle that
# holds the random stream in place.
for anchor in \
    "### Membership views" \
    "holds" \
    "stamp" \
    "Carved rows" \
    "spill rule" \
    "joiner.walk" \
    "SampleTargets" \
    "TestPartialViewsMatchReference"; do
    if ! grep -qs "$anchor" ARCHITECTURE.md; then
        echo "docs-lint: ARCHITECTURE.md lost its Membership views anchor: '$anchor'" >&2
        fail=1
    fi
done
# Every upper-case *.md a Go file or a prose doc names must exist somewhere
# in the tree: comments used to send readers to a DESIGN and an EXPERIMENTS
# document that were never committed. CHANGES.md and ISSUE.md are exempt —
# the log and the work order name files in order to say they are gone.
md_scope="--include=*.go --include=*.md --exclude=CHANGES.md --exclude=ISSUE.md --exclude-dir=.git"
# shellcheck disable=SC2086 # one option per word
for name in $(grep -rhoE '[A-Z][A-Z0-9_-]*\.md' $md_scope . | sort -u); do
    if [ -z "$(find . -name "$name" -print -quit)" ]; then
        echo "docs-lint: '$name' is named but is not in the tree:" >&2
        grep -rnF "$name" $md_scope . >&2
        fail=1
    fi
done
# The pre-Engine facade functions, runpool.Progress,
# simnet.LatencyRecorder, the stream twin of the shard merge, the four
# histogram-shape probe options, the pieces the front ends hand-built
# their runs from before core.Run (RunState, the NetRun constructors, the
# Fabric interface, the stream's private shard split), the eight entry
# points that only forwarded to a surviving form (core's and scenario's
# non-Ctx twins, core.ExecuteOnNetwork, stream.Run), Params.drawMask and
# failure.BernoulliMask and membership's linear-scan integrate walk (the
# stamp-array joiner.walk replaced it; the pattern asks for the call's
# parenthesis to spare the English verb), the TCP node island (the node
# package, its wire codec and its daemon), the SIS/SIR package with the one
# function that imported it, the fanout families and round predictor no
# entry point reached, the adjacency-list graph's two unreached
# accessors (BFS.ReachableMask, Digraph.OutDegree), the scenario sweep and
# grid drivers and their configs that one axis product replaced (SweepCtx,
# SweepGridCtx, SweepConfig, GridConfig), Overlay.Zones, the six
# per-protocol baseline engines one Baseline engine replaced (Pbcast{...}
# through Flooding{...}; the pattern asks for the brace to spare the
# *Params types and the protocols' own names) and the seven wrappers only
# tests reached (core.ExecuteWithMask and TraceRounds, failure.ExactMask,
# graph.NewBFS, the package-level graph.LargestSCC and Filtered, and
# graph.DegreeSequence; MeanTraceRounds, Searcher.LargestSCC and
# Mask.FillExact survive them), and the separate Compare engine's file and
# the opening it shared with Campaign (engine_compare.go,
# validateCampaigns), the two options that said what WithSeed and
# RunMany say (WithRNG, WithRuns), the examples/ programs (Example
# functions with checked output replaced them), simnet's per-node
# Network.Register (the pattern asks for the parenthesis to spare
# RegisterAll and RegisterHandler), the environment variable the cmd/
# tests re-executed their binary with (they drive run in-process), the
# probe's series cap option (a constant now), the network-wide tracer
# field (a probe's ring is the one raw-event path), the crash-timing
# setting with its two constants and test helper (one fail-stop case), the
# goldens' %+v digest helper (internal/golden's field-wise rendering, render, replaced
# it, so no result struct is "%+v-digested" any more) and simnet's fixed
# sender/tag split (tagShift, tagLimit, packTags and the 128-tag band they
# set; each Network splits its event record by group size now) and its
# 8-byte tag-slot store (tagSlot, its second handler deliverTag and its
# free-chain head freeTag; an out-of-band tag parks in the one in-flight
# store now) and the stream's own eager and flood draws (forwardFanout,
# forwardAll; both forward through core.Forwarder now) are deleted;
# README and ARCHITECTURE must not describe them as if they existed. Where
# a surviving identifier contains the name (EstimateReliabilityCtx,
# ExecuteOnNetworkArena, drawMaskInto, ZoneLatency.Zones, ...) the pattern
# stops at the next letter or starts after the previous one.
for gone in \
    "deprecated\.go" \
    "SweepScenarios" \
    "SweepScenarioGrid" \
    "RunScenario" \
    "ExecuteOnNetworkReusing" \
    "MeasureReliability" \
    "MeasureGiantComponent" \
    "ScenarioSweepConfig" \
    "ScenarioGridConfig" \
    "runpool\.Progress" \
    "NewProgress" \
    "LatencyRecorder" \
    "MergeShardStreamMetrics" \
    "LatencyBinWidth" \
    "LatencyBins" \
    "HopBins" \
    "FanoutBins" \
    "RunState" \
    "NewNetRun" \
    "simnet\.Fabric" \
    "0x57ea17" \
    "EstimateReliability([^C]|$)" \
    "EstimateComponentReliability([^C]|$)" \
    "RunSuccess([^C]|$)" \
    "ExecuteOnNetwork([^A-Z]|$)" \
    "scenario\.(Sweep|SweepGrid|Compare)([^A-Za-z]|$)" \
    "stream\.Run([^A-Za-z]|$)" \
    "drawMask([^I]|$)" \
    "BernoulliMask" \
    "integrate\(" \
    "gossipnode" \
    "gossipd" \
    "internal/wire" \
    "internal/epidemic" \
    "LRGEpidemicFraction" \
    "PbcastPredictedRounds" \
    "NewPowerLaw" \
    "NewMixture" \
    "ReachableMask" \
    "OutDegree" \
    "(^|[^A-Za-z])SweepCtx" \
    "SweepGridCtx" \
    "(^|[^A-Za-z])SweepConfig" \
    "(^|[^A-Za-z])GridConfig" \
    "Overlay\.Zones([^A-Za-z]|$)" \
    "(^|[^A-Za-z])(Pbcast|Lpbcast|AntiEntropy|RDG|LRG|Flooding)\{" \
    "ExecuteWithMask" \
    "(^|[^A-Za-z])TraceRounds" \
    "ExactMask" \
    "NewBFS" \
    "graph\.LargestSCC" \
    "graph\.Filtered" \
    "DegreeSequence" \
    "validateCampaigns" \
    "engine_compare\.go" \
    "WithRNG" \
    "WithRuns" \
    "examples/" \
    "GOSSIPKIT_MAIN_ARGS" \
    "MaxSamples" \
    "\.Register\(" \
    "Config\.Tracer" \
    "BeforeReceive" \
    "AfterReceive" \
    "failure\.Timing" \
    "TimingEquivalent" \
    "AblationFiniteSize" \
    "ablation-finite-size" \
    "FiniteForwardReach" \
    "JointCriticalLoss" \
    "golden\.Digest" \
    "%\+v-digested" \
    "tagShift" \
    "tagLimit" \
    "packTags" \
    "tag ≥ 128" \
    "tagSlot" \
    "deliverTag" \
    "freeTag" \
    "8-byte tag slot" \
    "forwardFanout" \
    "forwardAll"; do
    if hits=$(grep -nE "$gone" README.md ARCHITECTURE.md); then
        echo "docs-lint: README/ARCHITECTURE mention the deleted '$gone':" >&2
        echo "$hits" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "docs-lint: add the missing package/command comments (doc.go preferred for packages) and drop mentions of deleted identifiers and absent documents" >&2
    exit 1
fi
echo "docs-lint: all internal packages and cmd binaries documented"
