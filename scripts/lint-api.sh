#!/bin/sh
# lint-api.sh — fail CI when a binary or an example reaches past the
# facade for a baseline protocol, when a DES front end assembles its own
# sharded run, when a sweep goes to the worker pool directly, when a
# campaign grid is run under the comparison's bench-pinned names, or when a
# package under internal/ is one nothing ships.
#
# Five greps (no linter dependency, runs anywhere a POSIX shell does):
#
#   - cmd/ and examples/ must not import internal/protocols — the facade
#     engine specs (Baseline, Compare) are the only supported
#     protocol surface. (Other internal imports — the sim/simnet substrate
#     the node demos build on — stay allowed.)
#   - outside internal/sim, internal/simnet and internal/core/run.go, no
#     non-test file builds a shard group, sizes or resets the sharded
#     fabric, or hands its Flush/Buffered to a group: a run is leased,
#     laid out, driven and closed by core.Run (NetArena.Begin ... Drive),
#     and a fourth front end gets its run there, not from a fourth copy.
#   - outside internal/runpool, no non-test file calls runpool.Run,
#     runpool.RunOrdered or runpool.Count: "run N seeded replications on
#     per-worker state, reduced in run order" is runpool.Replicate, and a
#     new sweep gets its workers there, not from another hand-kept table
#     indexed by worker id. (bench/ is its own tree — it replays the pool
#     itself to time it — and is not scanned.)
#   - outside internal/scenario and bench/, no non-test file names
#     scenario.CompareCtx or scenario.CompareConfig: every campaign grid —
#     sweep, (q × fanout) grid, comparison — is one scenario.Axes product
#     run by Axes.Sweep, and those two names survive only because
#     bench/ladder.go pins them.
#   - every directory under internal/ is imported by at least one non-test
#     file outside itself (the facade, a binary, an example, the bench or
#     another package): a package only its own files and tests reach is an
#     island — internal/gossipnode, internal/wire and internal/epidemic
#     were three — and is deleted, not kept. internal/golden, the digest
#     helper the golden tests share, is the one named exemption.
set -eu
cd "$(dirname "$0")/.."

for dir in cmd examples; do
    if [ ! -d "$dir" ]; then
        echo "api-lint: directory $dir/ not found; the gate has nothing to scan" >&2
        exit 2
    fi
done

# scan PATTERN LABEL HINT DIR... — grep exits 0 on match, 1 on no match,
# >=2 on error. Only 1 means clean; a hard error (unreadable tree, bad
# pattern) must fail the gate, not pass it.
scan() {
    pattern=$1 label=$2 hint=$3
    shift 3
    rc=0
    hits=$(grep -rnE "$pattern" "$@") || rc=$?
    case $rc in
    0)
        echo "api-lint: $label:" >&2
        echo "$hits" >&2
        echo "api-lint: $hint" >&2
        exit 1
        ;;
    1) ;;
    *)
        echo "api-lint: grep failed with exit status $rc" >&2
        exit "$rc"
        ;;
    esac
}

scan "\"gossipkit/internal/protocols\"" \
    "internal/protocols imported" \
    "reach the baselines through the facade engine specs (gossipkit.Baseline, gossipkit.Compare)" \
    cmd examples

# find, not grep --exclude: the one exempt file is named by path, and
# stream/run.go must stay in the scan.
assembly_files=$(find . -name '*.go' ! -name '*_test.go' \
    ! -path './internal/sim/*' ! -path './internal/simnet/*' ! -path './internal/core/run.go')
# shellcheck disable=SC2086 # one word per file: the tree has no spaces in paths
scan 'NewShardGroup\(|\.Prepare\(|\.ResetShard\(|\.(Flush|Buffered)[,)]' \
    "sharded-run assembly outside internal/core/run.go" \
    "get the run from core.NetArena.Begin and drive it with Run.Drive" \
    $assembly_files

# shellcheck disable=SC2046 # as above
scan 'runpool\.(Run|RunOrdered|Count)[[(]' \
    "worker pool used directly outside internal/runpool" \
    "run the sweep on runpool.Replicate: it owns the worker count, the per-worker state and the run-ordered reduction" \
    $(find . -name '*.go' ! -name '*_test.go' ! -path './internal/runpool/*' ! -path './bench/*')

# shellcheck disable=SC2046 # as above
scan 'scenario\.Compare(Ctx|Config)([^A-Za-z0-9_]|$)' \
    "the comparison grid's bench-pinned names used outside internal/scenario" \
    "build a scenario.Axes (Executors, Topologies, ...) and run it with Axes.Sweep" \
    $(find . -name '*.go' ! -name '*_test.go' ! -path './internal/scenario/*' ! -path './bench/*')

for dir in internal/*/; do
    pkg=$(basename "$dir")
    [ "$pkg" = golden ] && continue
    rc=0
    # shellcheck disable=SC2046 # as above
    grep -qF "\"gossipkit/internal/$pkg\"" \
        $(find . -name '*.go' ! -name '*_test.go' ! -path "./internal/$pkg/*") || rc=$?
    case $rc in
    0) ;;
    1)
        echo "api-lint: internal/$pkg is imported by no non-test file outside itself" >&2
        echo "api-lint: give it a caller an entry point reaches, or delete it with its tests" >&2
        exit 1
        ;;
    *)
        echo "api-lint: grep failed with exit status $rc" >&2
        exit "$rc"
        ;;
    esac
done

echo "api-lint: cmd/ and examples/ are clean (no internal/protocols imports); one run assembly (internal/core/run.go); one replication driver (runpool.Replicate); one scenario grid (scenario.Axes); no internal/ package is an island"
