#!/bin/sh
# lint-api.sh — fail CI when code outside internal/protocols treats the
# legacy round loops as an execution path.
#
# One gate, two greps (no linter dependency, runs anywhere a POSIX shell
# does). The legacy synchronous round loops (protocols.RunPbcast,
# RunLpbcast, RunAntiEntropy, RunRDG, RunLRG, RunFlooding) are the
# equivalence ORACLE for the DES protocol runtime and nothing else:
#
#   - cmd/, examples/ and internal/experiment must not call them;
#     experiments run baselines through protocols.RunOnDES, binaries and
#     examples through the engine specs (Pbcast, ..., Flooding, Compare),
#     which run on the sim kernel + simnet substrate.
#   - cmd/ and examples/ must not import internal/protocols at all — the
#     facade specs are the only supported protocol surface. (Other internal
#     imports — the sim/simnet substrate the node demos build on — stay
#     allowed.)
set -eu
cd "$(dirname "$0")/.."

legacy_loops='RunPbcast|RunLpbcast|RunAntiEntropy|RunRDG|RunLRG|RunFlooding'

for dir in cmd examples internal/experiment; do
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

scan "($legacy_loops)\(" \
    "legacy round-loop entry points referenced" \
    "the pure round loops are the DES runtime's equivalence oracle; use the engine specs (gossipkit.Pbcast, ..., gossipkit.Compare) or protocols.RunOnDES" \
    cmd examples internal/experiment
scan "\"gossipkit/internal/protocols\"" \
    "internal/protocols imported" \
    "reach the baselines through the facade engine specs (gossipkit.Pbcast, ..., gossipkit.Compare)" \
    cmd examples

echo "api-lint: cmd/, examples/ and internal/experiment are clean (no legacy round loops; no protocols imports in cmd/ or examples/)"
