#!/usr/bin/env bash
# Alternating parent/change pairs of the committed benchmark, and their
# verdict.
#
# Builds the parent and the change from their commits (`git archive`, each
# into its own directory and its own target directory) and runs the command
# of the change's committed BENCHMARK.json in each — `--workload W --seed S
# --seconds <run_seconds> --trace 0`, one process a run — as alternating
# pairs over the given seeds and workloads: pair i runs the parent first
# when i is odd, the change first when it is even. Every run keeps the
# end-to-end metrics of its last output line, its `correct` / `attempted` /
# `failed`, the host's steal ticks over the run (`/proc/stat`) and the run's
# CPU / wall ratio (children's rusage).
#
# It prints, per workload and end-to-end metric, median [q1, q3] a side
# (inclusive quartiles), the pairs the change won, and the verdict under
# both rules:
#
#   bound  no end-to-end median worse than the parent's by more than its
#          bound, no larger share of failed operations, and no parent spread
#          (IQR / median) wider than the bound unless every run of the
#          change beats every run of the parent — else `worse` or
#          `unresolved`;
#   gain   (with --claim WORKLOAD:METRIC) the change better in at least 9 of
#          10 pairs (ties count for neither), its median better by more than
#          the parent's IQR, and no larger share of failed operations — else
#          `unresolved`.
#
# and writes one BENCH_history.jsonl record (the raw `pairs`, the `runs`,
# the `verdict`; `pr` and `title` are left null for the author) to --record
# or stdout. It reads crates/bench/src/bin/licom_bench/ and BENCHMARK.json
# and never edits them; it appends nothing to BENCH_history.jsonl.
#
#   scripts/pairs.sh --seeds 1101-1110 [--workloads a,b] [--parent REV]
#                    [--change REV] [--claim W:METRIC] [--seconds N]
#                    [--work DIR] [--record FILE]
#   scripts/pairs.sh --verdict RECORD.json [--claim W:METRIC]
#
# --parent defaults to the change's first parent, --change to HEAD,
# --workloads to every workload of BENCHMARK.json, --work to a temporary
# directory. --verdict runs the verdict step alone on a record's raw
# `pairs` (a file holding one JSON record, or `-` for the last line of
# BENCH_history.jsonl); a workload key `name (note)` counts as `name`.
set -euo pipefail
cd "$(dirname "$0")/.."

parent="" change=HEAD seeds="" workloads="" claim="" seconds="" work="" record="" verdict=""
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent=$2; shift 2 ;;
        --change) change=$2; shift 2 ;;
        --seeds) seeds=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --claim) claim=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --work) work=$2; shift 2 ;;
        --record) record=$2; shift 2 ;;
        --verdict) verdict=$2; shift 2 ;;
        *) echo "pairs: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ -n "$verdict" ]; then
    if [ "$verdict" = - ]; then
        verdict=$(mktemp)
        tail -n 1 BENCH_history.jsonl >"$verdict"
    fi
    exec python3 scripts/pairs_stats.py verdict "$verdict" "$claim"
fi

[ -n "$seeds" ] || { echo "pairs: --seeds is required (e.g. 1101-1110)" >&2; exit 2; }
change=$(git rev-parse --short "$change")
parent=$(git rev-parse --short "${parent:-$change^}")
work=${work:-$(mktemp -d)}
mkdir -p "$work"

for side in parent change; do
    rev=${!side}
    rm -rf "${work:?}/$side"
    mkdir -p "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "pairs: building $side ($rev) in $work/$side" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" cargo build --release --quiet \
        --offline --manifest-path crates/bench/src/bin/licom_bench/Cargo.toml)
done

exec python3 scripts/pairs_stats.py run "$work" "$parent" "$change" "$seeds" "$workloads" \
    "$claim" "$seconds" "$record"
