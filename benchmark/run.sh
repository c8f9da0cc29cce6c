#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out PATH]
#       every workload, untraced (end-to-end metrics) and traced
#       (per-layer table), each in its own process; the results are
#       merged into PATH (default benchmark/results/latest.json).
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [...]
#       one run of one workload; the form BENCHMARK.json's command takes.
#       The last line of standard output is the result as one JSON object.
#
#   benchmark/run.sh compare A.json B.json | merge OUT IN... | --smoke
#       passed through to the perf binary.
#
# The binary is built from source on every call (a no-op when nothing
# changed) into $CARGO_TARGET_DIR, by default .bench_build at the
# repository root. Everything the benchmark writes stays inside the
# repository: .bench_build, .bench_data (removed when a run ends) and
# the --out file.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/perf/Cargo.toml >&2
perf="$CARGO_TARGET_DIR/release/perf"

case "${1:-}" in
compare | merge | --smoke | --workload) exec "$perf" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then exec "$perf" "$@"; fi
done

seed=1
seconds=16
out=benchmark/results/latest.json
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --out) out="$2" ;;
    *)
        echo "run.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift 2
done

parts=".bench_data/all-$$"
mkdir -p "$parts"
trap 'rm -rf "$parts"; rmdir .bench_data 2>/dev/null || true' EXIT
n=0
for workload in counter_sat counter_wal_sat counter_open bfs_andrew; do
    for trace in 0 1; do
        n=$((n + 1))
        "$perf" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$parts/$n-$workload-$trace.json" | grep -v '^{'
    done
done
"$perf" merge "$out" "$parts"/*.json
echo "wrote $out"
