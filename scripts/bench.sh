#!/bin/sh
# bench.sh — run the core benchmark set with fixed parameters and emit
# a BENCH_N.json trajectory record (name -> ns/op, allocs/op, B/op,
# custom metrics, plus a "host" stamp: CPU model, core count,
# GOMAXPROCS, Go version, and a scaling_valid flag). Run it on a quiet
# multi-core machine and commit the refreshed record when a PR claims a
# performance change, so future PRs inherit a baseline (see
# docs/PERFORMANCE.md).
#
# Usage:
#   sh scripts/bench.sh            # full run (fixed -benchtime/-count), writes $BENCH_OUT
#   sh scripts/bench.sh --check    # CI smoke: short run, verifies the bench set still
#                                  # runs and still covers every benchmark recorded in
#                                  # the newest committed BENCH_*.json; writes nothing
#
# Environment:
#   BENCH_OUT         output file for the full run (default BENCH_13.json)
#   BENCH_PARENT      a record of the parent commit made by this script on
#                     the same machine just before; embedded as "parent"
#                     for a before/after pair from one machine
#   BENCH_ALLOW_1CPU  set to 1 to run anyway on a single-core machine;
#                     the record is then stamped scaling_valid=false
set -eu
cd "$(dirname "$0")/.."

# The core set: the explicit-state hot path (serial + sharded frontier),
# batch-runner throughput, and the SAT hot path (propagation-bound
# probing, conflict-heavy UNSAT, and the incremental-vs-oneshot sweep).
BENCHES='BenchmarkExploreSerial$|BenchmarkParallelExplore$|BenchmarkRunnerSweep$|BenchmarkSATPropagation$|BenchmarkSolvePigeonhole$|BenchmarkIncrementalSweep|BenchmarkOutOfCoreExplore|BenchmarkCoverageFuzz$'

# The newest committed record is the bench-rot baseline.
baseline=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)

if [ "${1:-}" = "--check" ]; then
    out=$(go test -run '^$' -bench "$BENCHES" -benchmem -benchtime 100ms -count 1 .)
    echo "$out"
    json=$(echo "$out" | go run ./scripts/benchjson)
    # Bench-rot gate: every benchmark recorded in the committed baseline
    # must still exist (subbenches included).
    echo "$json" >/tmp/bench_check.json
    missing=0
    if [ -n "$baseline" ]; then
        for name in $(go run ./scripts/benchnames <"$baseline"); do
            if ! grep -q "\"$name\"" /tmp/bench_check.json; then
                echo "bench.sh: benchmark $name is in $baseline but no longer runs" >&2
                missing=1
            fi
        done
    fi
    exit $missing
fi

# Parallel benches on one core measure scheduling overhead, not
# scaling: refuse unless the caller explicitly opts into a record that
# will be stamped scaling_valid=false.
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
if [ "$cores" -le 1 ]; then
    if [ "${BENCH_ALLOW_1CPU:-}" != "1" ]; then
        echo "bench.sh: only $cores CPU core online — parallel benches would not measure scaling." >&2
        echo "bench.sh: set BENCH_ALLOW_1CPU=1 to record anyway (stamped scaling_valid=false)." >&2
        exit 1
    fi
    echo "bench.sh: WARNING: single-core run; record will carry scaling_valid=false" >&2
fi

out_file="${BENCH_OUT:-BENCH_13.json}"
# Fixed parameters: -benchtime 2x amortizes per-run setup without
# letting a noisy sample dominate; -count 3 lets benchjson keep the
# fastest (least-interfered) sample.
go test -run '^$' -bench "$BENCHES" -benchmem -benchtime 2x -count 3 . |
    tee /dev/stderr |
    go run ./scripts/benchjson ${BENCH_PARENT:+-parent "$BENCH_PARENT"} >"$out_file"
echo "wrote $out_file"
