#!/usr/bin/env bash
# Regenerate the unified trace + metrics reports (results/BENCH_*.json).
#
# Each figure below runs its experiment with event tracing on
# and writes a self-describing JSON document: {bench, backend, metrics,
# traceEvents}, where `metrics` is the RunStats summary (makespan,
# overlap, bytes fetched vs direct, stall time, makespan skew) and
# `traceEvents` is a Chrome/Perfetto trace derived from the same
# recorded events. Load any report's traceEvents in ui.perfetto.dev.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p srumma-bench --bins

for fig in fig03_pipeline fig07_overlap fig08_get_bandwidth; do
    echo "== $fig =="
    cargo run --release -q -p srumma-bench --bin reproduce -- "$fig" >/dev/null
done

# Local kernel throughput (naive vs scalar vs dispatched SIMD) — the
# compute half of the overlap story; diffable with scripts/bench_diff.
echo "== bench_dense_gemm =="
cargo run --release -q -p srumma-bench --bin bench_dense_gemm >/dev/null

echo
echo "reports:"
ls -l results/BENCH_*.json
