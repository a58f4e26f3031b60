#!/usr/bin/env bash
# Regenerate every table and figure of the SRUMMA paper.
#
# Outputs: paper-style tables on stdout, archived text + CSV under
# results/. Everything is deterministic — two runs produce identical
# numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p srumma-bench --bin calibrate --bin reproduce

FIGURES=(
    fig03_pipeline
    fig04_diagshift
    fig05_direct_vs_copy
    fig06_bandwidth_x1
    fig07_overlap
    fig08_get_bandwidth
    fig09_zerocopy
    fig10_srumma_vs_pdgemm
    table1_best_cases
    eq_model_check
    ablation_taskorder
    ablation_buffers
    ablation_summa_bcast
    sensitivity          # beyond-paper: network-speed sweep
    memory_footprint     # paper's memory-efficiency claim
    degradation          # beyond-paper: one straggler, SRUMMA vs SUMMA
    hierarchy            # beyond-paper: node-group staging at 1k-64k ranks
)

mkdir -p results
echo "=== calibrate ==="    # anchor check against DESIGN.md §6
./target/release/calibrate | tee results/calibrate.txt
for fig in "${FIGURES[@]}"; do
    echo "=== $fig ==="
    ./target/release/reproduce "$fig" | tee "results/$fig.txt"
done

echo
echo "All experiment outputs written to results/."
