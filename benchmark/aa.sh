#!/usr/bin/env bash
# A/A check: run the full ledger twice on the same commit and compare.
#
#   benchmark/aa.sh [SEED] [WORKLOAD]
#
# Prints, for every workload x metric, both values, how much worse the
# second is as a share of the first, and the metric's bound. Exits
# non-zero if any gated pair is worse by more than its bound or any
# exact metric (simulated times, byte and transfer counts, ops) is not
# bit-identical. A failure here means the ledger is too noisy on this
# host to judge a change; see README.md, "When A/A fails".
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-1}"
only=()
if [ "$#" -ge 2 ]; then only=(--workload "$2"); fi

ledger() {
    cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

for side in a b; do
    echo "== A/A run $side (seed $seed)" >&2
    ledger --seed "$seed" "${only[@]}" --out "$here/out/aa_$side" > /dev/null
done
ledger --compare "$here/out/aa_a" "$here/out/aa_b"
