#!/bin/sh
# Run two full sets (untraced + traced pass, every workload) of the SAME
# build and compare them with the benchmark's own bounds: the check that
# the ledger repeats before anyone uses it to judge a change. Each set
# times every workload for the benchmark's default run length, which is
# the `run_seconds` of BENCHMARK.json — what an automated driver asks for.
#
#   benchmark/repeat.sh [SEED]      (default seed 1)
#
# Exits non-zero if any (workload, end-to-end metric) pair differs by
# more than its bound, or any sim_digest or exact-count metric differs.
# Results land in benchmark/results/ (git-ignored).
set -eu

seed="${1:-1}"
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."

cargo build --release --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/fancy-benchmark"

out="benchmark/results"
mkdir -p "$out"
for set in A B; do
    "$bin" --seed "$seed" --trace \
        --out "$out/seed$seed-$set.result.json" \
        --trace-out "$out/seed$seed-$set.spans.json" \
        > "$out/seed$seed-$set.txt"
done
"$bin" --compare "$out/seed$seed-A.result.json" "$out/seed$seed-B.result.json"
