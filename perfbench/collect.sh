#!/usr/bin/env bash
# Runs one workload once per seed and keeps each run's standard output,
# the input of the compare tool.
#
#   bash perfbench/collect.sh <out-dir> <seconds> <trace 0|1> <workload> <seed>...
#
# Run it from the root of the checkout.
set -euo pipefail
out=$1 seconds=$2 trace=$3 workload=$4
shift 4
mkdir -p "$out"
for seed in "$@"; do
  bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    > "$out/$workload-seed$seed-trace$trace.out"
done
