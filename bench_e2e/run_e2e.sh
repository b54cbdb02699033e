#!/usr/bin/env bash
# Runs every bench_e2e workload SETS times, each run in its own process (so peak
# memory belongs to one workload), and appends each run's full record (samples,
# quartiles, oracle values, environment) to OUT.
#
#   bench_e2e/run_e2e.sh [SETS] [OUT] [FIRST_SEED] [SECONDS]
#
# Defaults: 1 set, bench_e2e-runs.json, seed 1, 10 s per run. Set i uses seed
# FIRST_SEED + i - 1. Builds a Release bench_e2e on first use (see run.py).
set -euo pipefail

sets=${1:-1}
out=$(realpath -m "${2:-bench_e2e-runs.json}")
first_seed=${3:-1}
seconds=${4:-10}

cd "$(dirname "$0")/.."
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for ((i = 0; i < sets; i++)); do
  seed=$((first_seed + i))
  for workload in $workloads; do
    echo "[run_e2e] set $((i + 1))/$sets: $workload, seed $seed" >&2
    python3 bench_e2e/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace 0 --json "$out" > /dev/null
  done
done
echo "[run_e2e] wrote $out" >&2
