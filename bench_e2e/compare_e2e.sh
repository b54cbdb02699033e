#!/usr/bin/env bash
# Measures two source trees (say, a parent commit and a change) in alternating
# pairs and compares them with `bench_e2e --compare`:
#
#   bench_e2e/compare_e2e.sh PARENT_TREE CHANGE_TREE [PAIRS] [SECONDS]
#
# Pair i runs every workload with seed i on both trees; odd pairs run the parent
# first, even pairs the change first. Each tree builds and runs its own bench_e2e
# (in its own .bench_build), so both sides see identical benchmark settings only
# when their bench_e2e/ directories match. Defaults: 10 pairs (the fewest the gain
# rule accepts), 10 s per run. Exits 1 when a metric regressed past its bound.
set -euo pipefail

parent=$(realpath "$1")
change=$(realpath "$2")
pairs=${3:-10}
seconds=${4:-10}
unset CARGO_TARGET_DIR

out_dir="$change/.bench_build/compare"
mkdir -p "$out_dir"
rm -f "$out_dir/parent.json" "$out_dir/change.json"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then order="$parent $change"; else order="$change $parent"; fi
  for tree in $order; do
    side=parent
    [[ $tree == "$change" ]] && side=change
    (cd "$tree" && bench_e2e/run_e2e.sh 1 "$out_dir/$side.json" "$i" "$seconds")
  done
done

cd "$change"
python3 bench_e2e/run.py --compare "$out_dir/parent.json" "$out_dir/change.json"
echo "[compare_e2e] runs kept in $out_dir" >&2
