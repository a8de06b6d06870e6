#!/usr/bin/env bash
# The benchmark's one command. Builds this package (the library from ../src
# plus the edp_bench harness) in Release into benchmark/build, then:
#
#   run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       Runs one workload in one process. Every metric is printed as
#       `workload metric value unit`; the last line is the JSON result
#       (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
#
#   run.sh [--seed N] [--seconds S] [--out FILE]
#       Runs every workload, each in its own process (so each has its own
#       peak RSS) and each with its traced repetition, and appends one full
#       record per workload to FILE (default:
#       benchmark/build/results-seed<N>.jsonl) for compare.py.
#
# Defaults: seed 42 (7 is the held-out seed), 10 seconds of timed
# repetitions per workload. Exits nonzero if the build or any correctness
# check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
workloads=(storm_seq storm_4shard linerate_fused linerate_naive)

workload=""
seed=42
seconds=10
trace=0
out=""
while [ $# -gt 0 ]; do
  if [ $# -lt 2 ]; then
    echo "run.sh: $1 needs a value" >&2
    exit 2
  fi
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    --out) out=$2 ;;
    *)
      echo "usage: run.sh [--workload NAME] [--seed N] [--seconds S]" \
        "[--trace 0|1] [--out FILE]" >&2
      exit 2
      ;;
  esac
  shift 2
done

# Build quietly; the log is shown only when the build fails.
mkdir -p "$build"
generator=()
if [ ! -f "$build/CMakeCache.txt" ] && command -v ninja > /dev/null; then
  generator=(-G Ninja)
fi
jobs="$(nproc 2> /dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then
  jobs=4
fi
if ! { cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} &&
  cmake --build "$build" -j "$jobs"; } > "$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi
bench="$build/edp_bench"

if [ -n "$workload" ]; then
  exec "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace"
fi

out="${out:-$build/results-seed$seed.jsonl}"
status=0
for w in "${workloads[@]}"; do
  "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
    --record "$out" || status=1
done
echo "records appended to $out"
exit "$status"
