#!/usr/bin/env bash
# Reproduces everything: build, full test suite, every experiment E1..E21.
# Outputs land in test_output.txt and bench_output.txt at the repo root,
# plus one machine-readable BENCH_<exp>.json per benchmark binary (google
# benchmark's JSON reporter; the human console report is unaffected).
#
# Fail-fast discipline: results are written to *.partial files and only
# renamed into place after the producing step succeeds, so an aborted run can
# never leave a truncated file that looks like a complete result.
set -euo pipefail
cd "$(dirname "$0")/.."

on_error() {
  echo "reproduce.sh: FAILED at line $1 — partial outputs left as *.partial" >&2
}
trap 'on_error $LINENO' ERR

# Release explicitly: the bench binaries refuse --benchmark_out from any
# other build type (BENCH_*.json timings must be comparable across runs).
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt.partial
mv test_output.txt.partial test_output.txt

# Each benchmark binary must succeed; a crashing or aborted experiment kills
# the run instead of silently truncating bench_output.txt. Every binary also
# writes its registered-benchmark results (counters included) to
# BENCH_<exp>.json via --benchmark_out, e.g. bench_e15_tree_ablation ->
# BENCH_e15.json, under the same .partial-then-rename discipline.
: > bench_output.txt.partial
for b in build/bench/bench_*; do
  # The glob also matches stray non-binaries (CMake artifacts, *.json output
  # from a previous in-tree run) and stays literal when nothing matches —
  # only run regular executable files.
  [ -f "$b" ] && [ -x "$b" ] || continue
  exp="$(basename "$b" | sed -E 's/^bench_(e[0-9]+).*/\1/')"
  json="BENCH_${exp}.json"
  echo "== $b ==" | tee -a bench_output.txt.partial
  "$b" --benchmark_out="${json}.partial" --benchmark_out_format=json \
    2>&1 | tee -a bench_output.txt.partial
  mv "${json}.partial" "$json"
done
mv bench_output.txt.partial bench_output.txt

# Regression gates: each fresh run must not regress the committed
# baseline's deterministic counters or its pinned within-file time ratios
# (machine-portable; see scripts/compare_bench.py --help for the classes).
# E18: sweep totals (trees enumerated, scheduler chunk) are deterministic;
# steals/fresh_gs_runs are scheduling-dependent and not gated.
python3 scripts/compare_bench.py \
  --baseline bench/baselines/BENCH_E18.json --fresh BENCH_e18.json \
  --exact-counter trees --exact-counter chunk
# E19: exact proposal counters plus rounds/queue schedule ratios.
python3 scripts/compare_bench.py \
  --baseline bench/baselines/BENCH_E19.json --fresh BENCH_e19.json \
  --ratio bm_gs_rounds_narrow bm_gs_queue_narrow \
  --ratio bm_gs_rounds_wide bm_gs_queue_wide
# E20: warm must stay cheaper than cold by the frozen-scenario counters.
python3 scripts/compare_bench.py \
  --baseline bench/baselines/BENCH_E20.json --fresh BENCH_e20.json \
  --exact-counter warm_proposals --exact-counter cold_proposals
# E21: implicit-backend proposals are deterministic (the explicit twin
# solves the materialized same instances, so its counters match row for
# row), and the implicit/explicit queue ratio pins the generator overhead.
python3 scripts/compare_bench.py \
  --baseline bench/baselines/BENCH_E21.json --fresh BENCH_e21.json \
  --ratio bm_implicit_queue bm_explicit_queue \
  --ratio bm_implicit_rounds bm_implicit_queue

echo "reproduce.sh: all experiments completed"
