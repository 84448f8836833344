#!/usr/bin/env bash
# Tier-1 verification, plus optional sanitizer passes.
#
#   tools/check.sh            # configure + build + ctest (the tier-1 gate)
#   tools/check.sh --asan     # same, in a separate build dir with
#                             # -fsanitize=address,undefined
#   tools/check.sh --tsan     # ThreadSanitizer over the concurrency tests
#                             # (thread pool, parallel_for and the parallel
#                             # SpMV kernels, corpus collection at every
#                             # thread count, logger + sharded metrics,
#                             # concurrent arenas, MLP and
#                             # per-format perf-model fits, feature
#                             # extraction, the online-learning loop)
#   tools/check.sh --simd-off # full suite with -DSPMVML_FORCE_SCALAR=ON:
#                             # the SIMD tiers compiled out, every kernel on
#                             # the scalar reference — the differential
#                             # tests and the bench's bitwise assertions
#                             # must hold there too
#   tools/check.sh --chaos    # chaos smoke under asan: the scripted
#                             # fault-burst bench plus the chaos/breaker/
#                             # robustness/drain tests, with every injected
#                             # fault path running under the sanitizer
#
# Each pass uses its own build directory and leaves ./build alone.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

run_suite() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

if [[ "${1:-}" == "--asan" ]]; then
  echo "== sanitizer pass (address;undefined) =="
  run_suite build-asan "-DSPMVML_SANITIZE=address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
elif [[ "${1:-}" == "--tsan" ]]; then
  echo "== thread sanitizer pass (concurrency tests) =="
  cmake -B build-tsan -S . -DSPMVML_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'ThreadPool|ParallelCollector|LabelCollector|FaultyCollection|Checkpoint|Parallel\.|Obs|Serve|Ingest|Arena|Differential|Chaos|Breaker|Drain|Learn|Replay|Drift|Sell|ParallelSpmv|Mlp|PerfModel|Features'
elif [[ "${1:-}" == "--chaos" ]]; then
  echo "== chaos smoke (asan; scripted fault bursts + robustness tests) =="
  cmake -B build-chaos -S . "-DSPMVML_SANITIZE=address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-chaos -j "$jobs"
  ctest --test-dir build-chaos --output-on-failure -j "$jobs" \
    -R 'Chaos|Breaker|Drain'
  ./build-chaos/bench/serving_bench --chaos --smoke \
    --out build-chaos/BENCH_robustness.json
elif [[ "${1:-}" == "--simd-off" ]]; then
  echo "== scalar-fallback pass (SIMD tiers compiled out) =="
  run_suite build-simd-off -DSPMVML_FORCE_SCALAR=ON
  ./build-simd-off/bench/spmv_kernels --smoke --out build-simd-off/BENCH_spmv.json
else
  echo "== tier-1 verify =="
  # Latency and deadline math must use the monotonic clock; system_clock
  # jumps on NTP sync and breaks both (audited clean — keep it that way).
  if grep -rn 'system_clock' src bench tools examples --include='*.cpp' \
      --include='*.hpp'; then
    echo "error: std::chrono::system_clock found; use steady_clock" >&2
    exit 1
  fi
  run_suite build
  echo "== sidecar self-test (binary CSR round-trip, bitwise) =="
  ./build/tools/spmvml sidecar --self-test
  echo "== serving smoke (BENCH_serving.json schema + contract check) =="
  ./build/bench/serving_bench --smoke --out build/BENCH_serving.json
  echo "== spmv smoke (BENCH_spmv.json bitwise contract check) =="
  ./build/bench/spmv_kernels --smoke --out build/BENCH_spmv.json
fi

echo "OK"
