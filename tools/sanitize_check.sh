#!/usr/bin/env bash
# Builds the whole tree under ASan+UBSan (the asan-ubsan CMake preset) and
# runs the full test suite plus the same smoke drives CI uses: the perf
# harness and the arena comparison in --smoke mode (the arena output checked
# against its committed reference) and a short rebalance scenario.  Any
# sanitizer report fails the run (halt_on_error, plus exitcode-on-UB).
#
# Usage: tools/sanitize_check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:abort_on_error=0"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"

# Full tier-1 suite (includes the chaos/property tests and bench_smoke).
ctest --preset asan-ubsan "$@"

# Smoke-drive the CLI surfaces the way bench_smoke drives the harness:
# short, deterministic runs that push real traffic through the transport,
# shuffler, and aggregation layers under instrumentation.
./build-asan/bench/perf_core --smoke --out=build-asan/BENCH_core_asan.json
./build-asan/tools/vbundle_sim rebalance --duration 600 --seed 7 >/dev/null
./build-asan/tools/vbundle_sim sipp --duration 200 --seed 7 >/dev/null

# The arena campaigns (v-Bundle, tree packer with its slot cache,
# competitive gate) under instrumentation, pinned against the committed
# smoke reference.  ctest's bench_arena_smoke/schema do the same, but extra
# ctest args (e.g. -L tier1) can filter them out; this step always runs.
./build-asan/bench/arena_compare --smoke --threads=2 \
  --out=build-asan/BENCH_arena_asan.json
python3 tools/check_bench.py \
  build-asan/BENCH_arena_asan.json bench/BENCH_arena.smoke.ref.json

# Observability end-to-end under the sanitizers: chaos scenario with the
# trace recorder attached, schema-validating its own exports.
./build-asan/tools/trace_smoke \
  --trace=build-asan/trace_smoke_asan.trace.json \
  --metrics=build-asan/trace_smoke_asan.metrics.csv

echo "sanitize_check: ASan+UBSan clean"
