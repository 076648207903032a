#!/usr/bin/env bash
# Concurrency-correctness driver: format + tidy + sanitizer builds.
#
# Usage:
#   tools/check.sh                 # run everything available on this machine
#   tools/check.sh format          # clang-format check (no rewrite)
#   tools/check.sh zilint          # project-specific lints (tools/zilint)
#   tools/check.sh tidy            # clang-tidy over src/ (needs clang-tidy)
#   tools/check.sh build           # plain build + full ctest, ZI_WERROR=ON
#   tools/check.sh sched           # transfer-scheduler suites only (fast loop)
#   tools/check.sh transport       # Communicator transport suites (inproc+proc)
#   tools/check.sh straggler       # straggler detection/rebalance suites
#   tools/check.sh serve           # streamed-execution + serving suites
#   tools/check.sh kernels         # numeric kernels vs their scalar oracles
#   tools/check.sh bench           # zi_bench smoke run (CI's zi-bench-smoke)
#   tools/check.sh tsan            # ZI_SANITIZE=thread build + concurrency tests
#   tools/check.sh asan            # ZI_SANITIZE=address build + full ctest
#   tools/check.sh ubsan           # ZI_SANITIZE=undefined build + full ctest
#
# Steps whose tool is missing (e.g. clang-tidy on a GCC-only box) are
# skipped with a notice, not failed: the CI lint job provides the
# authoritative clang run. Build trees land in build-check-<mode>/.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
FAILED=0

note()  { printf '\n==> %s\n' "$*"; }
skip()  { printf '==> SKIP: %s\n' "$*"; }

have() { command -v "$1" >/dev/null 2>&1; }

sources() {
  # zilint_fixtures hold deliberately-violating code; they are zilint's test
  # data, not part of the style surface.
  find src tests bench examples \
    \( -path 'tests/zilint_fixtures' -prune \) -o \
    \( -name '*.cpp' -o -name '*.hpp' \) -print | sort
}

run_format() {
  if ! have clang-format; then
    skip "clang-format not installed"
    return 0
  fi
  note "clang-format (check only)"
  # shellcheck disable=SC2046
  if ! clang-format --dry-run --Werror $(sources); then
    echo "clang-format: style violations found (run: clang-format -i <files>)"
    FAILED=1
  fi
}

run_tidy() {
  if ! have clang-tidy; then
    skip "clang-tidy not installed"
    return 0
  fi
  note "clang-tidy (checks from .clang-tidy)"
  local build="build-check-tidy"
  cmake -B "$build" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  if have run-clang-tidy; then
    run-clang-tidy -p "$build" -quiet "^$ROOT/src/.*" || FAILED=1
  else
    # shellcheck disable=SC2046
    clang-tidy -p "$build" --quiet $(find src -name '*.cpp' | sort) || FAILED=1
  fi
}

run_zilint() {
  note "zilint (project-specific static analysis)"
  local build="build-check-zilint"
  cmake -B "$build" -S . >/dev/null
  cmake --build "$build" -j "$JOBS" --target zilint >/dev/null
  # Findings print as file:line: rule: message.
  "$build/tools/zilint/zilint" --root "$ROOT" || FAILED=1
}

# Tight loop for scheduler work: build the two data-movement suites and run
# them alone. Shares the plain build tree so a follow-up `build` is warm.
run_sched() {
  local build="build-check-plain"
  note "sched (test_move_sched + test_data_mover)"
  cmake -B "$build" -S . -DZI_WERROR=ON >/dev/null
  cmake --build "$build" -j "$JOBS" --target test_move_sched test_data_mover
  (cd "$build" && ctest --output-on-failure -j "$JOBS" \
    -R 'move_sched|data_mover') || FAILED=1
}

# Tight loop for transport work: the conformance suite over both backends
# plus the comm suites, on a plain build (the proc backend forks, so its
# tests skip themselves under TSan — this is the loop that actually runs
# them). Shares the plain build tree so a follow-up `build` is warm.
run_transport() {
  local build="build-check-plain"
  note "transport (test_transport + test_comm + test_comm_failure)"
  cmake -B "$build" -S . -DZI_WERROR=ON >/dev/null
  cmake --build "$build" -j "$JOBS" \
    --target test_transport test_comm test_comm_failure
  (cd "$build" && ctest --output-on-failure -j "$JOBS" -L transport) \
    || FAILED=1
}

# Tight loop for straggler-rebalance work: detection, weighted
# partitioning, and elastic-rebalance suites on a plain build. Shares the
# plain build tree so a follow-up `build` is warm.
run_straggler() {
  local build="build-check-plain"
  note "straggler (test_straggler + test_elastic + test_transport)"
  cmake -B "$build" -S . -DZI_WERROR=ON >/dev/null
  cmake --build "$build" -j "$JOBS" \
    --target test_straggler test_elastic test_transport
  (cd "$build" && ctest --output-on-failure -j "$JOBS" -L straggler) \
    || FAILED=1
}

# Tight loop for serving work: the streamed-execution split, KV-cache
# DataMover routes, continuous-batching engine, and the eval-interleave
# regression on a plain build. Shares the plain build tree so a follow-up
# `build` is warm.
run_serve() {
  local build="build-check-plain"
  note "serve (test_kv_routes + test_stream_engine + test_serve_engine + test_eval_interleave)"
  cmake -B "$build" -S . -DZI_WERROR=ON >/dev/null
  cmake --build "$build" -j "$JOBS" \
    --target test_kv_routes test_stream_engine test_serve_engine \
    test_eval_interleave
  (cd "$build" && ctest --output-on-failure -j "$JOBS" -L serve) \
    || FAILED=1
}

# Tight loop for kernel work: the GEMM, fp16 conversion and fused Adam
# suites, which compare the kernels bit for bit against scalar oracles, on a
# plain build. Shares the plain build tree so a follow-up `build` is warm.
run_kernels() {
  local build="build-check-plain"
  note "kernels (test_ops + test_half + test_half_exhaustive + test_optim)"
  cmake -B "$build" -S . -DZI_WERROR=ON >/dev/null
  cmake --build "$build" -j "$JOBS" \
    --target test_ops test_half test_half_exhaustive test_optim
  (cd "$build" && ctest --output-on-failure -j "$JOBS" -L kernels) \
    || FAILED=1
  # The tier this host picks (common/kernel_tier.hpp). The suites above run
  # it and, through the test seam, the SSE2 tier.
  "$build/tests/test_half" --gtest_filter='KernelTier.PickedTierMatchesTheCpu' |
    sed -n 's/^kernel tier: /==> kernel tier picked on this host: /p' ||
    FAILED=1
}

# The repository benchmark's smoke run, the command CI's zi-bench-smoke job
# runs: builds zi_bench into .bench_build/ and runs every workload briefly,
# failing on a correctness gate, a missing metric or a dropped trace event.
# Then prints where the pace probe's code landed: zi_bench's core pace reads
# about 1.6x slow when CorePace::probe_ms sits at 32 mod 64, so a layout
# shift between two builds shows next to their paced numbers.
run_bench() {
  note "bench (python3 zi_bench/run.py --smoke)"
  python3 zi_bench/run.py --smoke || FAILED=1
  local bin=".bench_build/zi_bench/zi_bench"
  if ! have nm; then
    skip "probe address: nm not installed"
    return 0
  fi
  local addr
  addr="$(nm -C "$bin" 2>/dev/null |
    awk '/CorePace::probe_ms/ && !a {a = $1} END {print a}')" || addr=""
  if [ -z "$addr" ]; then
    skip "probe address: CorePace::probe_ms not found in $bin"
    return 0
  fi
  printf '==> CorePace::probe_ms at 0x%s (mod 64 = %d)\n' \
    "${addr#"${addr%%[!0]*}"}" "$(( 16#$addr % 64 ))"
}

# $1: mode name, $2: ZI_SANITIZE value ('' = off), $3: ctest label ('' = all)
run_build() {
  local mode="$1" sanitize="$2" label="$3"
  local build="build-check-$mode"
  note "build ($mode${sanitize:+, ZI_SANITIZE=$sanitize})"
  cmake -B "$build" -S . -DZI_WERROR=ON \
    ${sanitize:+-DZI_SANITIZE=$sanitize} >/dev/null
  cmake --build "$build" -j "$JOBS"
  (cd "$build" && ctest --output-on-failure -j "$JOBS" ${label:+-L $label}) \
    || FAILED=1
}

ALL=(format zilint tidy build tsan asan ubsan)
STEPS=("${@:-}")
[ -z "${STEPS[0]:-}" ] && STEPS=("${ALL[@]}")

for step in "${STEPS[@]}"; do
  case "$step" in
    format) run_format ;;
    zilint) run_zilint ;;
    tidy)   run_tidy ;;
    build)  run_build plain "" "" ;;
    sched)  run_sched ;;
    transport) run_transport ;;
    straggler) run_straggler ;;
    serve)  run_serve ;;
    kernels) run_kernels ;;
    bench)  run_bench ;;
    # TSan: the concurrency-labeled subset (comm / aio / thread pool /
    # scheduler / stress), with its deadlock detector as the lock-order
    # check — the full suite under TSan takes too long for a pre-commit
    # loop; CI runs the same subset.
    tsan)   run_build tsan thread concurrency ;;
    asan)   run_build asan address "" ;;
    ubsan)  run_build ubsan undefined "" ;;
    *) echo "unknown step: $step (known: ${ALL[*]} sched transport straggler serve kernels bench)"; exit 2 ;;
  esac
done

if [ "$FAILED" -ne 0 ]; then
  note "FAILED — see output above"
  exit 1
fi
note "all requested checks passed"
