#!/usr/bin/env bash
# CI-style verification: configure with strict warnings, build everything,
# run all test suites from a clean build tree, build perfbench, then
# re-run the threading tests under ThreadSanitizer and every suite under
# ASan+UBSan. Exits nonzero on the first failure.
#
# Every ctest name must be unique (`ctest -N` lists none twice), so a
# failure report names one test and `ctest -R` selects only it.
#
# -Wall -Wextra -Werror is applied to currency targets only (see
# CURRENCY_STRICT_WARNINGS in the top-level CMakeLists), so dead-store
# bugs like an unused conflict-analysis counter fail the build here
# without holding third-party code to the same bar.
#
# The TSan pass (CURRENCY_TSAN, a separate build tree) rebuilds only the
# test suites that exercise the parallel exec layer and runs the ones
# that matter — exec_test (thread-pool semantics),
# parallel_equivalence_test (CPS/COP/DCIP/CCQA across thread counts),
# oracle_invariants_test (the one-shot engine against the monolithic
# reference and the brute-force oracle),
# session_equivalence_test (the serving layer's shared-pool batches),
# concurrent_session_test (reader batches racing a mutator across epoch
# snapshots, multi-region pool sharing, SessionManager admission),
# chase_routing_equivalence_test (chase-routed answers against the
# forced-SAT reference, tests/support/forced_sat.h, including the
# per-component fixpoint slots confined to pool tasks),
# sat_metamorphic_test (arena compaction inside pooled session tasks),
# wal_recovery_test (the durable commit path: concurrent reader
# batches racing logged Mutates, where log_mu_ linearizes apply+append
# against the snapshot-isolated readers), and obs_test (lock-free
# counter/gauge/histogram updates racing get-or-create and exposition)
# — so data races in the decomposed solvers fail CI even on hardware
# where they never misbehave.
#
# The ASan+UBSan pass (CURRENCY_ASAN, a third build tree, without
# benchmarks or examples) builds every test suite and runs all of them
# through ctest, so every equivalence suite runs under both sanitizers
# and no suite can be left off a hand-kept list: a successor engine takes
# over its predecessor's encoders AND chase fixpoints, the engine hands
# borrowed pools/encoders across threads, the SAT core's garbage
# collector relocates every clause and rewrites watcher/reason references
# in place, the grounding backtracker walks tuple bindings, and the
# wire/WAL parsers walk length-prefixed frames of truncated and
# bit-flipped buffers — exactly the lifetime and bounds traffic the
# sanitizers are built to police.  (WAL tests write their log directories
# under the build tree's cwd — wal_test_dirs/, gitignored.)
#
# The perfbench step configures perfbench's own CMake project
# (perfbench/CMakeLists.txt, Release, over the library sources in src/)
# into ${build_dir}-perfbench, builds perfbench_e2e (≈1 min from clean on
# 4 vCPUs) and runs it for 2 s on each workload.  A run's last line must
# report "correct": true and "failed": 0, so the served path's sampled
# answer oracle and its recovery check gate every CI run, and a library
# change that breaks the end-to-end benchmark fails here rather than at
# its next benchmark run.
#
# Usage: scripts/check.sh [build-dir]    (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build}"

cd "$repo_root"
rm -rf "$build_dir"
cmake -B "$build_dir" -S . -DCURRENCY_STRICT_WARNINGS=ON
cmake --build "$build_dir" -j "$(nproc)"
(cd "$build_dir" && ctest --output-on-failure -j "$(nproc)")
duplicates="$(cd "$build_dir" && ctest -N |
  sed -n 's/^ *Test *#[0-9]*: //p' | sort | uniq -d)"
if [ -n "$duplicates" ]; then
  echo "check: ctest registers these names more than once:" >&2
  echo "$duplicates" >&2
  exit 1
fi

perfbench_dir="${build_dir}-perfbench"
rm -rf "$perfbench_dir"
cmake -S perfbench -B "$perfbench_dir" -DCMAKE_BUILD_TYPE=Release
cmake --build "$perfbench_dir" -j "$(nproc)" --target perfbench_e2e
for workload in audit_mix giant_component; do
  report="$("$perfbench_dir/perfbench_e2e" --workload="$workload" --seed=1 \
    --seconds=2 --trace=0 --work-dir="$perfbench_dir/work" | tail -n 1)"
  case "$report" in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *)
      echo "check: perfbench_e2e --workload=$workload failed: $report" >&2
      exit 1
      ;;
  esac
done

tsan_dir="${build_dir}-tsan"
rm -rf "$tsan_dir"
cmake -B "$tsan_dir" -S . \
  -DCURRENCY_TSAN=ON \
  -DCURRENCY_BUILD_BENCHMARKS=OFF \
  -DCURRENCY_BUILD_EXAMPLES=OFF
cmake --build "$tsan_dir" -j "$(nproc)" \
  --target exec_test obs_test parallel_equivalence_test \
           oracle_invariants_test serve_test \
           session_equivalence_test concurrent_session_test \
           chase_routing_equivalence_test sat_metamorphic_test \
           wire_test wal_recovery_test
"$tsan_dir/tests/exec_test"
"$tsan_dir/tests/obs_test"
"$tsan_dir/tests/parallel_equivalence_test"
"$tsan_dir/tests/oracle_invariants_test"
"$tsan_dir/tests/serve_test"
"$tsan_dir/tests/session_equivalence_test"
"$tsan_dir/tests/concurrent_session_test"
"$tsan_dir/tests/chase_routing_equivalence_test"
"$tsan_dir/tests/sat_metamorphic_test"
(cd "$tsan_dir/tests" && ./wire_test && ./wal_recovery_test)

asan_dir="${build_dir}-asan"
rm -rf "$asan_dir"
cmake -B "$asan_dir" -S . \
  -DCURRENCY_ASAN=ON \
  -DCURRENCY_BUILD_BENCHMARKS=OFF \
  -DCURRENCY_BUILD_EXAMPLES=OFF
cmake --build "$asan_dir" -j "$(nproc)"
(cd "$asan_dir" && ctest --output-on-failure -j "$(nproc)")
