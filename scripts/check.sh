#!/usr/bin/env bash
# CI-style verification: configure with strict warnings, build everything,
# run all test suites from a clean build tree, then re-run the threading
# tests under ThreadSanitizer. Exits nonzero on the first failure.
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
# chase_routing_equivalence_test (chase-routed vs forced-SAT answers,
# including the per-component fixpoint slots confined to pool tasks),
# sat_metamorphic_test (arena compaction inside pooled session tasks),
# portfolio_test (first-verdict-wins races over the shared pool, where
# the cancellation flag and verdict slots are the contended state),
# wal_recovery_test (the durable commit path: concurrent reader
# batches racing logged Mutates, where log_mu_ linearizes apply+append
# against the snapshot-isolated readers), and obs_test (lock-free
# counter/gauge/histogram updates racing get-or-create and exposition)
# — so data races in the decomposed solvers fail CI even on hardware
# where they never misbehave.
#
# The ASan+UBSan pass (CURRENCY_ASAN, a third build tree) runs the serve
# and exec suites plus obs_test, parallel_equivalence_test,
# oracle_invariants_test, chase_routing_equivalence_test,
# sat_metamorphic_test, portfolio_test (rival solver lifetimes end at
# cancellation), wire_test, wal_recovery_test, order_test (the
# word-by-word bit scan of PartialOrder::Pairs across word boundaries),
# encoder_chase_test and core_model_test (the encoder's per-group
# is-last index and the order-free selectors behind every witness), so
# every equivalence suite runs under both sanitizers: the engine moves
# encoders AND chase fixpoints between epochs and hands borrowed
# pools/encoders across threads, the SAT core's garbage collector
# relocates every clause and rewrites watcher/reason references in
# place, and the wire/WAL parsers walk length-prefixed frames of
# truncated and bit-flipped buffers — exactly the lifetime and bounds
# traffic the sanitizers are built to police.  (WAL tests write their log directories under the build tree's
# cwd — wal_test_dirs/, gitignored.)
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
           portfolio_test wire_test wal_recovery_test
"$tsan_dir/tests/exec_test"
"$tsan_dir/tests/obs_test"
"$tsan_dir/tests/parallel_equivalence_test"
"$tsan_dir/tests/oracle_invariants_test"
"$tsan_dir/tests/serve_test"
"$tsan_dir/tests/session_equivalence_test"
"$tsan_dir/tests/concurrent_session_test"
"$tsan_dir/tests/chase_routing_equivalence_test"
"$tsan_dir/tests/sat_metamorphic_test"
"$tsan_dir/tests/portfolio_test"
(cd "$tsan_dir/tests" && ./wire_test && ./wal_recovery_test)

asan_dir="${build_dir}-asan"
rm -rf "$asan_dir"
cmake -B "$asan_dir" -S . \
  -DCURRENCY_ASAN=ON \
  -DCURRENCY_BUILD_BENCHMARKS=OFF \
  -DCURRENCY_BUILD_EXAMPLES=OFF
cmake --build "$asan_dir" -j "$(nproc)" \
  --target exec_test obs_test parallel_equivalence_test \
           oracle_invariants_test serve_test session_equivalence_test \
           concurrent_session_test chase_routing_equivalence_test \
           sat_metamorphic_test portfolio_test wire_test wal_recovery_test \
           order_test encoder_chase_test core_model_test
"$asan_dir/tests/exec_test"
"$asan_dir/tests/obs_test"
"$asan_dir/tests/parallel_equivalence_test"
"$asan_dir/tests/oracle_invariants_test"
"$asan_dir/tests/serve_test"
"$asan_dir/tests/session_equivalence_test"
"$asan_dir/tests/concurrent_session_test"
"$asan_dir/tests/chase_routing_equivalence_test"
"$asan_dir/tests/sat_metamorphic_test"
"$asan_dir/tests/portfolio_test"
"$asan_dir/tests/order_test"
"$asan_dir/tests/encoder_chase_test"
"$asan_dir/tests/core_model_test"
(cd "$asan_dir/tests" && ./wire_test && ./wal_recovery_test)
