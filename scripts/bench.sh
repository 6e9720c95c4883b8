#!/usr/bin/env bash
# Performance trajectory runner: builds the plain bench binaries and
# emits machine-readable reports for the serving layer and the SAT core.
#
# Outputs (all six tracked at the repository root so the trajectory is
# versioned with the code):
#
#  * BENCH_serve.json — ops/sec and p50/p95 latency for cold session
#    bring-up, rebuild-per-query one-shot solves, warm single queries,
#    warm batches, and mutate-then-requery, plus the warm-batch-vs-
#    rebuild speedup on the 1024-component sharded workload.
#    bench_serve self-checks every answer against the one-shot solver
#    and enforces the >= 5x amortization floor.
#
#  * BENCH_chase.json — routed-vs-forced chase routing on a 1024-entity
#    constraint-free sharded workload: cold bring-up, warm COP batches
#    and mutate-then-requery for a chase-routed session against a
#    forced-SAT one (CurrencySession::CreateForcedSatForTesting) over the
#    same workload.  bench_chase_routing diffs every routed answer
#    against the forced-SAT session, checks the
#    incremental-chase reuse counters, and enforces the >= 3x floor on
#    the COLD bring-up ratio (chase fixpoints vs encoder builds + base
#    solves).  The floor used to sit on the warm COP ratio; once warm
#    forced-SAT probes were settled from remembered models, that ratio
#    fell from 3.4-4.1x to 0.92-0.93x while both sides got faster (warm
#    forced-SAT 4.9-5.8 -> 0.9 us/query, routed 1.4-1.7 -> 0.9-1.0),
#    and the cold ratio (3.2-4.7x before, 3.3-4.8x after; 3 runs each
#    on a shared 4-vCPU host) measures what routing still replaces.
#    The warm ratio is still reported.
#
#  * BENCH_mt.json — concurrent serving: reader COP batches serialized,
#    with concurrent readers, and with concurrent readers against a live
#    mutator on one snapshot-isolated session.  bench_concurrent_serve
#    self-checks every concurrent answer against the one-shot solver.
#    No speedup floor is enforced: with a single core the concurrent
#    phases measure snapshot/scheduling overhead (parity with the
#    serialized baseline is the win), which the host stamp below says
#    when nproc = 1.  Each phase runs 20000 batches per thread: a
#    warm batch takes microseconds, so with a handful of batches thread
#    start-up dominated the wall clock and throughput read below
#    serialized.
#
#  * BENCH_wal.json — durability: Mutate latency with and without the
#    command log's append+fsync (the fsync overhead ratio), and
#    replay-restart vs snapshot-assisted restart (Open + first CpsCheck
#    over the same logged history).  bench_recovery self-checks every
#    recovered state (spec bytes, CPS answer, zero base solves after a
#    snapshot restore) against the live manager and enforces the >= 3x
#    snapshot-restart speedup floor.  The replay-vs-snapshot ratio is
#    thread-independent.
#
#  * BENCH_obs.json — observability overhead: warm COP p50 (per query
#    in a batch, plus loop-of-singles) for a tracer-absent session, a
#    fully traced session, and (the A/B that matters) the traced
#    session against the same binary compiled with -DCURRENCY_OBS_OFF=ON,
#    where every span/stage/timer is an empty type.  bench_obs_overhead
#    self-checks every answer against the one-shot solver and enforces
#    the <= 5% traced-vs-compiled-out warm-batch per-query p50 ceiling
#    (--max-overhead=1.05; the per-REQUEST trace cost is fixed at
#    ~0.35 µs, so the single-query series is reported but not enforced —
#    see the binary's header comment).  The compiled-out baseline
#    builds in its own tree (build-obsoff), reused across runs.
#
#  * BENCH_sat.json — single-threaded SAT-core throughput on the
#    1024-entity chained-component CPS/COP workload: propagations/sec,
#    conflicts/sec, per-phase wall clock, arena bytes, learnt-clause
#    minimization and per-tier clause-DB counts for the arena-backed
#    solver AND the preserved legacy engine measured in the same run.
#    bench_sat_core self-checks that every probe verdict and
#    enumeration count agrees between the engines, and enforces the
#    >= 1.5x propagation-throughput floor (tiered clause DB + recursive
#    learnt-clause minimization + blocker prefetch).
#
# Every report is stamped with a "host" object (nproc at run time, plus
# a caveat when that is 1) so a reader of the checked-in JSON knows
# which phases could not show parallel speedup.  The stamp is the one
# place a report describes its host: no bench emits a CPU caveat of
# its own.
#
# Either script failing means a real regression (wrong answers or lost
# performance), not noise.
#
# The Google-Benchmark binaries (paper tables, decomposition scaling) are
# not re-run here: they measure other layers and dominate wall-clock.
# Run them directly when needed.
#
# Usage: scripts/bench.sh [build-dir]    (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build}"

cd "$repo_root"
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S .
fi
cmake --build "$build_dir" -j "$(nproc)" \
  --target bench_serve bench_chase_routing bench_concurrent_serve \
           bench_recovery bench_sat_core bench_obs_overhead

obsoff_dir="${build_dir}-obsoff"
if [ ! -f "$obsoff_dir/CMakeCache.txt" ]; then
  cmake -B "$obsoff_dir" -S . -DCURRENCY_OBS_OFF=ON
fi
cmake --build "$obsoff_dir" -j "$(nproc)" --target bench_obs_overhead

"$build_dir/bench/bench_serve" \
  --entities=1024 --queries=16 --iters=5 \
  --require-speedup=5 \
  --out="$repo_root/BENCH_serve.json"

"$build_dir/bench/bench_chase_routing" \
  --entities=1024 --queries=64 --iters=5 \
  --require-speedup=3 \
  --out="$repo_root/BENCH_chase.json"

"$build_dir/bench/bench_concurrent_serve" \
  --entities=256 --queries=16 --iters=20000 --readers=4 \
  --out="$repo_root/BENCH_mt.json"

"$build_dir/bench/bench_recovery" \
  --entities=128 --mutations=256 --iters=5 \
  --require-speedup=3 \
  --dir="$build_dir/bench_recovery_dirs" \
  --out="$repo_root/BENCH_wal.json"

# Same three-attempt hygiene as the obs ceiling below: the propagation
# throughput ratio swings ~±15% with cross-process scheduler noise on
# a shared 4-vCPU host, so a real regression fails all three attempts
# while a noise dip fails at most one.
sat_ok=0
for _ in 1 2 3; do
  if "$build_dir/bench/bench_sat_core" \
    --entities=1024 --probes=2048 \
    --require-speedup=1.5 \
    --out="$repo_root/BENCH_sat.json"; then
    sat_ok=1
    break
  fi
done
[ "$sat_ok" -eq 1 ]

# Compiled-out baseline first (its own JSON is throwaway), then the
# instrumented run enforcing the warm-p50 overhead ceiling against it.
# The quantities compared are ~0.4 µs, so cross-process scheduler noise on
# a shared 4-vCPU host can swing a single run's p50 well past 5% in
# either direction.  Standard microbenchmark hygiene: take the MINIMUM
# of three baseline p50s (the strictest, least-noisy comparison point)
# and give the instrumented side three attempts to beat the ceiling —
# a real >5% overhead fails all three, a noise spike fails at most one.
obsoff_json="$obsoff_dir/BENCH_obs_baseline.json"
baseline_p50=""
for _ in 1 2 3; do
  "$obsoff_dir/bench/bench_obs_overhead" \
    --entities=256 --queries=32 --iters=30 \
    --out="$obsoff_json"
  run_p50="$(sed -n \
    's/.*"warm_batch_cop_per_query_traced".*"p50_ms": \([0-9.]*\).*/\1/p' \
    "$obsoff_json")"
  baseline_p50="$(awk -v a="$baseline_p50" -v b="$run_p50" \
    'BEGIN { print (a == "" || b + 0 < a + 0) ? b : a }')"
done
obs_ok=0
for _ in 1 2 3; do
  if "$build_dir/bench/bench_obs_overhead" \
    --entities=256 --queries=32 --iters=30 \
    --baseline-p50-ms="$baseline_p50" --max-overhead=1.05 \
    --out="$repo_root/BENCH_obs.json"; then
    obs_ok=1
    break
  fi
done
[ "$obs_ok" -eq 1 ]

# Stamp every report with the measurement host: the benches themselves
# stay host-agnostic, but the checked-in JSON must say how many CPUs the
# numbers were taken on.  Only a 1-CPU host gets the caveat: there the
# concurrent phases can show overhead parity, never parallel speedup.  Inserted right after the opening brace so it reads
# first.
cores="$(nproc)"
host="{\"nproc\": $cores}"
if [ "$cores" -eq 1 ]; then
  host="{\"nproc\": 1, \"caveat\": \"measured with 1 CPU: concurrent phases show overhead parity, not parallel speedup\"}"
fi
for report in BENCH_serve.json BENCH_chase.json BENCH_mt.json \
              BENCH_wal.json BENCH_sat.json BENCH_obs.json; do
  sed -i "1s|^{|{\n  \"host\": $host,|" "$repo_root/$report"
done

echo "bench: wrote $repo_root/BENCH_serve.json, $repo_root/BENCH_chase.json," \
  "$repo_root/BENCH_mt.json, $repo_root/BENCH_wal.json," \
  "$repo_root/BENCH_sat.json and $repo_root/BENCH_obs.json"
