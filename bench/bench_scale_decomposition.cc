// Scale benchmark for the entity-component decomposition of the SAT path
// (src/core/decompose.h).
//
// The workload is the harness's sharded master/replica pair
// (bench/harness.h): relation R holds range(0) entities of six tuples
// each, and relation R2 copies A from two distinct R tuples per entity,
// so every coupling component is one {R-entity, R2-entity} pair —
// thousands of entities, equally many independent components.  Each
// entity carries the same small search puzzle: thirty random ternary
// denial constraints over its A-order literals (selected per tuple
// through the P attribute), planted to be satisfiable by the identity
// order but anti-aligned with the solver's default phase, so every
// component costs a few dozen genuine CDCL conflicts.  Each family runs
// the same specification through the monolithic reference
// (tests/support/monolithic.h: one unfiltered Encoder::Build) and the
// decomposed engine behind the one-shot solvers, so the reported ratio
// isolates the decomposition:
//
//   * CPS on the satisfiable shard set: the monolithic solver pays
//     global restarts and full-trail re-decisions for every component's
//     conflicts (measured superlinear), while per-component solving
//     keeps each search local (≈ 50× at 1024 entities on the reference
//     machine, growing with size).
//   * CPS with one planted deeply-UNSAT shard (a no-chain denial guarded
//     by P = 99, search-refutable but not unit-refutable): the shard is
//     the first component, so the decomposed path refutes it first and
//     never encodes the rest, while the monolithic path must build and
//     search the whole formula.
//   * COP with eight queried pairs: the monolithic path pays its full
//     initial solve plus whole-formula assumption re-solves; the
//     decomposed path re-solves one component per pair.
//
// The decomposed families additionally honour --threads=N (this binary
// carries its own main; the flag is stripped before Google Benchmark
// parses the rest): components are embarrassingly parallel, so on an
// N-core machine `--threads=N` vs `--threads=1` isolates the win of the
// exec layer (src/exec/thread_pool.h) on the same workload, with
// bit-identical answers.  On a single-core machine the two runs time
// identically minus scheduling noise.
//
// Registered as a ctest smoke run (smallest size, one family each) by
// bench/CMakeLists.txt.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/harness.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "tests/support/monolithic.h"

namespace {

using namespace currency;  // NOLINT

/// Thread count for the decomposed families, set by --threads=N.
int g_threads = 1;

/// The workload of the file comment: six tuples and thirty puzzle clauses
/// per entity, optionally behind the planted UNSAT shard.
bench::ShardShape Shape(bool plant_unsat) {
  return {.group = 6, .clauses = 30, .seed = 7, .plant_unsat = plant_unsat};
}

void RunCps(benchmark::State& state, bool decomposed, bool plant_unsat) {
  const int entities = static_cast<int>(state.range(0));
  core::Specification spec =
      bench::MakeShardedSpec(entities, Shape(plant_unsat));
  core::CpsOptions options;
  options.num_threads = g_threads;
  int64_t consistent = 0;
  int64_t components = 0;
  for (auto _ : state) {
    if (!decomposed) {
      auto outcome = currency::testing::MonolithicConsistent(spec);
      if (!outcome.ok()) {
        state.SkipWithError(outcome.status().ToString().c_str());
        return;
      }
      consistent += *outcome ? 1 : 0;
      components = 1;
      continue;
    }
    auto outcome = core::DecideConsistency(spec, options);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
    consistent += outcome->consistent ? 1 : 0;
    components = outcome->components;
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["entities"] = static_cast<double>(entities);
  state.counters["components"] = static_cast<double>(components);
  // The satisfiable family must answer SAT and the planted family UNSAT;
  // the smoke ctest run relies on this assertion.
  if ((consistent > 0) == plant_unsat) {
    state.SkipWithError("wrong CPS answer");
  }
}

void BM_ScaleCps_Monolithic(benchmark::State& state) {
  RunCps(state, /*decomposed=*/false, /*plant_unsat=*/false);
}
void BM_ScaleCps_Decomposed(benchmark::State& state) {
  RunCps(state, /*decomposed=*/true, /*plant_unsat=*/false);
}
void BM_ScaleCpsUnsatShard_Monolithic(benchmark::State& state) {
  RunCps(state, /*decomposed=*/false, /*plant_unsat=*/true);
}
void BM_ScaleCpsUnsatShard_Decomposed(benchmark::State& state) {
  RunCps(state, /*decomposed=*/true, /*plant_unsat=*/true);
}
BENCHMARK(BM_ScaleCps_Monolithic)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleCps_Decomposed)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleCpsUnsatShard_Monolithic)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleCpsUnsatShard_Decomposed)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

void RunCop(benchmark::State& state, bool decomposed) {
  const int entities = static_cast<int>(state.range(0));
  const bench::ShardShape shape = Shape(/*plant_unsat=*/false);
  core::Specification spec = bench::MakeShardedSpec(entities, shape);
  core::CopOptions options;
  options.num_threads = g_threads;
  // Eight pairs spread over eight entities.
  core::CurrencyOrderQuery query;
  query.relation = "R";
  for (int k = 0; k < 8; ++k) {
    int e = k * (entities / 8);
    query.pairs.push_back(
        core::RequiredPair{2, e * shape.group, e * shape.group + 1});
  }
  int64_t certain = 0;
  for (auto _ : state) {
    auto result =
        decomposed ? core::IsCertainOrder(spec, query, options)
                   : currency::testing::MonolithicCertainOrder(spec, query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    certain += *result ? 1 : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["entities"] = static_cast<double>(entities);
  state.counters["certain"] = static_cast<double>(certain > 0);
}

void BM_ScaleCop_Monolithic(benchmark::State& state) {
  RunCop(state, /*decomposed=*/false);
}
void BM_ScaleCop_Decomposed(benchmark::State& state) {
  RunCop(state, /*decomposed=*/true);
}
BENCHMARK(BM_ScaleCop_Monolithic)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleCop_Decomposed)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of benchmark_main): strip --threads=N before
// Google Benchmark sees the command line — it rejects unknown flags.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = std::atoi(argv[i] + 10);
      if (g_threads < 1) g_threads = 1;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("threads", std::to_string(g_threads));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
