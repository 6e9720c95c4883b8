// Serving-layer benchmark: cold vs warm CurrencySession, batched COP vs a
// loop of one-shot rebuild-per-query solves, and mutate-then-requery —
// the amortization story of src/serve/session.h made measurable.
//
// Unlike the Google Benchmark binaries this one is plain C++ on the
// shared harness (bench/harness.h): it needs latency *percentiles*
// (p50/p95) and a machine-readable JSON report for scripts/bench.sh
// (BENCH_serve.json), and it must build even where the benchmark package
// is absent.  It also self-checks every session answer against the
// one-shot solver and (optionally, via --require-speedup=F) enforces the
// warm-batch-vs-rebuild speedup floor, so its ctest smoke registration
// doubles as a correctness test.
//
// Workload: the harness's sharded master/replica specification — relation
// R holds `entities` four-tuple entities, each carrying a small planted-
// satisfiable order puzzle of ten clauses, and R2 copies A from two
// distinct R tuples per entity, so every coupling component is one
// {R-entity, R2-entity} pair.  COP queries spread over the entities.
//
// Flags: --entities=N --queries=Q --iters=K --require-speedup=F
//        --threads=T --out=FILE

#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/certain_order.h"
#include "src/serve/session.h"

namespace {

using namespace currency;  // NOLINT

constexpr bench::ShardShape kShape{};  // four tuples, ten clauses, seed 11

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("bench_serve");
  int entities = 64;
  int queries = 16;
  int iters = 5;
  int threads = 1;
  double require_speedup = 0.0;
  if (!report.ParseFlags(argc, argv,
                         {{"entities", &entities},
                          {"queries", &queries},
                          {"iters", &iters},
                          {"threads", &threads},
                          {"require-speedup", &require_speedup}})) {
    return 1;
  }
  if (entities < queries) queries = entities;

  core::Specification spec = bench::MakeShardedSpec(entities, kShape);
  std::vector<core::CurrencyOrderQuery> cop_queries =
      bench::MakeSpreadQueries(entities, queries, kShape.group);

  // Reference answers from the one-shot solver (each call a full rebuild;
  // its per-query latency is the rebuild-per-query series).
  bench::Series rebuild{"rebuild_per_query_cop"};
  std::vector<bool> reference;
  for (const core::CurrencyOrderQuery& q : cop_queries) {
    double t0 = bench::NowMs();
    auto fresh = core::IsCertainOrder(spec, q);
    rebuild.samples_ms.push_back(bench::NowMs() - t0);
    if (!fresh.ok()) return report.Fail(fresh.status().ToString());
    reference.push_back(*fresh);
  }

  // Cold session: registration (coupling graph + fingerprints) plus the
  // first CpsCheck, which builds and base-solves every component.
  serve::SessionOptions options;
  options.num_threads = threads;
  bench::Series cold{"cold_session_create_plus_cps"};
  double t0 = bench::NowMs();
  auto session = serve::CurrencySession::Create(spec, options);
  if (!session.ok()) return report.Fail(session.status().ToString());
  auto consistent = (*session)->CpsCheck();
  cold.samples_ms.push_back(bench::NowMs() - t0);
  if (!consistent.ok() || !*consistent) {
    return report.Fail("workload must be SAT");
  }

  // Warm batch: all queries in one CopBatch (per-query latency reported).
  bench::Series warm_batch{"warm_batch_cop_per_query"};
  for (int it = 0; it < iters; ++it) {
    t0 = bench::NowMs();
    auto batch = (*session)->CopBatch(cop_queries);
    double per_query = (bench::NowMs() - t0) / queries;
    if (!batch.ok()) return report.Fail(batch.status().ToString());
    for (int k = 0; k < queries; ++k) {
      if ((*batch)[k] != reference[k]) {
        return report.Fail("warm batch answer differs from one-shot solver");
      }
      warm_batch.samples_ms.push_back(per_query);
    }
  }

  // Warm loop-of-singles: one CopBatch call per query.
  bench::Series warm_single{"warm_single_cop"};
  for (int it = 0; it < iters; ++it) {
    for (int k = 0; k < queries; ++k) {
      t0 = bench::NowMs();
      auto one = (*session)->CopBatch({cop_queries[k]});
      warm_single.samples_ms.push_back(bench::NowMs() - t0);
      if (!one.ok()) return report.Fail(one.status().ToString());
      if ((*one)[0] != reference[k]) {
        return report.Fail("warm single answer differs from one-shot solver");
      }
    }
  }

  // Mutate one tuple (rotating entity; B is constraint-free so answers
  // are unaffected) then run the full batch: the incremental path should
  // re-solve exactly one component and keep every answer.
  bench::Series mutate{"mutate_one_tuple_plus_batch"};
  for (int it = 0; it < iters; ++it) {
    int e = it % entities;
    core::TupleEdit edit{0, e * kShape.group + 1, 3, Value(100 + it)};
    t0 = bench::NowMs();
    Status st = (*session)->Mutate({edit});
    auto batch = (*session)->CopBatch(cop_queries);
    mutate.samples_ms.push_back(bench::NowMs() - t0);
    if (!st.ok()) return report.Fail(st.ToString());
    if (!batch.ok()) return report.Fail(batch.status().ToString());
    if ((*session)->stats().last_invalidated != 1) {
      return report.Fail(
          "a one-tuple edit must invalidate exactly one component");
    }
    for (int k = 0; k < queries; ++k) {
      if ((*batch)[k] != reference[k]) {
        return report.Fail("post-mutate answer differs from one-shot solver");
      }
    }
  }

  report.Workload("entities", entities);
  report.Workload("components", (*session)->num_components());
  report.Workload("queries", queries);
  report.Workload("iters", iters);
  report.Workload("threads", threads);
  for (const bench::Series* series :
       {&cold, &rebuild, &warm_single, &warm_batch, &mutate}) {
    report.Row(*series);
  }
  report.Ratio("speedup_warm_batch_vs_rebuild_p50",
               warm_batch.Percentile(0.5) > 0
                   ? rebuild.Percentile(0.5) / warm_batch.Percentile(0.5)
                   : 0.0);
  report.Floor("speedup_warm_batch_vs_rebuild_p50", require_speedup,
               "warm-batch speedup %.2fx below the required %.2fx");
  return report.Write();
}
