// Observability overhead benchmark: what the metrics + tracing layer
// (src/obs) costs on the warm certain-ordering (COP) path, measured in
// one process.
//
// Like bench_serve this is plain C++ on the shared harness
// (bench/harness.h): it reports warm-query latency percentiles and
// machine-readable JSON for scripts/bench.sh (BENCH_obs.json), and
// self-checks every answer against the one-shot solver.
//
// Three arms answer the same warm COP batch:
//   * traced — a CurrencySession with an enabled tracer: every batch
//     opens a root span whose stages snapshot counter deltas and land in
//     the tracer's ring;
//   * untraced — a CurrencySession without a tracer: the always-on
//     instrumentation, i.e. the batch counter, the latency histogram
//     (two clock reads), the epoch pin and the engine counters;
//   * bare — a DecomposedEncoder built without EngineCounters and
//     answered through core::internal::CertainOrderProbes, the function
//     CopBatch calls, with no session bracket: no epoch pin, no counters,
//     no histograms.  Only its two stage objects remain, and with no root
//     span open each is one thread-local load.
// Each arm is warmed, then each of --iters rounds times one batch per
// arm, in an order that rotates every round, so host drift (frequency,
// neighbours on a shared host) lands on all three arms alike instead of
// on whichever ran last.
//
// Workload: the harness's sharded shape without the copy instance, with
// eight puzzle clauses drawn from seed 17 — R holds `entities`
// four-tuple entities, each with a planted-satisfiable order puzzle, so
// warm COP queries pay cache lookups and answer decoding but no
// re-solves: exactly the path where per-request instrumentation (span
// open/close, stage attach, histogram observe) could show up.
//
// The gated series is the warm BATCH per-query p50 (all queries in one
// batch, divided by the batch size) — the same shape bench_serve
// headlines, and the serving workload's actual warm-query path.
// --max-overhead=R bounds both ratios at R (scripts/bench.sh: 1.05):
//   * traced_vs_untraced_p50 — what tracing costs;
//   * untraced_vs_bare_p50 — what the always-on histograms, counters and
//     session bracket cost.
// The loop-of-single-query series (sessions only) are reported but not
// gated: a warm single query completes in about 1 µs, where the fixed
// per-REQUEST trace cost (one clock read per stage boundary plus a ring
// insertion) is a double-digit ratio by construction; per QUERY that
// fixed cost amortizes across the batch, which is what a p50 ceiling can
// meaningfully bound.
//
// Flags: --entities=N --queries=Q --iters=K --threads=T --max-overhead=R
//        --out=FILE

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/certain_order.h"
#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"
#include "src/obs/trace.h"
#include "src/serve/session.h"

namespace {

using namespace currency;  // NOLINT

constexpr bench::ShardShape kShape{.clauses = 8, .seed = 17,
                                   .replica = false};

/// One way of answering a COP batch, and the per-query latencies of its
/// timed batches.
struct Arm {
  std::function<Result<std::vector<bool>>(
      const std::vector<core::CurrencyOrderQuery>&)>
      batch;
  bench::Series series;
};

/// Answers `queries` through `arm` and checks every answer against the
/// one-shot references; a `timed` batch adds its per-query latency to the
/// arm's series.
bool RunBatch(Arm* arm, const std::vector<core::CurrencyOrderQuery>& queries,
              const std::vector<bool>& reference, bool timed) {
  double t0 = bench::NowMs();
  auto answers = arm->batch(queries);
  double per_query =
      (bench::NowMs() - t0) / static_cast<double>(queries.size());
  if (!answers.ok() || *answers != reference) return false;
  if (timed) arm->series.samples_ms.push_back(per_query);
  return true;
}

/// Warm single-query loop against an already-warmed session; answers are
/// checked against the one-shot references on every iteration.
bool RunWarmLoop(serve::CurrencySession* session,
                 const std::vector<core::CurrencyOrderQuery>& queries,
                 const std::vector<bool>& reference, int iters,
                 bench::Series* series) {
  for (int it = 0; it < iters; ++it) {
    for (size_t k = 0; k < queries.size(); ++k) {
      double t0 = bench::NowMs();
      auto one = session->CopBatch({queries[k]});
      series->samples_ms.push_back(bench::NowMs() - t0);
      if (!one.ok() || (*one)[0] != reference[k]) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("bench_obs_overhead");
  int entities = 256;
  int queries = 32;
  int iters = 5;
  int threads = 1;
  double max_overhead = 0.0;
  if (!report.ParseFlags(argc, argv,
                         {{"entities", &entities},
                          {"queries", &queries},
                          {"iters", &iters},
                          {"threads", &threads},
                          {"max-overhead", &max_overhead}})) {
    return 1;
  }
  if (entities < queries) queries = entities;

  core::Specification spec = bench::MakeShardedSpec(entities, kShape);
  std::vector<core::CurrencyOrderQuery> cop_queries =
      bench::MakeSpreadQueries(entities, queries, kShape.group);
  std::vector<bool> reference;
  for (const core::CurrencyOrderQuery& q : cop_queries) {
    auto fresh = core::IsCertainOrder(spec, q);
    if (!fresh.ok()) return report.Fail(fresh.status().ToString());
    reference.push_back(*fresh);
  }

  obs::TraceOptions trace_options;
  trace_options.enabled = true;
  obs::Tracer tracer(trace_options);
  auto make_session = [&](obs::Tracer* session_tracer)
      -> Result<std::unique_ptr<serve::CurrencySession>> {
    serve::SessionOptions options;
    options.num_threads = threads;
    options.tracer = session_tracer;
    ASSIGN_OR_RETURN(auto session,
                     serve::CurrencySession::Create(spec, options));
    ASSIGN_OR_RETURN(bool consistent, session->CpsCheck());
    if (!consistent) return Status::InvalidArgument("workload must be SAT");
    return session;
  };
  auto traced = make_session(&tracer);
  if (!traced.ok()) return report.Fail(traced.status().ToString());
  auto untraced = make_session(nullptr);
  if (!untraced.ok()) return report.Fail(untraced.status().ToString());
  // The bare engine: what CopBatch runs, minus the session around it.
  // It reads `spec`, which outlives it.
  auto engine = core::DecomposedEncoder::Build(spec, {},
                                               /*use_chase_routing=*/true);
  if (!engine.ok()) return report.Fail(engine.status().ToString());
  exec::ThreadPool pool(threads);
  auto consistent = (*engine)->EnsureAllSolved(&pool);
  if (!consistent.ok() || !*consistent) {
    return report.Fail("workload must be SAT");
  }

  auto session_batch = [](serve::CurrencySession* session) {
    return [session](const std::vector<core::CurrencyOrderQuery>& q) {
      return session->CopBatch(q);
    };
  };
  constexpr int kArms = 3;
  Arm arms[kArms] = {
      {session_batch(traced->get()),
       bench::Series{"warm_batch_cop_per_query_traced"}},
      {session_batch(untraced->get()),
       bench::Series{"warm_batch_cop_per_query_untraced"}},
      {[&](const std::vector<core::CurrencyOrderQuery>& q) {
         return core::internal::CertainOrderProbes(engine->get(), q, &pool);
       },
       bench::Series{"warm_batch_cop_per_query_bare"}},
  };
  Arm& traced_arm = arms[0];
  Arm& untraced_arm = arms[1];
  Arm& bare_arm = arms[2];
  for (Arm& arm : arms) {
    if (!RunBatch(&arm, cop_queries, reference, /*timed=*/false)) {
      return report.Fail(arm.series.name +
                         ": answer differs from one-shot solver");
    }
  }
  for (int round = 0; round < iters; ++round) {
    for (int j = 0; j < kArms; ++j) {
      Arm& arm = arms[(round + j) % kArms];
      if (!RunBatch(&arm, cop_queries, reference, /*timed=*/true)) {
        return report.Fail(arm.series.name +
                           ": answer differs from one-shot solver");
      }
    }
  }

  bench::Series traced_single{"warm_single_cop_traced"};
  bench::Series untraced_single{"warm_single_cop_untraced"};
  if (!RunWarmLoop(untraced->get(), cop_queries, reference, iters,
                   &untraced_single) ||
      !RunWarmLoop(traced->get(), cop_queries, reference, iters,
                   &traced_single)) {
    return report.Fail("single-query answer differs from one-shot solver");
  }
  if (tracer.recorded_traces() == 0) {
    return report.Fail("tracer recorded no spans in the traced run");
  }

  report.Workload("entities", entities);
  report.Workload("queries", queries);
  report.Workload("iters", iters);
  report.Workload("threads", threads);
  for (const bench::Series* series :
       {&untraced_arm.series, &traced_arm.series, &bare_arm.series,
        &untraced_single, &traced_single}) {
    report.Row(*series);
  }
  auto ratio = [](const bench::Series& num, const bench::Series& den) {
    return den.Percentile(0.5) > 0
               ? num.Percentile(0.5) / den.Percentile(0.5)
               : 0.0;
  };
  report.Ratio("traced_vs_untraced_p50",
               ratio(traced_arm.series, untraced_arm.series));
  report.Ratio("untraced_vs_bare_p50",
               ratio(untraced_arm.series, bare_arm.series));
  report.Ceiling("traced_vs_untraced_p50", max_overhead,
                 "traced warm per-query p50 is %.3fx the untraced one "
                 "(ceiling %.3fx)");
  report.Ceiling("untraced_vs_bare_p50", max_overhead,
                 "untraced warm per-query p50 is %.3fx the bare engine's "
                 "(ceiling %.3fx)");
  return report.Write();
}
