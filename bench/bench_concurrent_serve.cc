// Concurrent serving-layer benchmark: reader batches against a live
// mutator on one snapshot-isolated CurrencySession — the epoch layer of
// src/serve/epoch.h made measurable.
//
// Like bench_serve this is plain C++ on the shared harness
// (bench/harness.h): it reports latency percentiles and machine-readable
// JSON for scripts/bench.sh (BENCH_mt.json), and it self-checks every
// concurrent answer against a one-shot reference so its ctest smoke
// registration doubles as a correctness test.  Three phases over the same
// sharded workload as bench_serve:
//
//  1. serialized     — one thread, COP batches back to back (baseline).
//  2. concurrent     — R reader threads batching with no writer: epoch
//                      pinning + per-component solver locking overhead.
//  3. during_mutate  — the same readers while a mutator streams
//                      constraint-free edits: reader batches never wait
//                      for an epoch build, and every answer still equals
//                      the reference (the edits touch no constrained
//                      attribute).
//
// With a single CPU the concurrent phases measure snapshot and scheduling
// *overhead* (threads interleave, they do not overlap), so concurrent
// throughput at or near the serialized baseline is the win — parallel
// speedup is only observable with real cores.  The report's host stamp
// carries that caveat only when the host has one CPU.
//
// Flags: --entities=N --queries=Q --iters=K --readers=R --threads=T
//        --out=FILE

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/core/certain_order.h"
#include "src/obs/metrics.h"
#include "src/serve/session.h"

namespace {

using namespace currency;  // NOLINT

constexpr bench::ShardShape kShape{};  // four tuples, ten clauses, seed 11

/// Runs `readers` threads, each issuing `iters` CopBatches, checking every
/// answer against `reference`.  Returns per-batch latencies merged across
/// threads; sets *wall_ms and *ok.
std::vector<double> RunReaders(serve::CurrencySession* session,
                               const std::vector<core::CurrencyOrderQuery>&
                                   queries,
                               const std::vector<bool>& reference, int readers,
                               int iters, double* wall_ms,
                               std::atomic<bool>* ok) {
  std::vector<std::vector<double>> per_thread(readers);
  std::vector<std::thread> threads;
  double t0 = bench::NowMs();
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (int it = 0; it < iters && ok->load(); ++it) {
        double b0 = bench::NowMs();
        auto batch = session->CopBatch(queries);
        per_thread[r].push_back(bench::NowMs() - b0);
        if (!batch.ok() || *batch != reference) {
          ok->store(false);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_ms = bench::NowMs() - t0;
  std::vector<double> merged;
  for (const auto& v : per_thread) {
    merged.insert(merged.end(), v.begin(), v.end());
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("bench_concurrent_serve");
  int entities = 64;
  int queries = 16;
  int iters = 5;
  int readers = 4;
  int threads = 1;
  if (!report.ParseFlags(argc, argv,
                         {{"entities", &entities},
                          {"queries", &queries},
                          {"iters", &iters},
                          {"readers", &readers},
                          {"threads", &threads}})) {
    return 1;
  }
  if (entities < queries) queries = entities;

  core::Specification spec = bench::MakeShardedSpec(entities, kShape);
  std::vector<core::CurrencyOrderQuery> cop_queries =
      bench::MakeSpreadQueries(entities, queries, kShape.group);

  // Reference answers from the one-shot solver.
  std::vector<bool> reference;
  for (const core::CurrencyOrderQuery& q : cop_queries) {
    auto fresh = core::IsCertainOrder(spec, q);
    if (!fresh.ok()) return report.Fail(fresh.status().ToString());
    reference.push_back(*fresh);
  }

  serve::SessionOptions options;
  options.num_threads = threads;
  auto session = serve::CurrencySession::Create(spec, options);
  if (!session.ok()) return report.Fail(session.status().ToString());
  auto consistent = (*session)->CpsCheck();  // warm every component
  if (!consistent.ok() || !*consistent) {
    return report.Fail("workload must be SAT");
  }

  // Phase 1: serialized baseline — one thread, batches back to back.
  bench::Series serialized{"serialized_batch_cop"};
  {
    double t0 = bench::NowMs();
    for (int it = 0; it < iters; ++it) {
      double b0 = bench::NowMs();
      auto batch = (*session)->CopBatch(cop_queries);
      serialized.samples_ms.push_back(bench::NowMs() - b0);
      if (!batch.ok()) return report.Fail(batch.status().ToString());
      if (*batch != reference) return report.Fail("serialized answer diverged");
    }
    serialized.wall_ms = bench::NowMs() - t0;
  }

  // Phase 2: concurrent readers, no writer.
  std::atomic<bool> ok{true};
  bench::Series concurrent{"concurrent_readers_batch_cop"};
  concurrent.samples_ms = RunReaders(session->get(), cop_queries, reference,
                                     readers, iters, &concurrent.wall_ms, &ok);
  if (!ok.load()) return report.Fail("concurrent reader answer diverged");

  // Phase 3: the same readers while a mutator streams edits to the
  // constraint-free B attribute (answers are unaffected, so the reference
  // stays valid for every epoch a batch could pin).
  bench::Series during{"readers_batch_cop_during_mutation"};
  bench::Series mutate{"mutate_latency"};
  std::atomic<bool> readers_done{false};
  std::thread mutator([&] {
    std::mt19937 rng(29);
    std::uniform_int_distribution<int> pick(0, entities * kShape.group - 1);
    // At least 3 mutations even when the readers outrun the first epoch
    // build, so the latency series is never a single sample.
    int m = 0;
    while (!readers_done.load() || m < 3) {
      core::TupleEdit edit{0, pick(rng), 3, Value(1000 + m++)};
      double t0 = bench::NowMs();
      Status st = (*session)->Mutate({edit});
      mutate.samples_ms.push_back(bench::NowMs() - t0);
      if (!st.ok()) {
        ok.store(false);
        return;
      }
    }
  });
  during.samples_ms = RunReaders(session->get(), cop_queries, reference,
                                 readers, iters, &during.wall_ms, &ok);
  readers_done.store(true);
  mutator.join();
  if (!ok.load()) return report.Fail("answer diverged during mutation");
  if (mutate.samples_ms.empty()) return report.Fail("mutator never ran");
  mutate.wall_ms = during.wall_ms;

  report.Workload("entities", entities);
  report.Workload("components", (*session)->num_components());
  report.Workload("queries", queries);
  report.Workload("iters", iters);
  report.Workload("readers", readers);
  report.Workload("threads", threads);
  // Registry snapshot, not SessionStats: the same series the exposition
  // endpoint reports.
  report.Workload("mutations",
                  (*session)
                      ->registry()
                      ->GetCounter("currency_serve_mutations_total")
                      ->Value());
  report.Workload("final_epoch", (*session)->epoch_version());
  for (const bench::Series* series :
       {&serialized, &concurrent, &during, &mutate}) {
    report.Row(*series);
  }
  return report.Write();
}
