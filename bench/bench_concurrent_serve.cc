// Concurrent serving-layer benchmark: reader batches against a live
// mutator on one snapshot-isolated CurrencySession — the epoch layer of
// src/serve/epoch.h made measurable.
//
// Like bench_serve this is a plain binary (no Google Benchmark): it
// reports latency percentiles and machine-readable JSON for
// scripts/bench.sh (BENCH_mt.json), and it self-checks every concurrent
// answer against a one-shot reference so its ctest smoke registration
// doubles as a correctness test.  Three phases over the same sharded
// workload as bench_serve:
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
// The emitted JSON carries the detected CPU count (workload.cpus).  With
// a single CPU the concurrent phases measure snapshot and scheduling
// *overhead* (threads interleave, they do not overlap), so concurrent
// throughput at or near the serialized baseline is the win — parallel
// speedup is only observable with real cores.  scripts/bench.sh adds
// that caveat to the report's host stamp only when the host has one CPU.
//
// Flags: --entities=N --queries=Q --iters=K --readers=R --threads=T
//        --out=FILE

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/certain_order.h"
#include "src/obs/metrics.h"
#include "src/serve/session.h"

namespace {

using namespace currency;  // NOLINT

constexpr int kGroup = 4;     // tuples per R entity
constexpr int kClauses = 10;  // puzzle clauses per entity

/// Zero-padded ids keep Value order aligned with creation order.
std::string PadId(const char* prefix, int e) {
  std::string digits = std::to_string(e);
  return std::string(prefix) + std::string(6 - digits.size(), '0') + digits;
}

/// Planted-satisfiable ternary clauses over the A-order literals of a
/// four-tuple entity, pinned to concrete tuples through the P attribute.
/// Same scheme as bench_serve.
std::vector<std::string> MakePuzzleConstraints(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> tup(0, kGroup - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const char* vars[] = {"a", "b", "c", "d", "e", "f"};
  std::vector<std::string> out;
  while (static_cast<int>(out.size()) < kClauses) {
    struct Literal {
      int lo, hi;
      bool identity;
    };
    std::vector<Literal> lits;
    bool any_identity = false;
    for (int k = 0; k < 3; ++k) {
      int lo = tup(rng), hi = tup(rng);
      while (hi == lo) hi = tup(rng);
      if (lo > hi) std::swap(lo, hi);
      bool identity = coin(rng) == 1;
      if (k == 2 && !any_identity) identity = true;  // plant satisfiability
      any_identity |= identity;
      lits.push_back({lo, hi, identity});
    }
    std::string text = "FORALL a, b, c, d, e, f IN R: ";
    for (int k = 0; k < 3; ++k) {
      text += std::string(vars[2 * k]) + ".P = " + std::to_string(lits[k].lo) +
              " AND " + vars[2 * k + 1] + ".P = " +
              std::to_string(lits[k].hi) + " AND ";
    }
    for (int k = 0; k < 3; ++k) {
      std::string lo = vars[2 * k], hi = vars[2 * k + 1];
      text += lits[k].identity ? hi + " PREC[A] " + lo
                               : lo + " PREC[A] " + hi;
      text += (k < 2) ? " AND " : " -> a PREC[A] a";  // pure denial
    }
    out.push_back(std::move(text));
  }
  return out;
}

core::Specification MakeShardedSpec(int entities) {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"P", "A", "B"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid(PadId("e", e));
    for (int k = 0; k < kGroup; ++k) {
      (void)r.AppendValues({eid, Value(k), Value(k), Value(k % 2)});
    }
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  for (const std::string& text : MakePuzzleConstraints(/*seed=*/11)) {
    (void)spec.AddConstraintText(text);
  }
  Schema r2s = Schema::Make("R2", {"C"}).value();
  Relation r2(r2s);
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  for (int e = 0; e < entities; ++e) {
    Value eid(PadId("f", e));
    TupleId src0 = e * kGroup;      // carries A = 0
    TupleId src1 = e * kGroup + 2;  // carries A = 2
    auto t0 = r2.AppendValues({eid, Value(0)});
    auto t1 = r2.AppendValues({eid, Value(2)});
    (void)fn.Map(*t0, src0);
    (void)fn.Map(*t1, src1);
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r2)));
  (void)spec.AddCopyFunction(std::move(fn));
  return spec;
}

std::vector<core::CurrencyOrderQuery> MakeQueries(int entities, int queries) {
  std::vector<core::CurrencyOrderQuery> out;
  for (int k = 0; k < queries; ++k) {
    int e = (static_cast<int64_t>(k) * entities) / queries;
    core::CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {core::RequiredPair{2, e * kGroup, e * kGroup + 1},
               core::RequiredPair{2, e * kGroup + 3, e * kGroup + 2}};
    out.push_back(std::move(q));
  }
  return out;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Series {
  std::string name;
  std::vector<double> samples_ms;
  double wall_ms = 0;  // when > 0, ops_per_sec uses the wall clock

  double Total() const {
    double t = 0;
    for (double s : samples_ms) t += s;
    return t;
  }
  double Percentile(double q) const {
    if (samples_ms.empty()) return 0;
    std::vector<double> sorted = samples_ms;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(q * (sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
  std::string ToJson() const {
    double denom = wall_ms > 0 ? wall_ms : Total();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"n\": %zu, \"ops_per_sec\": %.3f, "
                  "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"mean_ms\": %.4f}",
                  name.c_str(), samples_ms.size(),
                  samples_ms.empty() || denom <= 0
                      ? 0.0
                      : 1000.0 * samples_ms.size() / denom,
                  Percentile(0.50), Percentile(0.95),
                  samples_ms.empty() ? 0.0 : Total() / samples_ms.size());
    return buf;
  }
};

int Fail(const char* what) {
  std::fprintf(stderr, "bench_concurrent_serve: FAILED: %s\n", what);
  return 1;
}

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
  double t0 = NowMs();
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (int it = 0; it < iters && ok->load(); ++it) {
        double b0 = NowMs();
        auto batch = session->CopBatch(queries);
        per_thread[r].push_back(NowMs() - b0);
        if (!batch.ok() || *batch != reference) {
          ok->store(false);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_ms = NowMs() - t0;
  std::vector<double> merged;
  for (const auto& v : per_thread) {
    merged.insert(merged.end(), v.begin(), v.end());
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  int entities = 64;
  int queries = 16;
  int iters = 5;
  int readers = 4;
  int threads = 1;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--entities=", 11) == 0) {
      entities = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--readers=", 10) == 0) {
      readers = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "bench_concurrent_serve: unknown flag %s\n",
                   argv[i]);
      return 1;
    }
  }
  if (entities < queries) queries = entities;

  core::Specification spec = MakeShardedSpec(entities);
  std::vector<core::CurrencyOrderQuery> cop_queries =
      MakeQueries(entities, queries);

  // Reference answers from the one-shot solver.
  std::vector<bool> reference;
  for (const core::CurrencyOrderQuery& q : cop_queries) {
    auto fresh = core::IsCertainOrder(spec, q);
    if (!fresh.ok()) return Fail(fresh.status().ToString().c_str());
    reference.push_back(*fresh);
  }

  serve::SessionOptions options;
  options.num_threads = threads;
  auto session = serve::CurrencySession::Create(spec, options);
  if (!session.ok()) return Fail(session.status().ToString().c_str());
  auto consistent = (*session)->CpsCheck();  // warm every component
  if (!consistent.ok() || !*consistent) return Fail("workload must be SAT");

  // Phase 1: serialized baseline — one thread, batches back to back.
  Series serialized{"serialized_batch_cop", {}, 0};
  {
    double t0 = NowMs();
    for (int it = 0; it < iters; ++it) {
      double b0 = NowMs();
      auto batch = (*session)->CopBatch(cop_queries);
      serialized.samples_ms.push_back(NowMs() - b0);
      if (!batch.ok()) return Fail(batch.status().ToString().c_str());
      if (*batch != reference) return Fail("serialized answer diverged");
    }
    serialized.wall_ms = NowMs() - t0;
  }

  // Phase 2: concurrent readers, no writer.
  std::atomic<bool> ok{true};
  Series concurrent{"concurrent_readers_batch_cop", {}, 0};
  concurrent.samples_ms = RunReaders(session->get(), cop_queries, reference,
                                     readers, iters, &concurrent.wall_ms, &ok);
  if (!ok.load()) return Fail("concurrent reader answer diverged");

  // Phase 3: the same readers while a mutator streams edits to the
  // constraint-free B attribute (answers are unaffected, so the reference
  // stays valid for every epoch a batch could pin).
  Series during{"readers_batch_cop_during_mutation", {}, 0};
  Series mutate{"mutate_latency", {}, 0};
  std::atomic<bool> readers_done{false};
  std::thread mutator([&] {
    std::mt19937 rng(29);
    std::uniform_int_distribution<int> pick(0, entities * kGroup - 1);
    // At least 3 mutations even when the readers outrun the first epoch
    // build, so the latency series is never a single sample.
    int m = 0;
    while (!readers_done.load() || m < 3) {
      core::TupleEdit edit{0, pick(rng), 3, Value(1000 + m++)};
      double t0 = NowMs();
      Status st = (*session)->Mutate({edit});
      mutate.samples_ms.push_back(NowMs() - t0);
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
  if (!ok.load()) return Fail("answer diverged during mutation");
  if (mutate.samples_ms.empty()) return Fail("mutator never ran");
  mutate.wall_ms = during.wall_ms;

  // Registry snapshot, not SessionStats: the same series the exposition
  // endpoint reports.
  int64_t total_mutations =
      (*session)
          ->registry()
          ->GetCounter("currency_serve_mutations_total")
          ->Value();
  std::string json = "{\n  \"bench\": \"bench_concurrent_serve\",\n";
  json += "  \"workload\": {";
  json += "\"entities\": " + std::to_string(entities) +
          ", \"components\": " + std::to_string((*session)->num_components()) +
          ", \"queries\": " + std::to_string(queries) +
          ", \"iters\": " + std::to_string(iters) +
          ", \"readers\": " + std::to_string(readers) +
          ", \"threads\": " + std::to_string(threads) +
          ", \"cpus\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"mutations\": " + std::to_string(total_mutations) +
          ", \"final_epoch\": " + std::to_string((*session)->epoch_version()) +
          "},\n  \"results\": [";
  const Series* all[] = {&serialized, &concurrent, &during, &mutate};
  for (size_t k = 0; k < 4; ++k) {
    json += std::string(k ? "," : "") + "\n    " + all[k]->ToJson();
  }
  json += "\n  ]\n}\n";
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) return Fail("cannot open --out file");
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("bench_concurrent_serve: wrote %s (%zu mutations overlapped)\n",
                out_path.c_str(), mutate.samples_ms.size());
  }
  return 0;
}
