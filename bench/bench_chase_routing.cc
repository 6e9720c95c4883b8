// Chase-routing benchmark: a routed CurrencySession (chase-eligible
// components served from the polynomial copy-order chase) against a
// forced-SAT session (CurrencySession::CreateForcedSatForTesting) over
// the same constraint-free sharded workload — the Theorem 6.1 fast path
// of src/core/chase.h made measurable end to end.
//
// Like bench_serve this is a plain binary (no Google Benchmark): it
// reports latency percentiles and machine-readable JSON for
// scripts/bench.sh (BENCH_chase.json), self-checks every routed answer
// against the forced-SAT session, and (via --require-speedup=F) enforces
// the cold bring-up speedup floor, so its ctest smoke registration doubles
// as a differential correctness test.
//
// The floor is on the COLD ratio (Create + first CpsCheck: component chase
// fixpoints against encoder builds plus base solves), the layer routing
// replaces.  The warm COP ratio is reported but not enforced: a warm
// forced-SAT probe is mostly settled from its solver's remembered models
// and root literals without a solve (sat::Solver's "Remembered models"),
// so both sides of that ratio are cache reads of about 1 µs per query.
//
// Workload: relation R holds `entities` four-tuple entities with one
// planted initial A-order each and NO denial constraints; R2 copies A
// from two distinct R tuples per entity, so every coupling component is
// one chase-eligible {R-entity, R2-entity} pair and the chase actually
// propagates pairs across the copy bucket.  COP queries spread over the
// entities, alternating certain-only and refutation-required shapes.
//
// Flags: --entities=N --queries=Q --iters=K --require-speedup=F
//        --threads=T --out=FILE

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/certain_order.h"
#include "src/serve/session.h"

namespace {

using namespace currency;  // NOLINT

// Tuples per R entity.  Deliberately larger than bench_serve's groups:
// the SAT encoder's per-probe cost (assumption solve over O(kGroup²)
// order variables and O(kGroup³) transitivity clauses) grows with the
// group while the chase probe stays an O(1) fixpoint lookup, which is
// exactly the asymmetry the routed-vs-forced floor measures.
constexpr int kGroup = 8;

/// Zero-padded ids keep Value order aligned with creation order.
std::string PadId(const char* prefix, int e) {
  std::string digits = std::to_string(e);
  return std::string(prefix) + std::string(6 - digits.size(), '0') + digits;
}

core::Specification MakeConstraintFreeSpec(int entities) {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid(PadId("e", e));
    for (int k = 0; k < kGroup; ++k) {
      (void)r.AppendValues({eid, Value(k), Value(k % 2)});
    }
  }
  core::TemporalInstance inst(std::move(r));
  // Planted initial orders per entity: t0 ≺ t1 ≺ t2 on A.  The chain
  // propagates into R2 below and makes t0 ≺ t2 certain only through
  // transitivity, so every component chase genuinely derives pairs.
  for (int e = 0; e < entities; ++e) {
    (void)inst.AddOrder(1, e * kGroup, e * kGroup + 1);
    (void)inst.AddOrder(1, e * kGroup + 1, e * kGroup + 2);
  }
  (void)spec.AddInstance(std::move(inst));

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
    auto t0 = r2.AppendValues({eid, Value(0)});
    auto t1 = r2.AppendValues({eid, Value(1)});
    (void)fn.Map(*t0, e * kGroup);      // carries A = 0
    (void)fn.Map(*t1, e * kGroup + 1);  // carries A = 1
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r2)));
  (void)spec.AddCopyFunction(std::move(fn));
  return spec;
}

/// COP queries spread over the entities: even queries ask the three
/// planted certain pairs — (t0, t1), (t1, t2) and the transitive
/// (t0, t2), each one an UNSAT assumption solve for the forced session —
/// plus answer true; odd ones add an unordered pair the solver must
/// refute, so they answer false.
std::vector<core::CurrencyOrderQuery> MakeQueries(int entities, int queries) {
  std::vector<core::CurrencyOrderQuery> out;
  for (int k = 0; k < queries; ++k) {
    int e = (static_cast<int64_t>(k) * entities) / queries;
    core::CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {core::RequiredPair{1, e * kGroup, e * kGroup + 1},
               core::RequiredPair{1, e * kGroup + 1, e * kGroup + 2},
               core::RequiredPair{1, e * kGroup, e * kGroup + 2}};
    if (k % 2 == 1) {
      q.pairs.push_back(
          core::RequiredPair{1, e * kGroup + 7, e * kGroup + 6});
    }
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
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"n\": %zu, \"ops_per_sec\": %.3f, "
                  "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"mean_ms\": %.4f}",
                  name.c_str(), samples_ms.size(),
                  samples_ms.empty() || Total() <= 0
                      ? 0.0
                      : 1000.0 * samples_ms.size() / Total(),
                  Percentile(0.50), Percentile(0.95),
                  samples_ms.empty() ? 0.0 : Total() / samples_ms.size());
    return buf;
  }
};

int Fail(const char* what) {
  std::fprintf(stderr, "bench_chase_routing: FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int entities = 1024;
  int queries = 64;
  int iters = 5;
  int threads = 1;
  double require_speedup = 0.0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--entities=", 11) == 0) {
      entities = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--require-speedup=", 18) == 0) {
      require_speedup = std::atof(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "bench_chase_routing: unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  if (entities < queries) queries = entities;

  core::Specification spec = MakeConstraintFreeSpec(entities);
  std::vector<core::CurrencyOrderQuery> cop_queries =
      MakeQueries(entities, queries);

  // Two sessions over the same specification: routed (default) and
  // forced-SAT (the reference the routed answers are diffed against).
  serve::SessionOptions options;
  options.num_threads = threads;

  // Cold start: Create + first CpsCheck.  Routed chases every component;
  // forced builds and base-solves every SAT encoder.
  Series cold_routed{"cold_create_plus_cps_routed", {}};
  Series cold_forced{"cold_create_plus_cps_forced_sat", {}};
  double t0 = NowMs();
  auto routed = serve::CurrencySession::Create(spec, options);
  if (!routed.ok()) return Fail(routed.status().ToString().c_str());
  auto routed_cps = (*routed)->CpsCheck();
  cold_routed.samples_ms.push_back(NowMs() - t0);
  t0 = NowMs();
  auto forced =
      serve::CurrencySession::CreateForcedSatForTesting(spec, options);
  if (!forced.ok()) return Fail(forced.status().ToString().c_str());
  auto forced_cps = (*forced)->CpsCheck();
  cold_forced.samples_ms.push_back(NowMs() - t0);
  if (!routed_cps.ok() || !forced_cps.ok()) return Fail("CPS errored");
  if (!*routed_cps || !*forced_cps) return Fail("workload must be SAT");
  if ((*routed)->stats().base_solves != 0) {
    return Fail("a constraint-free routed session must never SAT-solve");
  }
  if ((*routed)->stats().chase_solves != (*routed)->num_components()) {
    return Fail("every component must be chase-solved exactly once");
  }

  // Warm COP batches: per-query latency, routed vs forced, answers
  // diffed element-wise every iteration.
  Series warm_routed{"warm_batch_cop_per_query_routed", {}};
  Series warm_forced{"warm_batch_cop_per_query_forced_sat", {}};
  for (int it = 0; it < iters; ++it) {
    t0 = NowMs();
    auto a = (*routed)->CopBatch(cop_queries);
    double routed_per_query = (NowMs() - t0) / queries;
    t0 = NowMs();
    auto b = (*forced)->CopBatch(cop_queries);
    double forced_per_query = (NowMs() - t0) / queries;
    if (!a.ok() || !b.ok()) return Fail("CopBatch errored");
    for (int k = 0; k < queries; ++k) {
      if ((*a)[k] != (*b)[k]) {
        return Fail("routed COP answer differs from forced-SAT");
      }
      bool expected = k % 2 == 0;  // planted: certain pair alone is true
      if ((*a)[k] != expected) return Fail("COP answer differs from planted");
      warm_routed.samples_ms.push_back(routed_per_query);
      warm_forced.samples_ms.push_back(forced_per_query);
    }
  }

  // Mutate one tuple (rotating entity; B is copy-free so answers are
  // unaffected) then re-run the batch: exactly one component re-chases
  // (routed) / re-solves (forced), everything else is adopted.
  Series mutate_routed{"mutate_one_tuple_plus_batch_routed", {}};
  Series mutate_forced{"mutate_one_tuple_plus_batch_forced_sat", {}};
  for (int it = 0; it < iters; ++it) {
    int e = it % entities;
    core::TupleEdit edit{0, e * kGroup + 1, 2, Value(100 + it)};
    t0 = NowMs();
    Status sa = (*routed)->Mutate({edit});
    auto a = (*routed)->CopBatch(cop_queries);
    mutate_routed.samples_ms.push_back(NowMs() - t0);
    t0 = NowMs();
    Status sb = (*forced)->Mutate({edit});
    auto b = (*forced)->CopBatch(cop_queries);
    mutate_forced.samples_ms.push_back(NowMs() - t0);
    if (!sa.ok() || !sb.ok()) return Fail("Mutate errored");
    if (!a.ok() || !b.ok()) return Fail("post-mutate CopBatch errored");
    if (*a != *b) return Fail("post-mutate answers diverge");
    if ((*routed)->stats().last_chase_rechased != 1) {
      return Fail("a one-tuple edit must re-chase exactly one component");
    }
    if ((*routed)->stats().last_chase_reused !=
        (*routed)->num_components() - 1) {
      return Fail("every untouched component must re-adopt its fixpoint");
    }
    if ((*forced)->stats().last_invalidated != 1) {
      return Fail("a one-tuple edit must invalidate exactly one component");
    }
  }

  double speedup = warm_routed.Percentile(0.5) > 0
                       ? warm_forced.Percentile(0.5) /
                             warm_routed.Percentile(0.5)
                       : 0.0;
  double cold_speedup = cold_routed.samples_ms[0] > 0
                            ? cold_forced.samples_ms[0] /
                                  cold_routed.samples_ms[0]
                            : 0.0;
  std::string json = "{\n  \"bench\": \"bench_chase_routing\",\n  "
                     "\"workload\": {";
  json += "\"entities\": " + std::to_string(entities) +
          ", \"components\": " + std::to_string((*routed)->num_components()) +
          ", \"queries\": " + std::to_string(queries) +
          ", \"iters\": " + std::to_string(iters) +
          ", \"threads\": " + std::to_string(threads) + "},\n  \"results\": [";
  const Series* all[] = {&cold_routed,   &cold_forced,  &warm_routed,
                         &warm_forced,   &mutate_routed, &mutate_forced};
  for (size_t k = 0; k < 6; ++k) {
    json += std::string(k ? "," : "") + "\n    " + all[k]->ToJson();
  }
  char tail[160];
  std::snprintf(tail, sizeof tail,
                "\n  ],\n  \"speedup_warm_cop_routed_vs_forced_p50\": %.2f,\n"
                "  \"speedup_cold_routed_vs_forced\": %.2f\n}\n",
                speedup, cold_speedup);
  json += tail;
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) return Fail("cannot open --out file");
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf(
        "bench_chase_routing: wrote %s (cold speedup %.2fx, warm %.2fx)\n",
        out_path.c_str(), cold_speedup, speedup);
  }
  if (require_speedup > 0 && cold_speedup < require_speedup) {
    std::fprintf(stderr,
                 "bench_chase_routing: FAILED: cold bring-up speedup %.2fx "
                 "below the required %.2fx\n",
                 cold_speedup, require_speedup);
    return 1;
  }
  return 0;
}
