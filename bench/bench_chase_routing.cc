// Chase-routing benchmark: a routed CurrencySession (chase-eligible
// components served from the polynomial copy-order chase) against a
// forced-SAT session (CurrencySession::CreateForcedSatForTesting) over
// the same constraint-free sharded workload — the Theorem 6.1 fast path
// of src/core/chase.h made measurable end to end.
//
// Like bench_serve this is plain C++ on the shared harness
// (bench/harness.h): it reports latency percentiles and machine-readable
// JSON for scripts/bench.sh (BENCH_chase.json), self-checks every routed
// answer against the forced-SAT session, and (via --require-speedup=F)
// enforces the cold bring-up speedup floor, so its ctest smoke
// registration doubles as a differential correctness test.
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

#include <string>
#include <vector>

#include "bench/harness.h"
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

core::Specification MakeConstraintFreeSpec(int entities) {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid(bench::PadId("e", e));
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
    Value eid(bench::PadId("f", e));
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

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("bench_chase_routing");
  int entities = 1024;
  int queries = 64;
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

  core::Specification spec = MakeConstraintFreeSpec(entities);
  std::vector<core::CurrencyOrderQuery> cop_queries =
      MakeQueries(entities, queries);

  // Two sessions over the same specification: routed (default) and
  // forced-SAT (the reference the routed answers are diffed against).
  serve::SessionOptions options;
  options.num_threads = threads;

  // Cold start: Create + first CpsCheck.  Routed chases every component;
  // forced builds and base-solves every SAT encoder.
  bench::Series cold_routed{"cold_create_plus_cps_routed"};
  bench::Series cold_forced{"cold_create_plus_cps_forced_sat"};
  double t0 = bench::NowMs();
  auto routed = serve::CurrencySession::Create(spec, options);
  if (!routed.ok()) return report.Fail(routed.status().ToString());
  auto routed_cps = (*routed)->CpsCheck();
  cold_routed.samples_ms.push_back(bench::NowMs() - t0);
  t0 = bench::NowMs();
  auto forced =
      serve::CurrencySession::CreateForcedSatForTesting(spec, options);
  if (!forced.ok()) return report.Fail(forced.status().ToString());
  auto forced_cps = (*forced)->CpsCheck();
  cold_forced.samples_ms.push_back(bench::NowMs() - t0);
  if (!routed_cps.ok() || !forced_cps.ok()) return report.Fail("CPS errored");
  if (!*routed_cps || !*forced_cps) return report.Fail("workload must be SAT");
  if ((*routed)->stats().base_solves != 0) {
    return report.Fail("a constraint-free routed session must never SAT-solve");
  }
  if ((*routed)->stats().chase_solves != (*routed)->num_components()) {
    return report.Fail("every component must be chase-solved exactly once");
  }

  // Warm COP batches: per-query latency, routed vs forced, answers
  // diffed element-wise every iteration.
  bench::Series warm_routed{"warm_batch_cop_per_query_routed"};
  bench::Series warm_forced{"warm_batch_cop_per_query_forced_sat"};
  for (int it = 0; it < iters; ++it) {
    t0 = bench::NowMs();
    auto a = (*routed)->CopBatch(cop_queries);
    double routed_per_query = (bench::NowMs() - t0) / queries;
    t0 = bench::NowMs();
    auto b = (*forced)->CopBatch(cop_queries);
    double forced_per_query = (bench::NowMs() - t0) / queries;
    if (!a.ok() || !b.ok()) return report.Fail("CopBatch errored");
    for (int k = 0; k < queries; ++k) {
      if ((*a)[k] != (*b)[k]) {
        return report.Fail("routed COP answer differs from forced-SAT");
      }
      bool expected = k % 2 == 0;  // planted: certain pair alone is true
      if ((*a)[k] != expected) {
        return report.Fail("COP answer differs from planted");
      }
      warm_routed.samples_ms.push_back(routed_per_query);
      warm_forced.samples_ms.push_back(forced_per_query);
    }
  }

  // Mutate one tuple (rotating entity; B is copy-free so answers are
  // unaffected) then re-run the batch: exactly one component re-chases
  // (routed) / re-solves (forced), everything else is adopted.
  bench::Series mutate_routed{"mutate_one_tuple_plus_batch_routed"};
  bench::Series mutate_forced{"mutate_one_tuple_plus_batch_forced_sat"};
  for (int it = 0; it < iters; ++it) {
    int e = it % entities;
    core::TupleEdit edit{0, e * kGroup + 1, 2, Value(100 + it)};
    t0 = bench::NowMs();
    Status sa = (*routed)->Mutate({edit});
    auto a = (*routed)->CopBatch(cop_queries);
    mutate_routed.samples_ms.push_back(bench::NowMs() - t0);
    t0 = bench::NowMs();
    Status sb = (*forced)->Mutate({edit});
    auto b = (*forced)->CopBatch(cop_queries);
    mutate_forced.samples_ms.push_back(bench::NowMs() - t0);
    if (!sa.ok() || !sb.ok()) return report.Fail("Mutate errored");
    if (!a.ok() || !b.ok()) return report.Fail("post-mutate CopBatch errored");
    if (*a != *b) return report.Fail("post-mutate answers diverge");
    if ((*routed)->stats().last_chase_rechased != 1) {
      return report.Fail(
          "a one-tuple edit must re-chase exactly one component");
    }
    if ((*routed)->stats().last_chase_reused !=
        (*routed)->num_components() - 1) {
      return report.Fail(
          "every untouched component must re-adopt its fixpoint");
    }
    if ((*forced)->stats().last_invalidated != 1) {
      return report.Fail(
          "a one-tuple edit must invalidate exactly one component");
    }
  }

  report.Workload("entities", entities);
  report.Workload("components", (*routed)->num_components());
  report.Workload("queries", queries);
  report.Workload("iters", iters);
  report.Workload("threads", threads);
  for (const bench::Series* series :
       {&cold_routed, &cold_forced, &warm_routed, &warm_forced,
        &mutate_routed, &mutate_forced}) {
    report.Row(*series);
  }
  report.Ratio("speedup_warm_cop_routed_vs_forced_p50",
               warm_routed.Percentile(0.5) > 0
                   ? warm_forced.Percentile(0.5) / warm_routed.Percentile(0.5)
                   : 0.0);
  report.Ratio("speedup_cold_routed_vs_forced",
               cold_routed.samples_ms[0] > 0
                   ? cold_forced.samples_ms[0] / cold_routed.samples_ms[0]
                   : 0.0);
  report.Floor("speedup_cold_routed_vs_forced", require_speedup,
               "cold bring-up speedup %.2fx below the required %.2fx");
  return report.Write();
}
