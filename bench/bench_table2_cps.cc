// Table II, CPS row — empirical regeneration.
//
// Paper claims: CPS is NP-complete in data complexity (Betweenness
// family), Σp2-complete in combined complexity (∃∀3DNF family), and PTIME
// without denial constraints (Theorem 6.1).
//
// The three benchmark families below demonstrate the claimed shape:
// super-polynomial growth of the exact solver on both hard families, and
// near-linear scaling of the chase on constraint-free copy networks.

#include <benchmark/benchmark.h>

#include <random>

#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "src/reductions/to_cps.h"

namespace {

using namespace currency;  // NOLINT

// Combined complexity: ∃X∀Y 3DNF gadgets with |X| = |Y| = range(0).
void BM_CpsCombined_SigmaP2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937 rng(42);
  sat::Qbf qbf = sat::RandomQbf({n, n}, /*first_exists=*/true, n + 2,
                                /*cnf=*/false, &rng);
  int64_t consistent = 0;
  for (auto _ : state) {
    auto spec = reductions::SigmaP2ToCps(qbf);
    auto outcome = core::DecideConsistency(*spec);
    consistent += outcome->consistent ? 1 : 0;
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["consistent"] = static_cast<double>(consistent > 0);
  state.SetLabel("Σp2-hard family (Thm 3.1)");
}
BENCHMARK(BM_CpsCombined_SigmaP2)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

// Data complexity: Betweenness gadgets with range(0) triples.
void BM_CpsData_Betweenness(benchmark::State& state) {
  const int triples = static_cast<int>(state.range(0));
  std::mt19937 rng(7);
  reductions::BetweennessInstance inst =
      reductions::RandomBetweenness(triples + 2, triples, &rng);
  for (auto _ : state) {
    auto spec = reductions::BetweennessToCps(inst);
    auto outcome = core::DecideConsistency(*spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["rows"] = 6.0 * triples + 1;
  state.SetLabel("NP-hard family (Thm 3.1, data)");
}
BENCHMARK(BM_CpsData_Betweenness)->DenseRange(2, 7)->Unit(benchmark::kMillisecond);

// Tractable case: no denial constraints, copy chain of range(0) tuples —
// the chase decides CPS in PTIME (Theorem 6.1).
void BM_CpsPtime_NoConstraints(benchmark::State& state) {
  const int entities = static_cast<int>(state.range(0));
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid("e" + std::to_string(e));
    (void)r.AppendValues({eid, Value(e)});
    (void)r.AppendValues({eid, Value(e + 1)});
  }
  core::TemporalInstance rinst(std::move(r));
  for (int e = 0; e < entities; ++e) {
    (void)rinst.AddOrder(1, 2 * e, 2 * e + 1);
  }
  (void)spec.AddInstance(std::move(rinst));

  Schema r2s = Schema::Make("R2", {"C"}).value();
  Relation r2(r2s);
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  for (int e = 0; e < entities; ++e) {
    Value eid("f" + std::to_string(e));
    auto t0 = r2.AppendValues({eid, Value(e)});
    auto t1 = r2.AppendValues({eid, Value(e + 1)});
    (void)fn.Map(*t0, 2 * e);
    (void)fn.Map(*t1, 2 * e + 1);
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r2)));
  (void)spec.AddCopyFunction(std::move(fn));

  for (auto _ : state) {
    auto outcome = core::DecideConsistency(spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["tuples"] = 4.0 * entities;
  state.SetLabel("PTIME without constraints (Thm 6.1)");
}
BENCHMARK(BM_CpsPtime_NoConstraints)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMillisecond);

// The chase itself on the same family (fixpoint cost): the engine's
// per-component chase over every component, the route CPS takes.
void BM_ChaseFixpoint(benchmark::State& state) {
  const int entities = static_cast<int>(state.range(0));
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid("e" + std::to_string(e));
    (void)r.AppendValues({eid, Value(0)});
    (void)r.AppendValues({eid, Value(1)});
  }
  core::TemporalInstance rinst(std::move(r));
  for (int e = 0; e < entities; ++e) (void)rinst.AddOrder(1, 2 * e, 2 * e + 1);
  (void)spec.AddInstance(std::move(rinst));
  auto engine = core::DecomposedEncoder::Build(spec, {},
                                               /*use_chase_routing=*/true);
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    for (int c = 0; c < (*engine)->num_components(); ++c) {
      auto chase = (*engine)->BuildComponentChase(c);
      benchmark::DoNotOptimize(chase);
    }
  }
  state.SetLabel("chase fixpoint");
}
BENCHMARK(BM_ChaseFixpoint)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
