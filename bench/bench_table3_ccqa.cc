// Table III, CCQA row — empirical regeneration.
//
// Paper claims (Theorem 3.5, Corollary 3.7, Proposition 6.3):
//   * combined complexity Πp2-complete for CQ/UCQ/∃FO+ (∀∃3CNF family),
//   * PSPACE-complete for FO (Q3SAT family),
//   * coNP-complete data complexity even with a fixed CQ (3SAT family),
//   * PTIME for SP queries without denial constraints,
//   * with denial constraints, even identity queries stay coNP-hard —
//     the SP-without-constraints cell is the only tractable one.

#include <benchmark/benchmark.h>

#include <random>

#include "src/core/ccqa.h"
#include "src/query/parser.h"
#include "src/reductions/to_ccqa.h"

namespace {

using namespace currency;  // NOLINT

// Πp2-hard family: ∀-variable count = range(0); the general solver must
// refute 2^range(0) current instances.
void BM_CcqaCq_PiP2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937 rng(5);
  sat::Qbf qbf = sat::RandomQbf({n, 2}, /*first_exists=*/false, n + 2,
                                /*cnf=*/true, &rng);
  auto gadget = reductions::PiP2ToCcqa(qbf);
  for (auto _ : state) {
    auto certain = core::IsCertainCurrentAnswer(gadget->spec, gadget->query,
                                                gadget->candidate);
    benchmark::DoNotOptimize(certain);
  }
  state.counters["forall_vars"] = n;
  state.SetLabel("Πp2-hard family, CQ (Thm 3.5(1), Fig. 2)");
}
BENCHMARK(BM_CcqaCq_PiP2)->DenseRange(1, 7)->Unit(benchmark::kMillisecond);

// PSPACE-hard family: FO query with range(0) quantified variables over a
// rigid instance (active-domain evaluation).
void BM_CcqaFo_Q3Sat(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  std::mt19937 rng(9);
  std::vector<int> shape(vars, 1);
  sat::Qbf qbf = sat::RandomQbf(shape, /*first_exists=*/true, vars + 2,
                                /*cnf=*/true, &rng);
  auto gadget = reductions::Q3SatToCcqaFo(qbf);
  for (auto _ : state) {
    auto certain = core::IsCertainCurrentAnswer(gadget->spec, gadget->query,
                                                gadget->candidate);
    benchmark::DoNotOptimize(certain);
  }
  state.SetLabel("PSPACE-hard family, FO (Thm 3.5(2))");
}
BENCHMARK(BM_CcqaFo_Q3Sat)->DenseRange(2, 8)->Unit(benchmark::kMillisecond);

// coNP-hard data-complexity family: the query is FIXED; only the data
// grows with the 3SAT instance.
void BM_CcqaData_Sat3(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  std::mt19937 rng(13);
  sat::Qbf qbf = sat::RandomQbf({vars}, /*first_exists=*/true, 2 * vars,
                                /*cnf=*/true, &rng);
  auto gadget = reductions::Sat3ToCcqaData(qbf);
  for (auto _ : state) {
    auto certain = core::IsCertainCurrentAnswer(gadget->spec, gadget->query,
                                                gadget->candidate);
    benchmark::DoNotOptimize(certain);
  }
  state.counters["tuples"] = 2.0 * vars + 6.0 * qbf.terms.size();
  state.SetLabel("coNP-hard family, fixed CQ (Thm 3.5, data)");
}
BENCHMARK(BM_CcqaData_Sat3)->DenseRange(2, 8)->Unit(benchmark::kMillisecond);

// Tractable cell: SP query, no denial constraints (Proposition 6.3) —
// the one-shot answers every entity's singleton component by the poss(S)
// construction on its chase fixpoint, which scales to thousands of
// entities.
core::Specification MakeSpWorkload(int entities) {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid("e" + std::to_string(e));
    (void)r.AppendValues({eid, Value(e % 97), Value(0)});
    (void)r.AppendValues({eid, Value((e + 1) % 97), Value(1)});
  }
  core::TemporalInstance rinst(std::move(r));
  for (int e = 0; e < entities; e += 2) {
    (void)rinst.AddOrder(1, 2 * e, 2 * e + 1);  // half the entities ordered
  }
  (void)spec.AddInstance(std::move(rinst));
  return spec;
}

void BM_CcqaSp_Ptime(benchmark::State& state) {
  const int entities = static_cast<int>(state.range(0));
  core::Specification spec = MakeSpWorkload(entities);
  query::Query q =
      query::ParseQuery("Q(x) := EXISTS e, y: R(e, x, y) AND x = 13").value();
  for (auto _ : state) {
    auto answers = core::CertainCurrentAnswers(spec, q);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["entities"] = entities;
  state.SetLabel("PTIME: SP query, no constraints (Prop 6.3)");
}
BENCHMARK(BM_CcqaSp_Ptime)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

// Corollary 3.7's contrast: an identity query stays expensive once denial
// constraints enter — the same data with one constraint forces the
// general solver.
void BM_CcqaIdentity_WithConstraints(benchmark::State& state) {
  const int entities = static_cast<int>(state.range(0));
  core::Specification spec = MakeSpWorkload(entities);
  (void)spec.AddConstraintText(
      "FORALL s, t IN R: s.A > t.A -> t PREC[A] s");
  query::Query q = query::ParseQuery("Q(e, x, y) := R(e, x, y)").value();
  for (auto _ : state) {
    auto answers = core::CertainCurrentAnswers(spec, q);
    benchmark::DoNotOptimize(answers);
  }
  state.SetLabel("identity query + constraints (Cor 3.7): general solver");
}
BENCHMARK(BM_CcqaIdentity_WithConstraints)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
