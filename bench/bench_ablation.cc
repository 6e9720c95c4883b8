// Ablations for the design choices called out in DESIGN.md §5:
//   1. seeding the SAT encoder with the chase/Horn-closure certain prefix
//      (on/off) on hard consistency instances;
//   2. the Proposition 6.3 SP fast path vs the general CEGAR solver on
//      identical SP workloads (the PTIME/exponential crossover);
//   3. chase fixpoint cost as copy chains deepen (propagation distance).

#include <benchmark/benchmark.h>

#include <random>

#include "src/core/ccqa.h"
#include "src/core/chase.h"
#include "src/core/consistency.h"
#include "src/core/sp_ccqa.h"
#include "src/query/parser.h"
#include "src/reductions/to_cps.h"

namespace {

using namespace currency;  // NOLINT

// --- 1. Encoder seeding ----------------------------------------------------
//
// Family: N employees with three stale records each under ϕ1–ϕ3 — the
// Horn closure derives a dense certain prefix (salary units from ϕ1, then
// address/status/LN pairs), which the seeded encoder receives as unit
// clauses.  (On gadgets without value-derived units, e.g. Betweenness,
// seeding is a no-op by construction.)

core::Specification MakeConstraintRichSpec(int employees) {
  core::Specification spec;
  Schema schema =
      Schema::Make("Emp", {"LN", "address", "salary", "status"}).value();
  Relation emp(schema);
  for (int e = 0; e < employees; ++e) {
    Value eid("p" + std::to_string(e));
    (void)emp.AppendValues(
        {eid, Value("A"), Value("Old"), Value(50), Value("single")});
    (void)emp.AppendValues(
        {eid, Value("B"), Value("Mid"), Value(60), Value("married")});
    (void)emp.AppendValues(
        {eid, Value("B"), Value("New"), Value(80), Value("married")});
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(emp)));
  (void)spec.AddConstraintText(
      "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s");
  (void)spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[LN] s");
  (void)spec.AddConstraintText(
      "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s");
  return spec;
}

void RunCpsSeeding(benchmark::State& state, bool seed) {
  const int employees = static_cast<int>(state.range(0));
  core::Specification spec = MakeConstraintRichSpec(employees);
  core::CpsOptions options;
  options.encoder.seed_with_chase = seed;
  for (auto _ : state) {
    auto outcome = core::DecideConsistency(spec, options);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetLabel(seed ? "encoder seeded with certain prefix"
                      : "raw encoder (no seeding)");
}
void BM_Ablation_SeededEncoder(benchmark::State& state) {
  RunCpsSeeding(state, true);
}
void BM_Ablation_UnseededEncoder(benchmark::State& state) {
  RunCpsSeeding(state, false);
}
BENCHMARK(BM_Ablation_SeededEncoder)
    ->RangeMultiplier(4)
    ->Range(8, 128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_UnseededEncoder)
    ->RangeMultiplier(4)
    ->Range(8, 128)
    ->Unit(benchmark::kMillisecond);

// --- 2. SP fast path vs general solver -------------------------------------

core::Specification MakeSpWorkload(int entities) {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid("e" + std::to_string(e));
    (void)r.AppendValues({eid, Value(e % 31), Value(0)});
    (void)r.AppendValues({eid, Value((e + 1) % 31), Value(1)});
  }
  core::TemporalInstance rinst(std::move(r));
  for (int e = 0; e < entities; e += 2) {
    (void)rinst.AddOrder(1, 2 * e, 2 * e + 1);
  }
  (void)spec.AddInstance(std::move(rinst));
  return spec;
}

void RunSpPath(benchmark::State& state, bool fast) {
  const int entities = static_cast<int>(state.range(0));
  core::Specification spec = MakeSpWorkload(entities);
  query::Query q =
      query::ParseQuery("Q(x) := EXISTS e, y: R(e, x, y) AND x = 7").value();
  // Chase routing answers the SP query by Proposition 6.3 on every
  // (constraint-free, hence chase-eligible) component; off, the same
  // query runs the general blocking loop on SAT.
  core::CcqaOptions options;
  options.use_chase_routing = fast;
  for (auto _ : state) {
    auto answers = core::CertainCurrentAnswers(spec, q, options);
    benchmark::DoNotOptimize(answers);
  }
  state.SetLabel(fast ? "Prop 6.3 poss(S) fast path"
                      : "general CEGAR solver on the same SP query");
}
void BM_Ablation_SpFastPath(benchmark::State& state) {
  RunSpPath(state, true);
}
void BM_Ablation_SpGeneralPath(benchmark::State& state) {
  RunSpPath(state, false);
}
BENCHMARK(BM_Ablation_SpFastPath)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_SpGeneralPath)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->Unit(benchmark::kMillisecond);

// --- 3. Chase propagation depth ---------------------------------------------

void BM_Ablation_ChaseDepth(benchmark::State& state) {
  // A chain of `depth` relations, each copying from the previous; an
  // order asserted at the root must propagate to the leaf.
  const int depth = static_cast<int>(state.range(0));
  core::Specification spec;
  Schema root_schema = Schema::Make("R0", {"A"}).value();
  Relation root(root_schema);
  (void)root.AppendValues({Value("e"), Value(0)});
  (void)root.AppendValues({Value("e"), Value(1)});
  core::TemporalInstance root_inst(std::move(root));
  (void)root_inst.AddOrder(1, 0, 1);
  (void)spec.AddInstance(std::move(root_inst));
  for (int d = 1; d < depth; ++d) {
    Schema s = Schema::Make("R" + std::to_string(d), {"A"}).value();
    Relation rel(s);
    (void)rel.AppendValues({Value("e"), Value(0)});
    (void)rel.AppendValues({Value("e"), Value(1)});
    (void)spec.AddInstance(core::TemporalInstance(std::move(rel)));
    copy::CopySignature sig;
    sig.target_relation = "R" + std::to_string(d);
    sig.target_attrs = {"A"};
    sig.source_relation = "R" + std::to_string(d - 1);
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    (void)fn.Map(0, 0);
    (void)fn.Map(1, 1);
    (void)spec.AddCopyFunction(std::move(fn));
  }
  int passes = 0;
  for (auto _ : state) {
    auto chase = core::ChaseCopyOrders(spec);
    passes = chase->passes;
    benchmark::DoNotOptimize(chase);
  }
  state.counters["passes"] = passes;
  state.SetLabel("copy-chain propagation to fixpoint");
}
BENCHMARK(BM_Ablation_ChaseDepth)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
