// Ablations for the design choices described in docs/ARCHITECTURE.md
// ("Two evaluation paths" and its "Routing" section):
//   1. the Proposition 6.3 SP fast path vs the general CEGAR solver on
//      identical SP workloads (the PTIME/exponential crossover);
//   2. chase fixpoint cost as copy chains deepen (propagation distance).

#include <benchmark/benchmark.h>

#include "src/core/ccqa.h"
#include "src/core/decompose.h"
#include "src/query/parser.h"
#include "tests/support/forced_sat.h"

namespace {

using namespace currency;  // NOLINT

// --- 1. SP fast path vs general solver -------------------------------------

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
  // (constraint-free, single-group, hence chase-enumerable) component;
  // the forced-SAT reference runs the general blocking loop on the same
  // query.
  for (auto _ : state) {
    auto answers =
        fast ? core::CertainCurrentAnswers(spec, q)
             : currency::testing::ForcedSatCertainAnswers(spec, q);
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

// --- 2. Chase propagation depth ---------------------------------------------

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
  // Every relation's one entity is copy-coupled to the next: the chain is
  // one component, chased as the engine chases it.
  auto engine = core::DecomposedEncoder::Build(spec, {},
                                               /*use_chase_routing=*/true);
  if (!engine.ok() || (*engine)->num_components() != 1) {
    state.SkipWithError("the copy chain is not one component");
    return;
  }
  int passes = 0;
  for (auto _ : state) {
    auto chase = (*engine)->BuildComponentChase(0);
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
