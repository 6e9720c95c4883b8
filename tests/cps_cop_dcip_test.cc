// Tests for the three reasoning problems of Section 3 — CPS (consistency),
// COP (certain ordering), DCIP (deterministic current instance) — on the
// paper's examples and against the brute-force oracle, including the
// PTIME special cases of Theorem 6.1.

#include <gtest/gtest.h>

#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "src/core/deterministic.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"
#include "tests/support/brute_force.h"
#include "tests/support/forced_sat.h"
#include "tests/support/monolithic.h"
#include "tests/support/whole_spec.h"

namespace currency::core {
namespace {

using currency::testing::ChaseWholeSpec;
using currency::testing::MakeRandomSpec;
using currency::testing::MakeS0;

AttrIndex EmpAttr(const Specification& spec, const char* name) {
  return spec.instance(0).schema().IndexOf(name).value();
}

TEST(CpsTest, S0IsConsistent) {
  Specification s0 = MakeS0();
  auto outcome = DecideConsistency(s0);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->consistent);
  EXPECT_EQ(outcome->components, 3);
}

TEST(CpsTest, WitnessIsAConsistentCompletion) {
  Specification s0 = MakeS0();
  CpsOptions options;
  options.want_witness = true;
  auto outcome = DecideConsistency(s0, options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->witness.has_value());
  EXPECT_TRUE(IsConsistentCompletion(s0, *outcome->witness).value());
}

TEST(CpsTest, Example23CopyInteractionInconsistency) {
  // Example 2.3 (second part): a source D1 holding Dept-shaped tuples with
  // s'3 ≺_budget s'1, copied into t1 and t3, contradicts ϕ1/ϕ3/ϕ4 + ρ,
  // which force t1 ≺_budget t3.
  Specification s0 = MakeS0();
  Schema d1_schema =
      Schema::Make("D1", {"mgrFN", "mgrLN", "mgrAddr", "budget"}, "dname")
          .value();
  Relation d1(d1_schema);
  ASSERT_TRUE(d1.AppendValues({Value("RnD"), Value("Mary"), Value("Smith"),
                               Value("2 Small St"), Value(6500)})
                  .ok());  // s'1 = t1's values
  ASSERT_TRUE(d1.AppendValues({Value("RnD"), Value("Mary"), Value("Dupont"),
                               Value("6 Main St"), Value(6000)})
                  .ok());  // s'3 = t3's values
  TemporalInstance d1_inst(std::move(d1));
  ASSERT_TRUE(d1_inst.AddOrderByName("budget", 1, 0).ok());  // s'3 ≺ s'1
  ASSERT_TRUE(s0.AddInstance(std::move(d1_inst)).ok());
  copy::CopySignature sig;
  sig.target_relation = "Dept";
  sig.target_attrs = {"budget"};
  sig.source_relation = "D1";
  sig.source_attrs = {"budget"};
  copy::CopyFunction rho1(sig);
  ASSERT_TRUE(rho1.Map(0, 0).ok());  // t1 ⇐ s'1
  ASSERT_TRUE(rho1.Map(2, 1).ok());  // t3 ⇐ s'3
  ASSERT_TRUE(s0.AddCopyFunction(std::move(rho1)).ok());

  auto outcome = DecideConsistency(s0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->consistent);
  // The oracle agrees.
  EXPECT_FALSE(BruteForceConsistent(s0).value());
}

TEST(CpsTest, ContradictoryConstraintsAreInconsistent) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  // A > forces 0 ≺ 1, A < forces 1 ≺ 0.
  ASSERT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A > t.A -> t PREC[A] s")
          .ok());
  ASSERT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A < t.A -> t PREC[A] s")
          .ok());
  EXPECT_FALSE(DecideConsistency(spec)->consistent);
}

TEST(CpsTest, PtimePathOnCopyChains) {
  // Chain R2 ⇐ R with an initial source order and no constraints: the
  // chase decides consistency in PTIME (Theorem 6.1).
  Specification spec = MakeRandomSpec(7, /*with_copy=*/true,
                                      /*with_constraints=*/false);
  // Every coupling component is chase-eligible, so the one-shot call
  // decides each by its chase fixpoint and agrees with the whole-spec
  // chase.
  const Decomposition decomposition = Decomposition::Build(spec).value();
  for (int c = 0; c < decomposition.num_components(); ++c) {
    EXPECT_TRUE(decomposition.chase_eligible(c)) << "component " << c;
  }
  auto outcome = DecideConsistency(spec);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->components, decomposition.num_components());
  EXPECT_EQ(outcome->consistent, ChaseWholeSpec(spec)->consistent);
  EXPECT_EQ(outcome->consistent, BruteForceConsistent(spec).value());
}

TEST(ChaseTest, PropagatesBothDirections) {
  // R2[C] ⇐ R[A]: source order propagates to target, target to source.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2)}).ok());
  TemporalInstance rinst(std::move(r));
  ASSERT_TRUE(rinst.AddOrderByName("A", 0, 1).ok());
  ASSERT_TRUE(spec.AddInstance(std::move(rinst)).ok());
  Schema r2s = Schema::Make("R2", {"C", "D"}).value();
  Relation r2(r2s);
  ASSERT_TRUE(r2.AppendValues({Value("f"), Value(1), Value(9)}).ok());
  ASSERT_TRUE(r2.AppendValues({Value("f"), Value(2), Value(8)}).ok());
  TemporalInstance r2inst(std::move(r2));
  ASSERT_TRUE(r2inst.AddOrderByName("D", 1, 0).ok());  // independent attr
  ASSERT_TRUE(spec.AddInstance(std::move(r2inst)).ok());
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  ASSERT_TRUE(fn.Map(0, 0).ok());
  ASSERT_TRUE(fn.Map(1, 1).ok());
  ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());

  auto chase = ChaseWholeSpec(spec);
  ASSERT_TRUE(chase.ok());
  EXPECT_TRUE(chase->consistent);
  // The engine's component chase derives the same orders.
  const Status same = currency::testing::CompareComponentChases(spec);
  EXPECT_TRUE(same.ok()) << same;
  AttrIndex c_attr = spec.instance(1).schema().IndexOf("C").value();
  EXPECT_TRUE(chase->certain_orders[1][c_attr].Less(0, 1));  // inherited
  AttrIndex d_attr = spec.instance(1).schema().IndexOf("D").value();
  EXPECT_TRUE(chase->certain_orders[1][d_attr].Less(1, 0));  // untouched
  EXPECT_FALSE(chase->certain_orders[1][d_attr].Less(0, 1));
}

TEST(ChaseTest, CertainTargetOrderForcesTheSourceOrder) {
  // R2[C] ⇐ R[A] with an initial order on the target only.  Were r1 ≺ r0
  // in some completion, ≺-compatibility would force t1 ≺ t0; so t0 ≺ t1
  // makes r0 ≺ r1 certain (Theorem 6.1's target-to-source step).
  Specification spec;
  Relation r(Schema::Make("R", {"A"}).value());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  Relation r2(Schema::Make("R2", {"C"}).value());
  ASSERT_TRUE(r2.AppendValues({Value("f"), Value(1)}).ok());
  ASSERT_TRUE(r2.AppendValues({Value("f"), Value(2)}).ok());
  TemporalInstance r2inst(std::move(r2));
  ASSERT_TRUE(r2inst.AddOrderByName("C", 0, 1).ok());
  ASSERT_TRUE(spec.AddInstance(std::move(r2inst)).ok());
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  ASSERT_TRUE(fn.Map(0, 0).ok());
  ASSERT_TRUE(fn.Map(1, 1).ok());
  ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());

  auto chase = ChaseWholeSpec(spec);
  ASSERT_TRUE(chase.ok());
  ASSERT_TRUE(chase->consistent);
  EXPECT_TRUE(chase->certain_orders[0][1].Less(0, 1));
  const Status same = currency::testing::CompareComponentChases(spec);
  EXPECT_TRUE(same.ok()) << same;
  CurrencyOrderQuery q;
  q.relation = "R";
  q.pairs = {{1, 0, 1}};
  EXPECT_TRUE(IsCertainOrder(spec, q).value());
  EXPECT_TRUE(BruteForceCertainOrder(spec, q).value());
}

TEST(ChaseTest, DetectsCopyCycleInconsistency) {
  // Target initially ordered against the source order: inconsistent.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2)}).ok());
  TemporalInstance rinst(std::move(r));
  ASSERT_TRUE(rinst.AddOrderByName("A", 0, 1).ok());
  ASSERT_TRUE(spec.AddInstance(std::move(rinst)).ok());
  Schema r2s = Schema::Make("R2", {"C"}).value();
  Relation r2(r2s);
  ASSERT_TRUE(r2.AppendValues({Value("f"), Value(1)}).ok());
  ASSERT_TRUE(r2.AppendValues({Value("f"), Value(2)}).ok());
  TemporalInstance r2inst(std::move(r2));
  ASSERT_TRUE(r2inst.AddOrderByName("C", 1, 0).ok());  // against the source
  ASSERT_TRUE(spec.AddInstance(std::move(r2inst)).ok());
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  ASSERT_TRUE(fn.Map(0, 0).ok());
  ASSERT_TRUE(fn.Map(1, 1).ok());
  ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());

  auto chase = ChaseWholeSpec(spec);
  ASSERT_TRUE(chase.ok());
  EXPECT_FALSE(chase->consistent);
  const Status same = currency::testing::CompareComponentChases(spec);
  EXPECT_TRUE(same.ok()) << same;
  EXPECT_FALSE(DecideConsistency(spec)->consistent);
  EXPECT_FALSE(BruteForceConsistent(spec).value());
}

TEST(CopTest, Example32CertainSalaryOrder) {
  Specification s0 = MakeS0();
  // s1 ≺_salary s3 is certain (forced by ϕ1).
  CurrencyOrderQuery q;
  q.relation = "Emp";
  q.pairs = {{EmpAttr(s0, "salary"), 0, 2}};
  EXPECT_TRUE(IsCertainOrder(s0, q).value());
  EXPECT_TRUE(BruteForceCertainOrder(s0, q).value());

  // t3 ≺_mgrFN t4 is NOT certain (Example 3.2's O't).
  CurrencyOrderQuery q2;
  q2.relation = "Dept";
  AttrIndex mgr_fn = s0.instance(1).schema().IndexOf("mgrFN").value();
  q2.pairs = {{mgr_fn, 2, 3}};
  EXPECT_FALSE(IsCertainOrder(s0, q2).value());
  EXPECT_FALSE(BruteForceCertainOrder(s0, q2).value());

  // Order-free pairs: no order atom or copy function mentions Emp.FN or
  // Dept.mgrFN, so such a pair is certain iff the initial order has it,
  // or vacuously when Mod(S) = ∅.  Mary's Emp group is copy-coupled to
  // Dept's RnD group and ϕ1–ϕ4 ground on both, so every pair below lives
  // on one SAT-routed component, one-shot and served alike.
  AttrIndex fn = EmpAttr(s0, "FN");
  AttrIndex salary = EmpAttr(s0, "salary");
  Specification fn_ordered = MakeS0();
  ASSERT_TRUE(fn_ordered.mutable_instance(0)->AddOrder(fn, 0, 1).ok());
  Specification inconsistent = fn_ordered;
  ASSERT_TRUE(inconsistent
                  .AddConstraintText("FORALL s, t IN Emp: s.salary > t.salary "
                                     "-> s PREC[salary] t")
                  .ok());  // contradicts ϕ1 on s1, s3
  ASSERT_FALSE(s0.OrderBound(0, fn));
  ASSERT_FALSE(inconsistent.OrderBound(0, fn));
  auto engine = DecomposedEncoder::Build(fn_ordered, {}, true).value();
  EXPECT_FALSE(engine->chase_routed(
      engine->decomposition().ComponentOf(0, Value("Mary"))));
  EXPECT_EQ(engine->decomposition().ComponentOf(0, Value("Mary")),
            engine->decomposition().ComponentOf(1, Value("RnD")));

  auto emp = [](std::vector<RequiredPair> pairs) {
    CurrencyOrderQuery q;
    q.relation = "Emp";
    q.pairs = std::move(pairs);
    return q;
  };
  const std::vector<CurrencyOrderQuery> queries = {
      emp({{fn, 0, 1}}),                   // initial: certain
      emp({{fn, 1, 0}}),                   // reversed initial pair
      emp({{fn, 0, 2}}),                   // incomparable initially
      emp({{salary, 0, 2}, {fn, 0, 1}}),   // bound + free, both certain
      emp({{fn, 0, 1}, {salary, 2, 0}}),   // the bound pair is refutable
      q2,                                  // Dept.mgrFN, incomparable
  };
  const std::vector<bool> expected = {true, false, false, true, false, false};
  for (const Specification* spec : {&fn_ordered, &inconsistent}) {
    const bool vacuous = spec == &inconsistent;
    SCOPED_TRACE(vacuous ? "Mod(S) = ∅" : "consistent");
    // Brute force, one enumeration for the whole batch: a query is certain
    // iff every consistent completion has all of its pairs.
    std::vector<bool> brute(queries.size(), true);
    ASSERT_TRUE(EnumerateConsistentCompletions(
                    *spec,
                    [&](const Completion& c) {
                      for (size_t i = 0; i < queries.size(); ++i) {
                        int inst = spec->InstanceIndex(queries[i].relation)
                                       .value();
                        for (const RequiredPair& p : queries[i].pairs) {
                          if (!c.orders[inst][p.attr].Less(p.before,
                                                           p.after)) {
                            brute[i] = false;
                          }
                        }
                      }
                      return true;
                    })
                    .ok());
    auto session = serve::CurrencySession::Create(*spec).value();
    auto served = session->CopBatch(queries);
    ASSERT_TRUE(served.ok()) << served.status();
    for (size_t i = 0; i < queries.size(); ++i) {
      const bool want = vacuous || expected[i];
      EXPECT_EQ(brute[i], want) << i;
      EXPECT_EQ(IsCertainOrder(*spec, queries[i]).value(), want) << i;
      EXPECT_EQ((*served)[i], want) << i;
    }
  }
}

TEST(CopTest, CopiedOrderIsCertain) {
  Specification s0 = MakeS0();
  // ϕ1+ϕ3 force s1 ≺_address s3 in Emp; ρ transfers it to Dept:
  // t1 ≺_mgrAddr t3 and t2 ≺_mgrAddr t3 are certain; with ϕ4 also
  // t1 ≺_budget t3.
  AttrIndex mgr_addr = s0.instance(1).schema().IndexOf("mgrAddr").value();
  AttrIndex budget = s0.instance(1).schema().IndexOf("budget").value();
  CurrencyOrderQuery q;
  q.relation = "Dept";
  q.pairs = {{mgr_addr, 0, 2}, {mgr_addr, 1, 2}, {budget, 0, 2}};
  EXPECT_TRUE(IsCertainOrder(s0, q).value());
  EXPECT_TRUE(BruteForceCertainOrder(s0, q).value());
}

TEST(CopTest, DegeneratePairs) {
  Specification s0 = MakeS0();
  // Reflexive pair: never in a strict order.
  CurrencyOrderQuery reflexive;
  reflexive.relation = "Emp";
  reflexive.pairs = {{EmpAttr(s0, "salary"), 0, 0}};
  EXPECT_FALSE(IsCertainOrder(s0, reflexive).value());
  // Cross-entity pair (s3 Mary vs s4 Bob): never comparable.
  CurrencyOrderQuery cross;
  cross.relation = "Emp";
  cross.pairs = {{EmpAttr(s0, "salary"), 2, 3}};
  EXPECT_FALSE(IsCertainOrder(s0, cross).value());
  // Empty order: vacuously certain.
  CurrencyOrderQuery empty;
  empty.relation = "Emp";
  EXPECT_TRUE(IsCertainOrder(s0, empty).value());
}

TEST(CopTest, VacuouslyTrueOnInconsistentSpec) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  ASSERT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A > t.A -> t PREC[A] s")
          .ok());
  ASSERT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A < t.A -> t PREC[A] s")
          .ok());
  CurrencyOrderQuery q;
  q.relation = "R";
  q.pairs = {{1, 0, 0}};  // even a reflexive pair is vacuously certain
  EXPECT_TRUE(IsCertainOrder(spec, q).value());
}

TEST(DcipTest, Example33EmpIsDeterministic) {
  Specification s0 = MakeS0();
  EXPECT_TRUE(IsDeterministicForRelation(s0, "Emp").value());
  EXPECT_TRUE(BruteForceDeterministic(s0, "Emp").value());
}

TEST(DcipTest, DeptIsNotDeterministic) {
  // t3 and t4 can each be most current in mgrFN (Mary vs Ed).
  Specification s0 = MakeS0();
  EXPECT_FALSE(IsDeterministicForRelation(s0, "Dept").value());
  EXPECT_FALSE(BruteForceDeterministic(s0, "Dept").value());
  EXPECT_FALSE(IsDeterministic(s0).value());
}

TEST(DcipTest, SingletonGroupsAreDeterministic) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e1"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e2"), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  EXPECT_TRUE(IsDeterministicForRelation(spec, "R").value());
}

TEST(DcipTest, EqualValuesKeepDeterminism) {
  // Two orderings exist but both tuples carry the same A value, so the
  // current instance never changes.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(7)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(7)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  EXPECT_TRUE(IsDeterministicForRelation(spec, "R").value());
  EXPECT_TRUE(BruteForceDeterministic(spec, "R").value());
}

TEST(DcipTest, BaselinesSnapshottedBeforeAssumptionSolves) {
  // Regression guard for the baseline-read protocol of DeterministicViaSat:
  // group e1 is deterministic (its alternative probes come back UNSAT),
  // group e2 is not.  The e2 baseline used to be read from the solver's
  // model AFTER e1's failed assumption solves, silently relying on UNSAT
  // calls preserving the model; baselines are now snapshotted before any
  // probe, so this answers correctly even with a solver that clears its
  // model on UNSAT.  The monolithic reference keeps both groups in one
  // encoder, which is the arrangement that exercised the stale-model read.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e1"), Value(1)}).ok());  // 0
  ASSERT_TRUE(r.AppendValues({Value("e1"), Value(2)}).ok());  // 1
  ASSERT_TRUE(r.AppendValues({Value("e2"), Value(1)}).ok());  // 2
  ASSERT_TRUE(r.AppendValues({Value("e2"), Value(2)}).ok());  // 3
  TemporalInstance inst(std::move(r));
  ASSERT_TRUE(inst.AddOrder(1, 0, 1).ok());  // e1 pinned: 1 ≺ 2
  ASSERT_TRUE(spec.AddInstance(std::move(inst)).ok());

  // Forced onto the SAT path.
  auto det = currency::testing::ForcedSatDeterministicForRelation(spec, "R");
  ASSERT_TRUE(det.ok()) << det.status();
  EXPECT_FALSE(*det);  // e2 is free in both directions
  auto mono = currency::testing::MonolithicDeterministic(spec, "R");
  ASSERT_TRUE(mono.ok()) << mono.status();
  EXPECT_FALSE(*mono);
  EXPECT_FALSE(BruteForceDeterministic(spec, "R").value());
}

// Property sweep: solver answers equal the brute-force oracle on random
// specifications, with and without copy functions / constraints, for all
// three problems.
class SolversVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(SolversVsOracle, CpsCopDcipAgree) {
  for (int variant = 0; variant < 4; ++variant) {
    Specification spec =
        MakeRandomSpec(GetParam() * 101 + variant, variant & 1, variant & 2);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(variant));
    // CPS.
    EXPECT_EQ(DecideConsistency(spec)->consistent,
              BruteForceConsistent(spec).value());
    // COP on a handful of pairs.
    CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {{1, 0, 1}};
    EXPECT_EQ(IsCertainOrder(spec, q).value(),
              BruteForceCertainOrder(spec, q).value());
    q.pairs = {{2, 1, 0}};
    EXPECT_EQ(IsCertainOrder(spec, q).value(),
              BruteForceCertainOrder(spec, q).value());
    // DCIP.
    EXPECT_EQ(IsDeterministicForRelation(spec, "R").value(),
              BruteForceDeterministic(spec, "R").value());
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SolversVsOracle, ::testing::Range(0, 40));

}  // namespace
}  // namespace currency::core
