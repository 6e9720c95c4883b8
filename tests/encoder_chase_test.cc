// Focused tests for the SAT encoder (cell semantics, completion
// extraction, seeding) and the chase / certain-prefix machinery,
// including the documented Proposition 6.3 corner case.

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/ccqa.h"
#include "src/core/chase.h"
#include "src/core/consistency.h"
#include "src/core/encoder.h"
#include "src/core/sp_ccqa.h"
#include "src/query/parser.h"
#include "tests/fixtures.h"

namespace currency::core {
namespace {

using currency::testing::MakeS0;

TEST(EncoderTest, OrderVarCountsAndPairLookup) {
  Specification s0 = MakeS0();
  // Order-bound attributes: Emp's LN, address, salary and status carry
  // order atoms of ϕ1–ϕ3 (address is also ρ's source), Dept's mgrAddr
  // (ρ's target, ϕ4) and budget (ϕ4).  Nothing mentions Emp.FN,
  // Dept.mgrFN or Dept.mgrLN, so they are order-free.
  const Schema& emp = s0.instance(0).schema();
  const Schema& dept = s0.instance(1).schema();
  for (const char* name : {"LN", "address", "salary", "status"}) {
    EXPECT_TRUE(s0.OrderBound(0, emp.IndexOf(name).value())) << name;
  }
  for (const char* name : {"mgrAddr", "budget"}) {
    EXPECT_TRUE(s0.OrderBound(1, dept.IndexOf(name).value())) << name;
  }
  EXPECT_FALSE(s0.OrderBound(0, emp.IndexOf("FN").value()));
  EXPECT_FALSE(s0.OrderBound(1, dept.IndexOf("mgrFN").value()));
  EXPECT_FALSE(s0.OrderBound(1, dept.IndexOf("mgrLN").value()));
  auto encoder = Encoder::Build(s0).value();
  // Only order-bound attributes get order variables.  Emp: Mary's group
  // of 3 → 3 pairs × 4 bound attrs = 12; Dept: group of 4 → 6 pairs × 2
  // bound attrs = 12.
  EXPECT_EQ(encoder->num_order_vars(), 12 + 12);
  EXPECT_TRUE(encoder->HasPairVar(0, 0, 2));   // Mary tuples
  EXPECT_TRUE(encoder->HasPairVar(0, 2, 0));   // symmetric query
  EXPECT_FALSE(encoder->HasPairVar(0, 2, 3));  // Mary vs Bob
  EXPECT_FALSE(encoder->HasPairVar(0, 1, 1));  // reflexive
}

TEST(EncoderTest, OrdLitOrientationIsConsistent) {
  Specification s0 = MakeS0();
  auto encoder = Encoder::Build(s0).value();
  sat::Lit fwd = encoder->OrdLit(0, 4, 0, 2);
  sat::Lit bwd = encoder->OrdLit(0, 4, 2, 0);
  EXPECT_EQ(fwd, sat::Negate(bwd));  // totality/antisymmetry baked in
}

TEST(EncoderTest, CellsCollapseDuplicateValues) {
  // Two tuples with the same A value: the cell has ONE candidate value.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(7)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(7)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  auto encoder = Encoder::Build(spec).value();
  ASSERT_EQ(encoder->cells().size(), 1u);
  EXPECT_EQ(encoder->cells()[0].values.size(), 1u);
  // The single cell-value literal exists and a bogus value does not.
  EXPECT_TRUE(
      encoder->CellValueLit(0, 1, Value("e"), Value(7)).ok());
  EXPECT_FALSE(
      encoder->CellValueLit(0, 1, Value("e"), Value(8)).ok());
  EXPECT_FALSE(
      encoder->CellValueLit(0, 1, Value("nope"), Value(7)).ok());
}

TEST(EncoderTest, ModelDecodesToConsistentCompletionAndLst) {
  Specification s0 = MakeS0();
  auto encoder = Encoder::Build(s0).value();
  ASSERT_EQ(encoder->solver().Solve(), sat::SolveResult::kSat);
  Completion c = encoder->ExtractCompletion();
  EXPECT_TRUE(IsConsistentCompletion(s0, c).value());
  auto decoded = encoder->DecodeCurrentInstances().value();
  // The decoded current instances must match LST of the extracted
  // completion.
  for (int i = 0; i < s0.num_instances(); ++i) {
    Relation lst = CurrentInstance(s0, c, i).value();
    EXPECT_EQ(decoded[i].tuples(), lst.tuples());
  }
}

TEST(EncoderTest, SeedingPreservesModelsOnConstrainedSpec) {
  Specification s0 = MakeS0();
  Encoder::Options seeded;
  seeded.seed_with_chase = true;
  auto enc = Encoder::Build(s0, seeded).value();
  EXPECT_EQ(enc->solver().Solve(), sat::SolveResult::kSat);
  Completion c = enc->ExtractCompletion();
  EXPECT_TRUE(IsConsistentCompletion(s0, c).value());
}

TEST(EncoderTest, SeedingDetectsInconsistencyAtBuildTime) {
  // Contradictory value-derived units: the certain prefix already clashes.
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
  Encoder::Options seeded;
  seeded.seed_with_chase = true;
  auto enc = Encoder::Build(spec, seeded).value();
  EXPECT_EQ(enc->solver().Solve(), sat::SolveResult::kUnsat);
}

TEST(CertainPrefixTest, HornClosureDerivesConditionalOrders) {
  Specification s0 = MakeS0();
  auto prefix = CertainOrderPrefix(s0).value();
  ASSERT_TRUE(prefix.consistent);
  const Schema& emp = s0.instance(0).schema();
  AttrIndex salary = emp.IndexOf("salary").value();
  AttrIndex address = emp.IndexOf("address").value();
  AttrIndex ln = emp.IndexOf("LN").value();
  // ϕ1 units: s1,s2 ≺_salary s3.
  EXPECT_TRUE(prefix.certain_orders[0][salary].Less(0, 2));
  EXPECT_TRUE(prefix.certain_orders[0][salary].Less(1, 2));
  // ϕ3 closure: the salary units imply the address orders.
  EXPECT_TRUE(prefix.certain_orders[0][address].Less(0, 2));
  EXPECT_TRUE(prefix.certain_orders[0][address].Less(1, 2));
  // ϕ2: LN ordering from marital status.
  EXPECT_TRUE(prefix.certain_orders[0][ln].Less(0, 1));
  // Copy propagation into Dept, then ϕ4 into budget.
  const Schema& dept = s0.instance(1).schema();
  AttrIndex mgr_addr = dept.IndexOf("mgrAddr").value();
  AttrIndex budget = dept.IndexOf("budget").value();
  EXPECT_TRUE(prefix.certain_orders[1][mgr_addr].Less(0, 2));
  EXPECT_TRUE(prefix.certain_orders[1][mgr_addr].Less(1, 2));
  EXPECT_TRUE(prefix.certain_orders[1][budget].Less(0, 2));
  // Nothing relates t3 and t4 (the paper's open pair).
  EXPECT_FALSE(prefix.certain_orders[1][budget].Comparable(2, 3));
}

TEST(CertainPrefixTest, EveryDerivedPairIsCertain) {
  // Soundness: each derived pair must hold in every consistent completion
  // (checked against the brute-force oracle on the trimmed S0).
  Specification spec = currency::testing::MakeS0Trimmed();
  auto prefix = CertainOrderPrefix(spec).value();
  ASSERT_TRUE(prefix.consistent);
  for (int i = 0; i < spec.num_instances(); ++i) {
    const Schema& schema = spec.instance(i).schema();
    for (AttrIndex a = 1; a < schema.arity(); ++a) {
      for (auto [u, v] : prefix.certain_orders[i][a].Pairs()) {
        CurrencyOrderQuery q;
        q.relation = schema.relation_name();
        q.pairs = {{a, u, v}};
        EXPECT_TRUE(BruteForceCertainOrder(spec, q).value())
            << schema.relation_name() << " " << a << ": " << u << "≺" << v;
      }
    }
  }
}

TEST(CertainPrefixTest, PureDenialWithCertainPremisesIsInconsistent) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1), Value(0)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2), Value(0)}).ok());
  TemporalInstance inst(std::move(r));
  ASSERT_TRUE(inst.AddOrderByName("A", 0, 1).ok());
  ASSERT_TRUE(spec.AddInstance(std::move(inst)).ok());
  // Denial: the initial order itself triggers t PREC[B] t.
  ASSERT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: t PREC[A] s -> t PREC[B] t")
          .ok());
  auto prefix = CertainOrderPrefix(spec).value();
  EXPECT_FALSE(prefix.consistent);
  EXPECT_FALSE(DecideConsistency(spec)->consistent);
}

// The documented Proposition 6.3 corner (DESIGN.md §6b): two target
// attributes copied from the SAME source attribute are coupled, breaking
// the proof's independence assumption.  The fast path then returns a
// sound subset; the general solver is exact.
TEST(SpCcqaCornerTest, SharedSourceCouplingMakesFastPathConservative) {
  Specification spec;
  Schema src_schema = Schema::Make("Src", {"B"}).value();
  Relation src(src_schema);
  ASSERT_TRUE(src.AppendValues({Value("e"), Value(1)}).ok());
  ASSERT_TRUE(src.AppendValues({Value("e"), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(src))).ok());
  Schema tgt_schema = Schema::Make("Tgt", {"A1", "A2"}).value();
  Relation tgt(tgt_schema);
  ASSERT_TRUE(tgt.AppendValues({Value("f"), Value(1), Value(1)}).ok());
  ASSERT_TRUE(tgt.AppendValues({Value("f"), Value(2), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(tgt))).ok());
  // Both A1 and A2 copy from Src.B: one copy function per attribute,
  // sharing the source attribute — fully coupling A1 and A2.
  for (const char* attr : {"A1", "A2"}) {
    copy::CopySignature sig;
    sig.target_relation = "Tgt";
    sig.target_attrs = {attr};
    sig.source_relation = "Src";
    sig.source_attrs = {"B"};
    copy::CopyFunction fn(sig);
    ASSERT_TRUE(fn.Map(0, 0).ok());
    ASSERT_TRUE(fn.Map(1, 1).ok());
    ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());
  }
  // In every completion A1's and A2's current values track each other, so
  // "some x with A1 = A2 = x exists" is certain as a Boolean...
  auto boolean =
      query::ParseQuery("Q() := EXISTS e, x: Tgt(e, x, x)").value();
  auto general = CertainCurrentAnswers(spec, boolean).value();
  EXPECT_EQ(general.size(), 1u);  // the empty tuple: certainly true
  // ... and the coupled SP selection σ_{A1=A2} projected to the entity is
  // certain under the GENERAL solver:
  auto sp = query::ParseQuery(
                "Q(e) := EXISTS x, y: Tgt(e, x, y) AND x = y")
                .value();
  ASSERT_TRUE(query::IsSpQuery(sp));
  CcqaOptions no_fast;
  no_fast.use_chase_routing = false;
  auto exact = CertainCurrentAnswers(spec, sp, no_fast).value();
  EXPECT_EQ(exact, std::set<Tuple>{Tuple({Value("f")})});
  // ... while the literal Prop 6.3 algorithm reports the sound subset ∅
  // (both cells get fresh constants, the selection x = y fails).
  auto fast = SpCertainCurrentAnswers(spec, sp).value();
  EXPECT_TRUE(fast.empty());
  // Subset relation (soundness) holds.
  for (const Tuple& t : fast) EXPECT_TRUE(exact.count(t));
}

TEST(ChaseTest, PassesAreReported) {
  Specification s0 = MakeS0();
  auto chase = ChaseCopyOrders(s0).value();
  EXPECT_GE(chase.passes, 1);
  auto prefix = CertainOrderPrefix(s0).value();
  EXPECT_GE(prefix.passes, chase.passes);
}

/// Reference chase propagation using the pre-bucketing quadratic pair
/// expansion (the O(|ρ|²) double loop BuildEdgePlans used to run): the
/// bucketed plans must reach the same fixpoint — same certain orders,
/// same consistency verdict — because the closure is a least fixpoint of
/// monotone rules and therefore independent of pair application order.
struct ReferenceChaseResult {
  std::vector<std::vector<PartialOrder>> orders;
  bool consistent = true;
};

ReferenceChaseResult ReferenceChase(const Specification& spec) {
  ReferenceChaseResult ref;
  for (int i = 0; i < spec.num_instances(); ++i) {
    ref.orders.push_back(spec.instance(i).orders());
  }
  struct RefPair {
    TupleId t1, t2, s1, s2;
  };
  struct RefPlan {
    int source, target;
    std::vector<std::pair<AttrIndex, AttrIndex>> attrs;
    std::vector<RefPair> pairs;
  };
  std::vector<RefPlan> plans;
  for (const CopyEdge& edge : spec.copy_edges()) {
    RefPlan plan;
    plan.source = edge.source_instance;
    plan.target = edge.target_instance;
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    plan.attrs = edge.fn.ResolveAttrs(target.schema(), source.schema()).value();
    for (const auto& [t1, s1] : edge.fn.mapping()) {
      for (const auto& [t2, s2] : edge.fn.mapping()) {
        if (t1 == t2 || s1 == s2) continue;
        if (!(target.tuple(t1).eid() == target.tuple(t2).eid())) continue;
        if (!(source.tuple(s1).eid() == source.tuple(s2).eid())) continue;
        plan.pairs.push_back(RefPair{t1, t2, s1, s2});
      }
    }
    plans.push_back(std::move(plan));
  }
  bool changed = true;
  while (changed && ref.consistent) {
    changed = false;
    for (const RefPlan& plan : plans) {
      for (const auto& [a, b] : plan.attrs) {
        PartialOrder& tgt = ref.orders[plan.target][a];
        PartialOrder& src = ref.orders[plan.source][b];
        for (const RefPair& p : plan.pairs) {
          if (src.Less(p.s1, p.s2) && !tgt.Less(p.t1, p.t2)) {
            if (!tgt.TryAdd(p.t1, p.t2)) {
              ref.consistent = false;
              return ref;
            }
            changed = true;
          }
          if (tgt.Less(p.t1, p.t2) && !src.Less(p.s1, p.s2)) {
            if (!src.TryAdd(p.s1, p.s2)) {
              ref.consistent = false;
              return ref;
            }
            changed = true;
          }
        }
      }
    }
  }
  return ref;
}

void ExpectChaseMatchesReference(const Specification& spec) {
  auto chase = ChaseCopyOrders(spec);
  ASSERT_TRUE(chase.ok()) << chase.status();
  ReferenceChaseResult ref = ReferenceChase(spec);
  ASSERT_EQ(chase->consistent, ref.consistent);
  if (!ref.consistent) return;  // orders are meaningless mid-abort
  for (int i = 0; i < spec.num_instances(); ++i) {
    for (size_t a = 1; a < ref.orders[i].size(); ++a) {
      EXPECT_EQ(chase->certain_orders[i][a].ToString(),
                ref.orders[i][a].ToString())
          << "instance " << i << " attr " << a;
    }
  }
}

/// A large copy edge whose bucketed pair order differs from the raw
/// mapping-squared order: each target entity's mappings interleave two
/// source entities by tuple id, so the quadratic loop emits its pairs in
/// target-id order while the buckets group them by source entity.
Specification MakeLargeEdgeSpec(int entities, bool plant_cycle) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  for (int e = 0; e < entities; ++e) {
    Value eid("e" + std::to_string(e));
    for (int k = 0; k < 3; ++k) {
      (void)r.AppendValues({eid, Value(k)});
    }
  }
  TemporalInstance inst(std::move(r));
  // Initial source orders on even entities: t0 ≺ t1 within the group.
  for (int e = 0; e < entities; e += 2) {
    (void)inst.AddOrder(1, e * 3, e * 3 + 1);
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
  // Target entity g<j> draws from source entities e<2j> and e<2j+1>,
  // interleaved: t0 ⇐ e2j:0, t1 ⇐ e2j+1:0, t2 ⇐ e2j:1, t3 ⇐ e2j+1:1.
  for (int j = 0; 2 * j + 1 < entities; ++j) {
    Value eid("g" + std::to_string(j));
    int src_a = (2 * j) * 3;
    int src_b = (2 * j + 1) * 3;
    for (int k = 0; k < 2; ++k) {
      auto ta = r2.AppendValues({eid, Value(k)});
      (void)fn.Map(*ta, src_a + k);
      auto tb = r2.AppendValues({eid, Value(k)});
      (void)fn.Map(*tb, src_b + k);
    }
  }
  TemporalInstance inst2(std::move(r2));
  if (plant_cycle) {
    // Against g0's copied pair from e0 (whose source order forces
    // t0 ≺ t2 in the target), assert the opposite target order: the
    // chase must derive the contradiction and report inconsistency.
    (void)inst2.AddOrder(1, 2, 0);
  }
  (void)spec.AddInstance(std::move(inst2));
  (void)spec.AddCopyFunction(std::move(fn));
  return spec;
}

TEST(ChaseTest, LargeEdgeBucketedPlansMatchQuadraticReference) {
  // 120 entities × 3 tuples: the raw |ρ|² loop would visit 240² mapping
  // pairs for this edge; the bucketed plans visit Σ|bucket|² = 60 · 4².
  ExpectChaseMatchesReference(MakeLargeEdgeSpec(120, /*plant_cycle=*/false));
}

TEST(ChaseTest, LargeEdgeInconsistencyMatchesQuadraticReference) {
  ExpectChaseMatchesReference(MakeLargeEdgeSpec(120, /*plant_cycle=*/true));
}

TEST(ChaseTest, RandomSpecsMatchQuadraticReference) {
  for (int seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectChaseMatchesReference(currency::testing::MakeRandomSpec(
        seed * 577 + 11, /*with_copy=*/true, /*with_constraints=*/false));
  }
}

}  // namespace
}  // namespace currency::core
