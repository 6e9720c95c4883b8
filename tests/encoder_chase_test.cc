// Focused tests for the SAT encoder (cell semantics, completion
// extraction), the whole-specification chase and Horn-prefix references
// (tests/support/whole_spec.h) that the component chases are checked
// against, and the documented Proposition 6.3 corner cases.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/ccqa.h"
#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "src/core/encoder.h"
#include "src/query/classify.h"
#include "src/query/parser.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"
#include "tests/support/brute_force.h"
#include "tests/support/forced_sat.h"
#include "tests/support/whole_spec.h"

namespace currency::core {
namespace {

using currency::testing::BuildWholeSpecEncoder;
using currency::testing::ChaseWholeSpec;
using currency::testing::HornPrefix;
using currency::testing::LiteralSpCertainAnswers;
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
  auto encoder = BuildWholeSpecEncoder(s0).value();
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
  auto encoder = BuildWholeSpecEncoder(s0).value();
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
  auto encoder = BuildWholeSpecEncoder(spec).value();
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

TEST(EncoderTest, HasPairVarStaysInsideGroups) {
  // Singleton groups a and c have empty pair blocks that start where the
  // next group's block starts, so only group identity separates them.
  Specification spec;
  Relation r(Schema::Make("R", {"A"}).value());
  for (auto [eid, a] : {std::pair{"a", 1}, {"b", 1}, {"b", 2}, {"c", 3},
                        {"d", 1}, {"d", 2}}) {
    ASSERT_TRUE(r.AppendValues({Value(eid), Value(a)}).ok());
  }
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  ASSERT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A > t.A -> t PREC[A] s")
          .ok());
  auto encoder = BuildWholeSpecEncoder(spec).value();
  EXPECT_EQ(encoder->num_order_vars(), 2);
  EXPECT_TRUE(encoder->HasPairVar(0, 1, 2));
  EXPECT_TRUE(encoder->HasPairVar(0, 5, 4));
  EXPECT_FALSE(encoder->HasPairVar(0, 0, 1));  // singleton a, next to b
  EXPECT_FALSE(encoder->HasPairVar(0, 0, 2));
  EXPECT_FALSE(encoder->HasPairVar(0, 3, 4));  // singleton c, next to d
  EXPECT_FALSE(encoder->HasPairVar(0, 2, 3));
  EXPECT_FALSE(encoder->HasPairVar(0, 1, 4));
  EXPECT_FALSE(encoder->HasPairVar(0, 0, 0));
  EXPECT_FALSE(encoder->HasPairVar(0, 0, 6));  // not a tuple of R
  EXPECT_NE(sat::LitVar(encoder->OrdLit(0, 1, 1, 2)),
            sat::LitVar(encoder->OrdLit(0, 1, 4, 5)));
}

/// Specifications with several components, for the merged-encoder cases.
std::vector<Specification> MergeSpecs() {
  std::vector<Specification> specs;
  specs.push_back(MakeS0());
  specs.push_back(testing::MakeS1());
  for (unsigned seed = 0; seed < 40; ++seed) {
    specs.push_back(testing::MakeRandomSpec(seed, /*with_copy=*/true,
                                            /*with_constraints=*/true));
  }
  return specs;
}

TEST(EncoderTest, MergedPairLiteralsKeepGroupsAndOrientation) {
  for (const Specification& spec : MergeSpecs()) {
    auto engine = DecomposedEncoder::Build(spec, {}).value();
    std::vector<int> all(engine->num_components());
    for (int c = 0; c < engine->num_components(); ++c) all[c] = c;
    auto merged = engine->BuildMergedEncoder(all).value();
    const bool satisfiable = merged->solver().Solve() == sat::SolveResult::kSat;
    const Completion completion =
        satisfiable ? merged->ExtractCompletion() : Completion{};
    std::set<sat::Var> vars;
    for (int i = 0; i < spec.num_instances(); ++i) {
      const Relation& rel = spec.instance(i).relation();
      bool any_bound = false;
      for (AttrIndex a = 1; a < rel.schema().arity(); ++a) {
        any_bound |= spec.OrderBound(i, a);
      }
      for (TupleId u = 0; u < rel.size(); ++u) {
        for (TupleId v = 0; v < rel.size(); ++v) {
          const bool same_group =
              u != v && rel.tuple(u).eid() == rel.tuple(v).eid();
          ASSERT_EQ(merged->HasPairVar(i, u, v), same_group && any_bound)
              << i << ": " << u << ", " << v;
          if (!merged->HasPairVar(i, u, v)) continue;
          for (AttrIndex a = 1; a < rel.schema().arity(); ++a) {
            if (!spec.OrderBound(i, a)) continue;
            const sat::Lit lit = merged->OrdLit(i, a, u, v);
            EXPECT_EQ(lit, sat::Negate(merged->OrdLit(i, a, v, u)));
            vars.insert(sat::LitVar(lit));
            if (satisfiable) {  // the literal reads "u ≺ v" in the model
              const bool holds =
                  merged->solver().ModelValue(sat::LitVar(lit)) !=
                  sat::LitIsNeg(lit);
              EXPECT_EQ(holds, completion.orders[i][a].Less(u, v));
            }
          }
        }
      }
    }
    EXPECT_EQ(static_cast<int>(vars.size()), merged->num_order_vars());
  }
}

TEST(EncoderTest, CellValueLitRejectsWhatIsNotACell) {
  Specification s0 = MakeS0();
  auto encoder = BuildWholeSpecEncoder(s0).value();
  const int arity = s0.instance(0).schema().arity();
  const Value mary("Mary");
  const Value ln = s0.instance(0).relation().tuple(0).at(2);
  ASSERT_TRUE(encoder->CellValueLit(0, 2, mary, ln).ok());
  for (auto [attr, eid, value] :
       {std::tuple{2, Value("nobody"), ln}, {0, mary, mary},
        {arity, mary, ln}, {arity + 3, mary, ln}, {2, mary, Value("Nobody")}}) {
    auto lit = encoder->CellValueLit(0, attr, eid, value);
    ASSERT_FALSE(lit.ok()) << attr;
    EXPECT_EQ(lit.status().code(), StatusCode::kNotFound) << attr;
  }
  EXPECT_EQ(encoder->CellValueLit(7, 2, mary, ln).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EncoderTest, MergedDecodeEqualsPerComponentDecodes) {
  int compared = 0;
  for (const Specification& spec : MergeSpecs()) {
    auto engine = DecomposedEncoder::Build(spec, {}).value();
    std::vector<int> all(engine->num_components());
    for (int c = 0; c < engine->num_components(); ++c) all[c] = c;
    auto merged = engine->BuildMergedEncoder(all).value();
    if (merged->solver().Solve() != sat::SolveResult::kSat) continue;
    const std::vector<Relation> whole =
        merged->DecodeCurrentInstances().value();
    // Each component, solved under the merged model's cell choices, must
    // decode to the merged decode's rows for its entities.
    int rows = 0;
    for (int c = 0; c < engine->num_components(); ++c) {
      auto encoder = engine->BuildComponentEncoder(c).value();
      auto row_of = [&](int i, const Value& eid) -> const Tuple& {
        for (const Tuple& t : whole[i].tuples()) {
          if (t.eid() == eid) return t;
        }
        ADD_FAILURE() << "merged decode lacks entity " << eid.ToString();
        return whole[i].tuple(0);
      };
      std::vector<sat::Lit> choices;
      for (const Encoder::Cell& cell : encoder->cells()) {
        const Value& chosen = row_of(cell.inst, cell.eid).at(cell.attr);
        choices.push_back(
            encoder->CellValueLit(cell.inst, cell.attr, cell.eid, chosen)
                .value());
      }
      ASSERT_EQ(encoder->solver().SolveWithAssumptions(choices),
                sat::SolveResult::kSat);
      const std::vector<Relation> part =
          encoder->DecodeCurrentInstances().value();
      for (int i = 0; i < spec.num_instances(); ++i) {
        for (const Tuple& t : part[i].tuples()) {
          EXPECT_EQ(t.values(), row_of(i, t.eid()).values());
          ++rows;
        }
      }
    }
    int whole_rows = 0;
    for (const Relation& r : whole) whole_rows += r.size();
    EXPECT_EQ(rows, whole_rows);
    ++compared;
  }
  EXPECT_GT(compared, 10);
}

TEST(EncoderTest, ModelDecodesToConsistentCompletionAndLst) {
  Specification s0 = MakeS0();
  auto encoder = BuildWholeSpecEncoder(s0).value();
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

TEST(CertainPrefixTest, HornClosureDerivesConditionalOrders) {
  Specification s0 = MakeS0();
  auto prefix = HornPrefix(s0).value();
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
  auto prefix = HornPrefix(spec).value();
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
  auto prefix = HornPrefix(spec).value();
  EXPECT_FALSE(prefix.consistent);
  EXPECT_FALSE(DecideConsistency(spec)->consistent);
}

// The documented Proposition 6.3 corner (docs/ARCHITECTURE.md, "Routing"):
// two target attributes copied from the SAME source attribute are coupled,
// breaking the proof's independence assumption.  The literal Prop 6.3
// algorithm then returns a sound subset, so routing keeps such a
// component (chase-eligible, but not chase-enumerable) on SAT, which is
// exact.
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
  const std::set<Tuple> oracle = BruteForceCertainAnswers(spec, sp).value();
  ASSERT_EQ(oracle, std::set<Tuple>{Tuple({Value("f")})});
  auto exact = currency::testing::ForcedSatCertainAnswers(spec, sp).value();
  EXPECT_EQ(exact, oracle);
  // ... while the literal Prop 6.3 algorithm reports the sound subset ∅
  // (both cells get fresh constants, the selection x = y fails).
  auto fast = LiteralSpCertainAnswers(spec, sp).value();
  EXPECT_TRUE(fast.empty());
  // Subset relation (soundness) holds.
  for (const Tuple& t : fast) EXPECT_TRUE(exact.count(t));

  // The coupled component is chase-eligible but not chase-enumerable, so
  // the default (routed) one-shots and a session answer it on SAT: exact.
  const Decomposition d = Decomposition::Build(spec).value();
  const int coupled = d.ComponentOf(1, Value("f"));
  ASSERT_EQ(coupled, d.ComponentOf(0, Value("e")));
  EXPECT_TRUE(d.chase_eligible(coupled));
  EXPECT_FALSE(d.chase_enumerable(coupled));
  const Tuple f({Value("f")});
  EXPECT_EQ(CertainCurrentAnswers(spec, sp).value(), oracle);
  EXPECT_TRUE(IsCertainCurrentAnswer(spec, sp, f).value());
  auto session = serve::CurrencySession::Create(spec).value();
  auto batch = session
                   ->CcqaBatch({serve::CcqaRequest{sp, std::nullopt},
                                serve::CcqaRequest{sp, f}})
                   .value();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].answers, std::optional<std::set<Tuple>>(oracle));
  EXPECT_EQ(batch[1].is_certain, std::optional<bool>(true));
}

// The same corner across two target entities: T.X of f and T.Y of g both
// copy S.C of e.  Whichever of e's tuples is current, one of f and g has
// current tuple (0, 2): (f, 0, 2) when s0 ≺ s1, (g, 0, 2) when s1 ≺ s0.
// poss(S) gives f (c, 2) and g (0, c′), so the literal construction
// answers ∅, while the component {e, f, g} is chase-eligible but not
// chase-enumerable and so answered exactly on SAT.
TEST(SpCcqaCornerTest, SharedSourceAcrossEntitiesIsAnsweredExactly) {
  Specification spec;
  Relation s(Schema::Make("S", {"C"}).value());
  ASSERT_TRUE(s.AppendValues({Value("e"), Value(2)}).ok());  // s0
  ASSERT_TRUE(s.AppendValues({Value("e"), Value(0)}).ok());  // s1
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(s))).ok());
  Relation t(Schema::Make("T", {"X", "Y"}).value());
  ASSERT_TRUE(t.AppendValues({Value("f"), Value(2), Value(2)}).ok());  // f1
  ASSERT_TRUE(t.AppendValues({Value("f"), Value(0), Value(2)}).ok());  // f2
  ASSERT_TRUE(t.AppendValues({Value("g"), Value(0), Value(2)}).ok());  // g1
  ASSERT_TRUE(t.AppendValues({Value("g"), Value(0), Value(0)}).ok());  // g2
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(t))).ok());
  // T.X ⇐ S.C maps f1 ⇐ s0, f2 ⇐ s1; T.Y ⇐ S.C maps g1 ⇐ s0, g2 ⇐ s1.
  for (const auto& [attr, first] :
       {std::pair<const char*, TupleId>{"X", 0}, {"Y", 2}}) {
    copy::CopySignature sig;
    sig.target_relation = "T";
    sig.target_attrs = {attr};
    sig.source_relation = "S";
    sig.source_attrs = {"C"};
    copy::CopyFunction fn(sig);
    ASSERT_TRUE(fn.Map(first, 0).ok());
    ASSERT_TRUE(fn.Map(first + 1, 1).ok());
    ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());
  }
  auto q = query::ParseQuery("Q(x, y) := EXISTS e: T(e, x, y)").value();
  ASSERT_TRUE(query::IsSpQuery(q));
  const std::set<Tuple> oracle = BruteForceCertainAnswers(spec, q).value();
  const Tuple answer({Value(0), Value(2)});
  ASSERT_EQ(oracle, std::set<Tuple>{answer});
  EXPECT_TRUE(LiteralSpCertainAnswers(spec, q).value().empty());

  const Decomposition d = Decomposition::Build(spec).value();
  ASSERT_EQ(d.num_components(), 1);
  EXPECT_TRUE(d.chase_eligible(0));
  EXPECT_FALSE(d.chase_enumerable(0));
  EXPECT_EQ(CertainCurrentAnswers(spec, q).value(), oracle);
  EXPECT_TRUE(IsCertainCurrentAnswer(spec, q, answer).value());
  auto session = serve::CurrencySession::Create(spec).value();
  auto batch = session
                   ->CcqaBatch({serve::CcqaRequest{q, std::nullopt},
                                serve::CcqaRequest{q, answer}})
                   .value();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].answers, std::optional<std::set<Tuple>>(oracle));
  EXPECT_EQ(batch[1].is_certain, std::optional<bool>(true));
}

TEST(ChaseTest, PassesAreReported) {
  Specification s0 = MakeS0();
  auto chase = ChaseWholeSpec(s0).value();
  EXPECT_GE(chase.passes, 1);
  auto prefix = HornPrefix(s0).value();
  EXPECT_GE(prefix.passes, chase.passes);
}

/// Every component fixpoint equals the quadratic whole-spec chase
/// (ChaseWholeSpec) restricted to its groups, and the consistency verdicts
/// agree: the component plans walk copy buckets in bucket order, the
/// reference expands each mapping's full square in mapping order, and the
/// closure is a least fixpoint of monotone rules, so the orders must not
/// depend on either.
void ExpectChaseMatchesReference(const Specification& spec) {
  const Status status = currency::testing::CompareComponentChases(spec);
  EXPECT_TRUE(status.ok()) << status;
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
