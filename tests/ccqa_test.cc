// Tests for CCQA — certain current query answering (Theorem 3.5,
// Proposition 6.3): the paper's queries Q1–Q4 on S0 (Examples 1.1, 2.5),
// the SP fast path, and property sweeps against the brute-force oracle.

#include <gtest/gtest.h>

#include "src/core/ccqa.h"
#include "src/core/decompose.h"
#include "src/core/sp_ccqa.h"
#include "src/query/parser.h"
#include "tests/fixtures.h"
#include "tests/support/brute_force.h"
#include "tests/support/forced_sat.h"
#include "tests/support/whole_spec.h"

namespace currency::core {
namespace {

using currency::testing::LiteralSpCertainAnswers;
using currency::testing::MakeQ1;
using currency::testing::MakeQ2;
using currency::testing::MakeQ3;
using currency::testing::MakeQ4;
using currency::testing::MakeRandomSpec;
using currency::testing::MakeS0;

TEST(CcqaTest, PaperQueriesOnS0) {
  Specification s0 = MakeS0();
  // Q1: Mary's current salary is 80k.
  auto a1 = CertainCurrentAnswers(s0, MakeQ1());
  ASSERT_TRUE(a1.ok()) << a1.status();
  EXPECT_EQ(*a1, std::set<Tuple>{Tuple({Value(80)})});
  // Q2: Mary's current last name is Dupont.
  auto a2 = CertainCurrentAnswers(s0, MakeQ2());
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(*a2, std::set<Tuple>{Tuple({Value("Dupont")})});
  // Q3: Mary's current address is 6 Main St.
  auto a3 = CertainCurrentAnswers(s0, MakeQ3());
  ASSERT_TRUE(a3.ok());
  EXPECT_EQ(*a3, std::set<Tuple>{Tuple({Value("6 Main St")})});
  // Q4: R&D's current budget is 6000k, although the top tuple (t3 vs t4)
  // is not determined.
  auto a4 = CertainCurrentAnswers(s0, MakeQ4());
  ASSERT_TRUE(a4.ok());
  EXPECT_EQ(*a4, std::set<Tuple>{Tuple({Value(6000)})});
}

TEST(CcqaTest, PaperQueriesAgreeWithBruteForce) {
  // The trimmed S0 (free attributes dropped) keeps the completion space
  // exhaustively enumerable while preserving all Q1–Q4 claims.
  Specification s0 = currency::testing::MakeS0Trimmed();
  auto queries = {currency::testing::MakeQ1Trimmed(),
                  currency::testing::MakeQ2Trimmed(),
                  currency::testing::MakeQ3Trimmed(),
                  currency::testing::MakeQ4Trimmed()};
  std::set<Tuple> expected[] = {
      {Tuple({Value(80)})},
      {Tuple({Value("Dupont")})},
      {Tuple({Value("6 Main St")})},
      {Tuple({Value(6000)})},
  };
  int qi = 0;
  for (const auto& q : queries) {
    auto fast = CertainCurrentAnswers(s0, q);
    auto oracle = BruteForceCertainAnswers(s0, q);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(*fast, *oracle) << q.ToString();
    EXPECT_EQ(*fast, expected[qi]) << q.ToString();
    ++qi;
  }
}

TEST(CcqaTest, MembershipApi) {
  Specification s0 = MakeS0();
  EXPECT_TRUE(
      IsCertainCurrentAnswer(s0, MakeQ1(), Tuple({Value(80)})).value());
  EXPECT_FALSE(
      IsCertainCurrentAnswer(s0, MakeQ1(), Tuple({Value(50)})).value());
  EXPECT_FALSE(IsCertainCurrentAnswer(s0, MakeQ2(), Tuple({Value("Smith")}))
                   .value());
  // Arity mismatch is an error, not "false".
  EXPECT_FALSE(
      IsCertainCurrentAnswer(s0, MakeQ1(), Tuple({Value(1), Value(2)})).ok());
}

TEST(CcqaTest, InconsistentSpecIsVacuouslyCertain) {
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
  auto q = query::ParseQuery("Q(x) := EXISTS e: R(e, x)").value();
  EXPECT_EQ(CertainCurrentAnswers(spec, q).status().code(),
            StatusCode::kInconsistent);
  EXPECT_TRUE(IsCertainCurrentAnswer(spec, q, Tuple({Value(42)})).value());
}

TEST(CcqaTest, DisjunctionOfPossibleValuesIsCertain) {
  // Entity with two incomparable tuples A ∈ {1, 2}: neither value is
  // certain under Q(x) := R(e, x), but the UCQ "x = 1 OR x = 2" projected
  // to a boolean IS certain.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  auto point = query::ParseQuery("Q(x) := EXISTS e: R(e, x)").value();
  auto answers = CertainCurrentAnswers(spec, point);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
  auto boolean = query::ParseQuery(
                     "Q() := (EXISTS e: R(e, 1)) OR (EXISTS e: R(e, 2))")
                     .value();
  auto b = CertainCurrentAnswers(spec, boolean);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), 1u);  // the empty tuple: certainly true
}

TEST(CcqaTest, FoQueryWithNegation) {
  // FO query: values v of entity e1 such that no e2-tuple currently
  // carries v.  e1 is fixed to A=1; e2 is 1 or 2 depending on completion,
  // so "1 is absent from e2" is not certain, and nothing else is either.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e1"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e2"), Value(1)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e2"), Value(2)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  auto q = query::ParseQuery(
               "Q(x) := R('e1', x) AND NOT R('e2', x)")
               .value();
  auto answers = CertainCurrentAnswers(spec, q);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
  auto oracle = BruteForceCertainAnswers(spec, q);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(*answers, *oracle);
}

TEST(SpCcqaTest, FastPathMatchesGeneralOnS0Queries) {
  // S0 has constraints, so the SP fast path must refuse it.
  Specification s0 = MakeS0();
  EXPECT_EQ(LiteralSpCertainAnswers(s0, MakeQ1()).status().code(),
            StatusCode::kUnsupported);
}

TEST(SpCcqaTest, PossRelationConstruction) {
  // Entity e: A determined (initial order), B undetermined.
  Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1), Value(10)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2), Value(20)}).ok());
  TemporalInstance inst(std::move(r));
  ASSERT_TRUE(inst.AddOrderByName("A", 0, 1).ok());
  ASSERT_TRUE(spec.AddInstance(std::move(inst)).ok());
  auto engine = DecomposedEncoder::Build(spec, {}, /*use_chase_routing=*/true);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ((*engine)->num_components(), 1);
  auto chase = (*engine)->BuildComponentChase(0);
  ASSERT_TRUE(chase.ok());
  ASSERT_EQ(chase->nodes.size(), 1u);
  const ComponentChase::Node& node = chase->nodes[0];
  const auto possible = PossibleCurrentValues(spec.instance(0).relation(),
                                              node.members, node.orders);
  EXPECT_EQ(possible[1], std::vector<Value>{Value(2)});  // A: unique sink
  EXPECT_EQ(possible[2], (std::vector<Value>{Value(10), Value(20)}));
  // poss(S) = {(e, 2, c_{e,B})}: B's fresh constant drops out of answers.
  auto a = query::ParseQuery("Q(x) := EXISTS e, y: R(e, x, y)").value();
  auto ab = query::ParseQuery("Q(x, y) := EXISTS e: R(e, x, y)").value();
  EXPECT_EQ(LiteralSpCertainAnswers(spec, a).value(),
            std::set<Tuple>{Tuple({Value(2)})});
  EXPECT_TRUE(LiteralSpCertainAnswers(spec, ab).value().empty());
  EXPECT_FALSE(IsFreshPossConstant(Value("ordinary")));
  EXPECT_FALSE(IsFreshPossConstant(Value(3)));
}

TEST(SpCcqaTest, SelectionOnUndeterminedAttributeYieldsNothing) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(1), Value(10)}).ok());
  ASSERT_TRUE(r.AppendValues({Value("e"), Value(2), Value(10)}).ok());
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r))).ok());
  // A is undetermined; B is 10 in both tuples hence certain.
  auto qa = query::ParseQuery("Q(x) := EXISTS e, y: R(e, x, y)").value();
  auto qb = query::ParseQuery("Q(y) := EXISTS e, x: R(e, x, y)").value();
  auto sa = LiteralSpCertainAnswers(spec, qa);
  auto sb = LiteralSpCertainAnswers(spec, qb);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_TRUE(sa->empty());
  EXPECT_EQ(*sb, std::set<Tuple>{Tuple({Value(10)})});
  // And both agree with the general path and the oracle.
  EXPECT_EQ(*sa, currency::testing::ForcedSatCertainAnswers(spec, qa).value());
  EXPECT_EQ(*sb, currency::testing::ForcedSatCertainAnswers(spec, qb).value());
  EXPECT_EQ(*sa, BruteForceCertainAnswers(spec, qa).value());
  EXPECT_EQ(*sb, BruteForceCertainAnswers(spec, qb).value());
}

// Property sweep: on constraint-free random specifications with copy
// functions, the SP fast path, the general solver and the brute-force
// oracle agree on SP queries.  (Copy functions here use distinct source
// attributes per target attribute, so Proposition 6.3's independence
// assumption holds; see the "Routing" section of docs/ARCHITECTURE.md
// and SpCcqaCornerTest for the shared-source corner.)
class SpVsGeneral : public ::testing::TestWithParam<int> {};

TEST_P(SpVsGeneral, AgreeOnSpQueries) {
  Specification spec = MakeRandomSpec(GetParam() * 313 + 5, /*with_copy=*/true,
                                      /*with_constraints=*/false);
  const char* queries[] = {
      "Q(x) := EXISTS e, y: R(e, x, y)",
      "Q(x, y) := EXISTS e: R(e, x, y)",
      "Q(x) := EXISTS e, y: R(e, x, y) AND x = 1",
      "Q(x) := EXISTS e: R(e, x, x)",  // repeated var: NOT SP, general path
  };
  for (const char* text : queries) {
    auto q = query::ParseQuery(text).value();
    SCOPED_TRACE(text);
    auto solver_answers = CertainCurrentAnswers(spec, q);
    auto oracle = BruteForceCertainAnswers(spec, q);
    if (!oracle.ok()) {
      ASSERT_EQ(oracle.status().code(), StatusCode::kInconsistent);
      EXPECT_EQ(solver_answers.status().code(), StatusCode::kInconsistent);
      continue;
    }
    ASSERT_TRUE(solver_answers.ok()) << solver_answers.status();
    EXPECT_EQ(*solver_answers, *oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SpVsGeneral, ::testing::Range(0, 30));

// Property sweep: general CCQA vs oracle on constrained specifications.
class GeneralCcqaVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(GeneralCcqaVsOracle, Agree) {
  for (int variant = 0; variant < 2; ++variant) {
    Specification spec = MakeRandomSpec(GetParam() * 997 + variant,
                                        /*with_copy=*/variant & 1,
                                        /*with_constraints=*/true);
    auto q = query::ParseQuery("Q(x, y) := EXISTS e: R(e, x, y)").value();
    auto solver_answers = CertainCurrentAnswers(spec, q);
    auto oracle = BruteForceCertainAnswers(spec, q);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(variant));
    if (!oracle.ok()) {
      ASSERT_EQ(oracle.status().code(), StatusCode::kInconsistent);
      EXPECT_EQ(solver_answers.status().code(), StatusCode::kInconsistent);
      continue;
    }
    ASSERT_TRUE(solver_answers.ok()) << solver_answers.status();
    EXPECT_EQ(*solver_answers, *oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, GeneralCcqaVsOracle, ::testing::Range(0, 40));

}  // namespace
}  // namespace currency::core
