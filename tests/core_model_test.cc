// Tests for the core data model: TemporalInstance, Specification,
// Completion / LST extraction (Examples 2.3, 2.4) and the encoder's
// faithfulness (models ⇔ consistent completions, vs the brute force).

#include <gtest/gtest.h>

#include "src/core/completion.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"
#include "tests/fixtures.h"
#include "tests/support/brute_force.h"
#include "tests/support/whole_spec.h"

namespace currency::core {
namespace {

using currency::testing::MakeDeptRelation;
using currency::testing::MakeEmpRelation;
using currency::testing::MakeRandomSpec;
using currency::testing::MakeRho;
using currency::testing::MakeS0;

TEST(TemporalInstanceTest, AddOrderValidation) {
  TemporalInstance emp(MakeEmpRelation());
  EXPECT_TRUE(emp.AddOrderByName("salary", 0, 2).ok());
  // EID attribute has no currency order.
  EXPECT_FALSE(emp.AddOrder(0, 0, 1).ok());
  // Cross-entity orders are rejected (s3 is Mary, s4 is Bob).
  EXPECT_FALSE(emp.AddOrderByName("salary", 2, 3).ok());
  // Unknown attribute.
  EXPECT_FALSE(emp.AddOrderByName("bogus", 0, 1).ok());
  // Out-of-range tuple.
  EXPECT_FALSE(emp.AddOrderByName("salary", 0, 99).ok());
  // Cycle.
  EXPECT_FALSE(emp.AddOrderByName("salary", 2, 0).ok());
}

TEST(TemporalInstanceTest, AppendTupleGrowsOrders) {
  TemporalInstance emp(MakeEmpRelation());
  ASSERT_TRUE(emp.AddOrderByName("salary", 0, 1).ok());
  auto id = emp.AppendTuple(Tuple({Value("Mary"), Value("Mary"),
                                   Value("Test"), Value("x"), Value(99),
                                   Value("married")}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 5);
  EXPECT_EQ(emp.order(4).size(), 6);
  EXPECT_TRUE(emp.order(4).Less(0, 1));  // existing pair preserved
  EXPECT_TRUE(emp.AddOrderByName("salary", 1, 5).ok());
}

TEST(TemporalInstanceTest, NumEntityPairs) {
  TemporalInstance emp(MakeEmpRelation());
  // Mary has 3 tuples (3 pairs); Bob and Robert are singletons.
  EXPECT_EQ(emp.NumEntityPairs(), 3);
}

TEST(SpecificationTest, BuildS0) {
  Specification s0 = MakeS0();
  EXPECT_EQ(s0.num_instances(), 2);
  EXPECT_TRUE(s0.HasDenialConstraints());
  EXPECT_EQ(s0.copy_edges().size(), 1u);
  EXPECT_EQ(s0.InstanceIndex("Emp").value(), 0);
  EXPECT_EQ(s0.InstanceIndex("Dept").value(), 1);
  EXPECT_FALSE(s0.InstanceIndex("Nope").ok());
  EXPECT_EQ(s0.constraints_for(0).size(), 4u);  // ϕ1, ϕ2, ϕ2b, ϕ3
  EXPECT_EQ(s0.constraints_for(1).size(), 1u);  // ϕ4
  EXPECT_EQ(s0.TotalTuples(), 9);
}

TEST(SpecificationTest, RejectsDuplicatesAndDanglers) {
  Specification spec;
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(MakeEmpRelation())).ok());
  EXPECT_FALSE(spec.AddInstance(TemporalInstance(MakeEmpRelation())).ok());
  // Constraint over a relation not in the spec.
  EXPECT_FALSE(
      spec.AddConstraintText("FORALL s IN Dept: TRUE -> s PREC[budget] s")
          .ok());
  // Copy function whose source is missing.
  EXPECT_FALSE(spec.AddCopyFunction(MakeRho()).ok());
}

TEST(SpecificationTest, AppendCopiedTupleRequiresFullCoverage) {
  Specification s0 = MakeS0();
  // ρ covers only mgrAddr, so it is not extendable (Section 4).
  EXPECT_EQ(s0.AppendCopiedTuple(0, 0, Value("RnD")).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CompletionTest, Example23CompletionIsConsistent) {
  Specification s0 = MakeS0();
  // Dc0 of Example 2.3: s1 ≺ s2 ≺ s3 on all Emp attributes;
  // t1 ≺ t2 ≺ t4 ≺ t3 on all Dept attributes.
  Completion c;
  c.orders.resize(2);
  c.orders[0].assign(6, PartialOrder(5));
  c.orders[1].assign(5, PartialOrder(4));
  for (AttrIndex a = 1; a <= 5; ++a) {
    ASSERT_TRUE(c.orders[0][a].Add(0, 1).ok());
    ASSERT_TRUE(c.orders[0][a].Add(1, 2).ok());
  }
  for (AttrIndex a = 1; a <= 4; ++a) {
    ASSERT_TRUE(c.orders[1][a].Add(0, 1).ok());
    ASSERT_TRUE(c.orders[1][a].Add(1, 3).ok());
    ASSERT_TRUE(c.orders[1][a].Add(3, 2).ok());
  }
  ASSERT_TRUE(IsConsistentCompletion(s0, c).value());

  // Example 2.4: LST(Emp) = {s3, s4, s5}; LST(Dept) = {t3}.
  Relation lst_emp = CurrentInstance(s0, c, 0).value();
  ASSERT_EQ(lst_emp.size(), 3);
  // Entities are emitted in Value order: Bob, Mary, Robert.
  EXPECT_EQ(lst_emp.tuple(0), MakeEmpRelation().tuple(3));
  EXPECT_EQ(lst_emp.tuple(1), MakeEmpRelation().tuple(2));
  EXPECT_EQ(lst_emp.tuple(2), MakeEmpRelation().tuple(4));
  Relation lst_dept = CurrentInstance(s0, c, 1).value();
  ASSERT_EQ(lst_dept.size(), 1);
  EXPECT_EQ(lst_dept.tuple(0), MakeDeptRelation().tuple(2));
}

TEST(CompletionTest, ViolationsAreDetected) {
  Specification s0 = MakeS0();
  // Reverse salary order on Mary (s3 ≺ s1) violates ϕ1.
  Completion c;
  c.orders.resize(2);
  c.orders[0].assign(6, PartialOrder(5));
  c.orders[1].assign(5, PartialOrder(4));
  for (AttrIndex a = 1; a <= 5; ++a) {
    ASSERT_TRUE(c.orders[0][a].Add(2, 1).ok());
    ASSERT_TRUE(c.orders[0][a].Add(1, 0).ok());
  }
  for (AttrIndex a = 1; a <= 4; ++a) {
    ASSERT_TRUE(c.orders[1][a].Add(0, 1).ok());
    ASSERT_TRUE(c.orders[1][a].Add(1, 3).ok());
    ASSERT_TRUE(c.orders[1][a].Add(3, 2).ok());
  }
  EXPECT_FALSE(IsConsistentCompletion(s0, c).value());

  // Partial orders (not total on a group) are not completions.
  Completion partial;
  partial.orders.resize(2);
  partial.orders[0].assign(6, PartialOrder(5));
  partial.orders[1].assign(5, PartialOrder(4));
  EXPECT_FALSE(IsConsistentCompletion(s0, partial).value());
}

TEST(CompletionTest, Example24SecondPartMixedCurrentTuple) {
  // When s4 and s5 refer to the same person, with s4 ≺ s5 on FN, LN,
  // address, status but s5 ≺ s4 on salary, the current tuple mixes both:
  // (Robert, Luth, 8 Drum St, 80k, married).
  Schema schema = currency::testing::EmpSchema();
  Relation emp(schema);
  ASSERT_TRUE(emp.AppendValues({Value("Bob"), Value("Bob"), Value("Luth"),
                                Value("8 Cowan St"), Value(80),
                                Value("married")})
                  .ok());
  ASSERT_TRUE(emp.AppendValues({Value("Bob"), Value("Robert"), Value("Luth"),
                                Value("8 Drum St"), Value(55),
                                Value("married")})
                  .ok());
  Specification spec;
  ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(emp))).ok());
  Completion c;
  c.orders.resize(1);
  c.orders[0].assign(6, PartialOrder(2));
  for (AttrIndex a : {1, 2, 3, 5}) ASSERT_TRUE(c.orders[0][a].Add(0, 1).ok());
  ASSERT_TRUE(c.orders[0][4].Add(1, 0).ok());
  Relation lst = CurrentInstance(spec, c, 0).value();
  ASSERT_EQ(lst.size(), 1);
  EXPECT_EQ(lst.tuple(0),
            Tuple({Value("Bob"), Value("Robert"), Value("Luth"),
                   Value("8 Drum St"), Value(80), Value("married")}));
}

// Encoder faithfulness: the number of projected current instances and the
// SAT/UNSAT answer must match the brute-force enumeration on random specs.
class EncoderFaithfulness : public ::testing::TestWithParam<int> {};

TEST_P(EncoderFaithfulness, SatAgreesWithBruteForceExistence) {
  for (int variant = 0; variant < 4; ++variant) {
    Specification spec =
        MakeRandomSpec(GetParam() * 17 + variant, variant & 1, variant & 2);
    auto encoder = currency::testing::BuildWholeSpecEncoder(spec);
    ASSERT_TRUE(encoder.ok()) << encoder.status();
    bool sat = (*encoder)->solver().Solve() == sat::SolveResult::kSat;
    bool oracle = BruteForceConsistent(spec).value();
    EXPECT_EQ(sat, oracle) << "variant " << variant;
    if (sat) {
      // The extracted completion must itself be consistent.
      Completion witness = (*encoder)->ExtractCompletion();
      EXPECT_TRUE(IsConsistentCompletion(spec, witness).value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, EncoderFaithfulness, ::testing::Range(0, 25));

}  // namespace
}  // namespace currency::core
