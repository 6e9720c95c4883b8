// Unit tests for src/constraints: denial constraint semantics, grounding,
// and the text parser, using the paper's ϕ1–ϕ4 (Example 2.1).

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "src/constraints/denial_constraint.h"
#include "src/constraints/parser.h"
#include "tests/support/reference_grounding.h"

namespace currency::constraints {
namespace {

Schema EmpSchema() {
  return Schema::Make("Emp", {"FN", "LN", "address", "salary", "status"})
      .value();
}

Relation MakeEmp() {
  Relation emp(EmpSchema());
  auto add = [&](const char* eid, const char* fn, const char* ln,
                 const char* addr, int salary, const char* status) {
    ASSERT_TRUE(emp.AppendValues({Value(eid), Value(fn), Value(ln),
                                  Value(addr), Value(salary), Value(status)})
                    .ok());
  };
  add("Mary", "Mary", "Smith", "2 Small St", 50, "single");    // s1 = 0
  add("Mary", "Mary", "Dupont", "10 Elm Ave", 50, "married");  // s2 = 1
  add("Mary", "Mary", "Dupont", "6 Main St", 80, "married");   // s3 = 2
  add("Bob", "Bob", "Luth", "8 Cowan St", 80, "married");      // s4 = 3
  add("Bob", "Robert", "Luth", "8 Drum St", 55, "married");    // s5 = 4
  return emp;
}

std::vector<PartialOrder> EmptyOrders(const Relation& r) {
  return std::vector<PartialOrder>(r.schema().arity(), PartialOrder(r.size()));
}

TEST(ParserTest, ParsesPhi1) {
  auto dc = ParseConstraint(
      EmpSchema(), "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s");
  ASSERT_TRUE(dc.ok()) << dc.status();
  EXPECT_EQ(dc->num_tuple_vars(), 2);
  EXPECT_EQ(dc->compares().size(), 1u);
  EXPECT_TRUE(dc->order_premises().empty());
  EXPECT_EQ(dc->relation_name(), "Emp");
}

TEST(ParserTest, ParsesPhi2WithStringConstants) {
  auto dc = ParseConstraint(EmpSchema(),
                            "FORALL s, t IN Emp: s.status = 'married' AND "
                            "t.status = 'single' -> t PREC[LN] s");
  ASSERT_TRUE(dc.ok()) << dc.status();
  EXPECT_EQ(dc->compares().size(), 2u);
}

TEST(ParserTest, ParsesPhi3OrderPremise) {
  auto dc = ParseConstraint(
      EmpSchema(), "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s");
  ASSERT_TRUE(dc.ok()) << dc.status();
  EXPECT_EQ(dc->order_premises().size(), 1u);
}

TEST(ParserTest, ParsesPureDenialConclusion) {
  // "→ t ≺_A t" is the paper's idiom for "premises must not hold".
  auto dc = ParseConstraint(EmpSchema(),
                            "FORALL t IN Emp: t.salary > 100 -> t PREC[LN] t");
  ASSERT_TRUE(dc.ok()) << dc.status();
}

TEST(ParserTest, ParsesTruePremise) {
  auto dc = ParseConstraint(EmpSchema(),
                            "FORALL s, t IN Emp: TRUE -> s PREC[LN] t");
  ASSERT_TRUE(dc.ok()) << dc.status();
  EXPECT_TRUE(dc->compares().empty());
}

TEST(ParserTest, RejectsErrors) {
  Schema s = EmpSchema();
  EXPECT_FALSE(ParseConstraint(s, "FORALL s IN Dept: TRUE -> s PREC[LN] s").ok());
  EXPECT_FALSE(ParseConstraint(s, "FORALL s IN Emp: s.bogus = 1 -> s PREC[LN] s").ok());
  EXPECT_FALSE(ParseConstraint(s, "FORALL s IN Emp: q.salary = 1 -> s PREC[LN] s").ok());
  EXPECT_FALSE(ParseConstraint(s, "FORALL s, s IN Emp: TRUE -> s PREC[LN] s").ok());
  EXPECT_FALSE(ParseConstraint(s, "FORALL s IN Emp: TRUE -> s PREC[EID] s").ok());
  EXPECT_FALSE(ParseConstraint(s, "TRUE -> s PREC[LN] s").ok());
  EXPECT_FALSE(ParseConstraint(s, "FORALL s IN Emp: TRUE").ok());
}

TEST(ParserTest, RoundTripToString) {
  Schema schema = EmpSchema();
  auto dc = ParseConstraint(schema,
                            "FORALL s, t IN Emp: s.salary > t.salary AND "
                            "t PREC[salary] s -> t PREC[address] s")
                .value();
  auto dc2 = ParseConstraint(schema, dc.ToString(schema));
  ASSERT_TRUE(dc2.ok()) << dc2.status() << " on " << dc.ToString(schema);
  EXPECT_EQ(dc.ToString(schema), dc2->ToString(schema));
}

TEST(SemanticsTest, Phi1SatisfactionOnCompletedOrder) {
  Relation emp = MakeEmp();
  Schema schema = EmpSchema();
  auto phi1 = ParseConstraint(
                  schema,
                  "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s")
                  .value();
  AttrIndex salary = schema.IndexOf("salary").value();

  auto orders = EmptyOrders(emp);
  // Completion violating ϕ1: s3 (80) before s1 (50) in salary.
  ASSERT_TRUE(orders[salary].Add(2, 0).ok());
  ASSERT_TRUE(orders[salary].Add(0, 1).ok());
  EXPECT_FALSE(phi1.SatisfiedBy(emp, orders));

  // Completion satisfying ϕ1: s1 ≺ s2 ≺ s3 and s5 ≺ s4 in salary.
  auto good = EmptyOrders(emp);
  ASSERT_TRUE(good[salary].Add(0, 1).ok());
  ASSERT_TRUE(good[salary].Add(1, 2).ok());
  ASSERT_TRUE(good[salary].Add(4, 3).ok());
  EXPECT_TRUE(phi1.SatisfiedBy(emp, good));
}

TEST(SemanticsTest, ConstraintsDoNotCrossEntities) {
  Relation emp = MakeEmp();
  Schema schema = EmpSchema();
  // s3 (Mary, 80) vs s5 (Bob, 55): different entities, so ϕ1 imposes
  // nothing even though 80 > 55 and the orders leave them incomparable.
  auto phi1 = ParseConstraint(
                  schema,
                  "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s")
                  .value();
  AttrIndex salary = schema.IndexOf("salary").value();
  auto orders = EmptyOrders(emp);
  ASSERT_TRUE(orders[salary].Add(0, 1).ok());
  ASSERT_TRUE(orders[salary].Add(1, 2).ok());
  ASSERT_TRUE(orders[salary].Add(4, 3).ok());
  EXPECT_TRUE(phi1.SatisfiedBy(emp, orders));
}

TEST(SemanticsTest, OrderPremiseConstraint) {
  Relation emp = MakeEmp();
  Schema schema = EmpSchema();
  auto phi3 = ParseConstraint(
                  schema,
                  "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s")
                  .value();
  AttrIndex salary = schema.IndexOf("salary").value();
  AttrIndex address = schema.IndexOf("address").value();
  auto orders = EmptyOrders(emp);
  ASSERT_TRUE(orders[salary].Add(0, 2).ok());
  EXPECT_FALSE(phi3.SatisfiedBy(emp, orders));  // address missing 0 ≺ 2
  ASSERT_TRUE(orders[address].Add(0, 2).ok());
  EXPECT_TRUE(phi3.SatisfiedBy(emp, orders));
}

TEST(SemanticsTest, PureDenial) {
  Relation emp = MakeEmp();
  Schema schema = EmpSchema();
  // Deny any entity from having two tuples with different LN where the
  // single-status tuple is more LN-current: conclusion t PREC[LN] t.
  auto denial =
      ParseConstraint(schema,
                      "FORALL s, t IN Emp: s.status = 'single' AND "
                      "t.status = 'married' AND t PREC[LN] s -> s PREC[LN] s")
          .value();
  AttrIndex ln = schema.IndexOf("LN").value();
  auto orders = EmptyOrders(emp);
  EXPECT_TRUE(denial.SatisfiedBy(emp, orders));
  // Make married-tuple s2 older than single-tuple s1 in LN: triggers denial.
  ASSERT_TRUE(orders[ln].Add(1, 0).ok());
  EXPECT_FALSE(denial.SatisfiedBy(emp, orders));
}

TEST(GroundingTest, EnumeratesOnlyValueSatisfiedSameEntityInstantiations) {
  Relation emp = MakeEmp();
  Schema schema = EmpSchema();
  auto phi1 = ParseConstraint(
                  schema,
                  "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s")
                  .value();
  int count = 0;
  AttrIndex salary = schema.IndexOf("salary").value();
  phi1.EnumerateGroundings(emp, [&](const Grounding& g) {
    ++count;
    ASSERT_TRUE(g.conclusion.has_value());
    EXPECT_EQ(g.conclusion->attr, salary);
    EXPECT_TRUE(g.premises.empty());
    // Conclusion orders lower salary before higher within one entity.
    const Tuple& before = emp.tuple(g.conclusion->before);
    const Tuple& after = emp.tuple(g.conclusion->after);
    EXPECT_EQ(before.eid(), after.eid());
    EXPECT_LT(before.at(salary).AsInt(), after.at(salary).AsInt());
  });
  // Mary: s3 above s1 and s2 (2 groundings with s>t; s,t both directions
  // checked but only salary-greater pairs pass).  Bob: s4 above s5 (1).
  EXPECT_EQ(count, 3);
}

TEST(GroundingTest, SkipsReflexivePremises) {
  Relation emp = MakeEmp();
  Schema schema = EmpSchema();
  auto phi3 = ParseConstraint(
                  schema,
                  "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s")
                  .value();
  phi3.EnumerateGroundings(emp, [&](const Grounding& g) {
    // No grounding may contain a premise or conclusion on a single tuple
    // (those are skipped / turned into denials respectively).
    for (const auto& p : g.premises) EXPECT_NE(p.before, p.after);
    ASSERT_TRUE(g.conclusion.has_value());
    EXPECT_NE(g.conclusion->before, g.conclusion->after);
  });
}

std::vector<Grounding> PlannedGroundings(const DenialConstraint& dc,
                                         const Relation& r,
                                         const std::vector<TupleId>& members) {
  std::vector<Grounding> out;
  dc.EnumerateGroundingsForGroup(
      r, members, [&](const Grounding& g) { out.push_back(g); });
  return out;
}

std::vector<Grounding> ReferenceGroundings(
    const DenialConstraint& dc, const Relation& r,
    const std::vector<TupleId>& members) {
  std::vector<Grounding> out;
  testing::ReferenceGroundingsForGroup(dc, r, members,
                                       [&](const Grounding& g) {
                                         out.push_back(g);
                                         return true;
                                       });
  return out;
}

void ExpectSameSequence(const std::vector<Grounding>& got,
                        const std::vector<Grounding>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].premises, want[k].premises) << "grounding " << k;
    EXPECT_EQ(got[k].conclusion, want[k].conclusion) << "grounding " << k;
  }
}

// Random constraints against the unplanned reference backtracker
// (tests/support/reference_grounding.h): 1–6 tuple variables over entity
// groups of 1–6 tuples, with constant comparisons that hold or fail,
// comparisons with a constant, self-comparisons (t1.A = t1.B), all six
// operators between variables, vacuous premises (u ≺ u) and pure
// denials.  The planned kernel must emit the same sequence and answer
// existence the same way, and a copy of the constraint must too after
// the original is gone (the plan holds indices, never pointers).
TEST(GroundingTest, PlannedKernelMatchesReference) {
  const Schema schema = Schema::Make("R", {"A", "B", "C"}).value();
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kGt, CmpOp::kLe, CmpOp::kGe};
  std::mt19937 rng(2026);
  auto rnd = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  int emitting = 0, denials = 0, constant_false = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int n = rnd(1, 6);
    const int m = rnd(1, 6);
    Relation r(schema);
    auto add = [&](const char* eid) {
      return r
          .AppendValues({Value(eid), Value(rnd(0, 2)), Value(rnd(0, 2)),
                         Value(rnd(0, 2))})
          .value();
    };
    add("other");  // so the group's tuple ids do not start at 0
    std::vector<TupleId> members;
    for (int k = 0; k < m; ++k) members.push_back(add("e"));

    auto attr = [&](int var) { return Operand::Attr(var, rnd(1, 3)); };
    std::vector<ComparePredicate> compares;
    bool constants_hold = true;
    for (int k = rnd(0, 4); k > 0; --k) {
      ComparePredicate c;
      c.op = ops[rnd(0, 5)];
      switch (rnd(0, 3)) {
        case 0:  // constant comparison, true or false
          c.lhs = Operand::Const(Value(rnd(0, 2)));
          c.rhs = Operand::Const(Value(rnd(0, 2)));
          constants_hold &= EvalCmp(c.op, c.lhs.constant, c.rhs.constant);
          break;
        case 1:  // with a constant, on either side
          c.lhs = attr(rnd(0, n - 1));
          c.rhs = Operand::Const(Value(rnd(0, 2)));
          if (rnd(0, 1) == 1) std::swap(c.lhs, c.rhs);
          break;
        case 2:  // self-comparison
          c.lhs = attr(rnd(0, n - 1));
          c.rhs = attr(c.lhs.tuple_var);
          break;
        default:  // between two variables (the same one when n = 1)
          c.lhs = attr(rnd(0, n - 1));
          c.rhs = attr(rnd(0, n - 1));
          break;
      }
      compares.push_back(c);
    }
    auto atom = [&] {
      return OrderAtom{rnd(0, n - 1), rnd(0, n - 1), rnd(1, 3)};
    };
    std::vector<OrderAtom> premises;
    for (int k = rnd(0, 2); k > 0; --k) premises.push_back(atom());
    const OrderAtom conclusion = atom();
    std::optional<DenialConstraint> dc =
        DenialConstraint::Make(schema, n, compares, premises, conclusion)
            .value();

    const std::vector<Grounding> want = ReferenceGroundings(*dc, r, members);
    SCOPED_TRACE(dc->ToString(schema) + " over " + std::to_string(m) +
                 " tuples");
    ExpectSameSequence(PlannedGroundings(*dc, r, members), want);
    bool reference_has = false;
    testing::ReferenceGroundingsForGroup(*dc, r, members,
                                         [&](const Grounding&) {
                                           reference_has = true;
                                           return false;
                                         });
    EXPECT_EQ(dc->HasGroundingForGroup(r, members), reference_has);
    const DenialConstraint copy = *dc;
    dc.reset();
    ExpectSameSequence(PlannedGroundings(copy, r, members), want);

    emitting += !want.empty();
    for (const Grounding& g : want) denials += !g.conclusion.has_value();
    constant_false += !constants_hold;
  }
  // The draw reaches every branch it is meant to.
  EXPECT_GT(emitting, 100);
  EXPECT_GT(denials, 0);
  EXPECT_GT(constant_false, 10);
}

TEST(MakeTest, ValidatesIndices) {
  Schema schema = EmpSchema();
  OrderAtom bad_attr{0, 1, 0};  // EID attribute
  EXPECT_FALSE(
      DenialConstraint::Make(schema, 2, {}, {}, bad_attr).ok());
  OrderAtom bad_var{0, 5, 2};
  EXPECT_FALSE(DenialConstraint::Make(schema, 2, {}, {}, bad_var).ok());
  OrderAtom ok_atom{0, 1, 2};
  EXPECT_TRUE(DenialConstraint::Make(schema, 2, {}, {}, ok_atom).ok());
  EXPECT_FALSE(DenialConstraint::Make(schema, 0, {}, {}, ok_atom).ok());
}

}  // namespace
}  // namespace currency::constraints
