// Unit tests for src/query: parser, classifier, evaluators.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/query/classify.h"
#include "src/query/eval.h"
#include "src/query/parser.h"

namespace currency::query {
namespace {

Relation MakeEmp() {
  // Fig. 1 of the paper, entity ids added: s1..s3 are Mary, s4/s5 Bob.
  Schema schema =
      Schema::Make("Emp", {"FN", "LN", "address", "salary", "status"}).value();
  Relation emp(schema);
  auto add = [&](const char* eid, const char* fn, const char* ln,
                 const char* addr, int salary, const char* status) {
    ASSERT_TRUE(emp.AppendValues({Value(eid), Value(fn), Value(ln),
                                  Value(addr), Value(salary), Value(status)})
                    .ok());
  };
  add("Mary", "Mary", "Smith", "2 Small St", 50, "single");
  add("Mary", "Mary", "Dupont", "10 Elm Ave", 50, "married");
  add("Mary", "Mary", "Dupont", "6 Main St", 80, "married");
  add("Bob", "Bob", "Luth", "8 Cowan St", 80, "married");
  add("Bob", "Robert", "Luth", "8 Drum St", 55, "married");
  return emp;
}

TEST(ParserTest, ParsesSimpleQuery) {
  auto q = ParseQuery(
      "Q1(s) := EXISTS e, fn, ln, a, st: Emp(e, fn, ln, a, s, st) AND "
      "e = 'Mary'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->name, "Q1");
  EXPECT_EQ(q->head, std::vector<std::string>{"s"});
  EXPECT_EQ(q->body->kind(), Formula::Kind::kExists);
}

TEST(ParserTest, ParsesBooleanQuery) {
  auto q = ParseQuery("Q() := EXISTS x: R(x)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->head.empty());
}

TEST(ParserTest, ParsesForallNotOr) {
  auto q = ParseQuery(
      "Q(x) := R(x) AND (FORALL y: NOT S(x, y) OR T(y)) AND NOT U(x)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(Classify(*q), QueryLanguage::kFo);
}

TEST(ParserTest, QuantifierScopeExtendsRight) {
  auto q = ParseQuery("Q() := EXISTS x: R(x) AND S(x)");
  ASSERT_TRUE(q.ok()) << q.status();
  // EXISTS captures the whole conjunction.
  ASSERT_EQ(q->body->kind(), Formula::Kind::kExists);
  EXPECT_EQ(q->body->child()->kind(), Formula::Kind::kAnd);
}

TEST(ParserTest, RejectsUnboundHeadVariable) {
  EXPECT_FALSE(ParseQuery("Q(z) := EXISTS x: R(x)").ok());
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseQuery("Q(x) :=").ok());
  EXPECT_FALSE(ParseQuery("Q(x) R(x)").ok());
  EXPECT_FALSE(ParseQuery("Q(x) := R(x").ok());
  EXPECT_FALSE(ParseQuery("Q(x) := x").ok());
  EXPECT_FALSE(ParseFormula("R(x) AND").ok());
  EXPECT_FALSE(ParseFormula("R('unterminated)").ok());
}

TEST(ParserTest, ParsesConstantsAndComparisons) {
  auto f = ParseFormula("x >= 50 AND y != 'abc' AND z = 3.5");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ((*f)->kind(), Formula::Kind::kAnd);
  EXPECT_EQ((*f)->children().size(), 3u);
}

TEST(ParserTest, QueryRoundTripToString) {
  auto q = ParseQuery("Q(x) := EXISTS y: R(x, y) AND x = 1");
  ASSERT_TRUE(q.ok());
  auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok()) << q2.status() << " on " << q->ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST(ClassifyTest, Hierarchy) {
  auto cq = ParseQuery("Q(x) := EXISTS y: R(x, y) AND S(y)").value();
  EXPECT_EQ(Classify(cq), QueryLanguage::kCq);

  auto ucq =
      ParseQuery("Q(x) := (EXISTS y: R(x, y)) OR (EXISTS z: S2(x, z))").value();
  EXPECT_EQ(Classify(ucq), QueryLanguage::kUcq);

  auto efo = ParseQuery("Q(x) := EXISTS y: (R(x, y) OR S2(x, y))").value();
  EXPECT_EQ(Classify(efo), QueryLanguage::kExistsFoPlus);

  auto fo = ParseQuery("Q(x) := R(x, x) AND NOT S(x)").value();
  EXPECT_EQ(Classify(fo), QueryLanguage::kFo);

  auto forall = ParseQuery("Q(x) := R(x, x) AND FORALL y: S(y)").value();
  EXPECT_EQ(Classify(forall), QueryLanguage::kFo);
}

TEST(ClassifyTest, LanguageNames) {
  EXPECT_STREQ(QueryLanguageToString(QueryLanguage::kCq), "CQ");
  EXPECT_STREQ(QueryLanguageToString(QueryLanguage::kUcq), "UCQ");
  EXPECT_STREQ(QueryLanguageToString(QueryLanguage::kFo), "FO");
}

TEST(ClassifyTest, SpQueries) {
  // Q1 from the paper: selection + projection on Emp.
  auto q1 = ParseQuery(
                "Q1(s) := EXISTS e, fn, ln, a, st: "
                "Emp(e, fn, ln, a, s, st) AND e = 'Mary'")
                .value();
  EXPECT_TRUE(IsSpQuery(q1));
  EXPECT_EQ(Classify(q1), QueryLanguage::kCq);

  // A join is not SP.
  auto join =
      ParseQuery("Q(x) := EXISTS y: R(x, y) AND S(y)").value();
  EXPECT_FALSE(IsSpQuery(join));

  // Repeated variable in the atom is not SP.
  auto rep = ParseQuery("Q(x) := R(x, x)").value();
  EXPECT_FALSE(IsSpQuery(rep));

  // Identity query is SP.
  auto ident = ParseQuery("Q(x, y) := RN(x, y)").value();
  EXPECT_TRUE(IsSpQuery(ident));
}

TEST(EvalTest, SelectionProjection) {
  Relation emp = MakeEmp();
  Database db{{"Emp", &emp}};
  auto q = ParseQuery(
               "Q(s) := EXISTS e, fn, ln, a, st: Emp(e, fn, ln, a, s, st) "
               "AND e = 'Mary'")
               .value();
  auto result = EvalQuery(q, db);
  ASSERT_TRUE(result.ok()) << result.status();
  // Mary's salaries: 50 and 80.
  EXPECT_EQ(result->size(), 2u);
  EXPECT_TRUE(result->count(Tuple({Value(50)})));
  EXPECT_TRUE(result->count(Tuple({Value(80)})));
}

TEST(EvalTest, Join) {
  Schema rs = Schema::Make("R", {"A"}).value();
  Schema ss = Schema::Make("S", {"B"}).value();
  Relation r(rs), s(ss);
  ASSERT_TRUE(r.AppendValues({Value(1), Value(10)}).ok());
  ASSERT_TRUE(r.AppendValues({Value(2), Value(20)}).ok());
  ASSERT_TRUE(s.AppendValues({Value(7), Value(10)}).ok());
  Database db{{"R", &r}, {"S", &s}};
  auto q =
      ParseQuery("Q(x) := EXISTS e1, e2: R(e1, x) AND S(e2, x)").value();
  auto result = EvalQuery(q, db).value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result.count(Tuple({Value(10)})));
}

TEST(EvalTest, UnionOfConjunctiveQueries) {
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value(1), Value(10)}).ok());
  ASSERT_TRUE(r.AppendValues({Value(2), Value(20)}).ok());
  Database db{{"R", &r}};
  auto q = ParseQuery(
               "Q(x) := (EXISTS e: R(e, x) AND x = 10) OR "
               "(EXISTS e: R(e, x) AND x = 20)")
               .value();
  auto result = EvalQuery(q, db).value();
  EXPECT_EQ(result.size(), 2u);
}

TEST(EvalTest, NegationUsesActiveDomain) {
  Schema rs = Schema::Make("R", {"A"}).value();
  Schema ss = Schema::Make("S", {"B"}).value();
  Relation r(rs), s(ss);
  ASSERT_TRUE(r.AppendValues({Value(1), Value(10)}).ok());
  ASSERT_TRUE(r.AppendValues({Value(2), Value(20)}).ok());
  ASSERT_TRUE(s.AppendValues({Value(9), Value(10)}).ok());
  Database db{{"R", &r}, {"S", &s}};
  // Values x in R that do not occur in S.
  auto q = ParseQuery(
               "Q(x) := (EXISTS e: R(e, x)) AND NOT (EXISTS e2: S(e2, x))")
               .value();
  auto result = EvalQuery(q, db).value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result.count(Tuple({Value(20)})));
}

TEST(EvalTest, UniversalQuantifier) {
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value(1), Value(10)}).ok());
  ASSERT_TRUE(r.AppendValues({Value(2), Value(20)}).ok());
  Database db{{"R", &r}};
  // FORALL x: EXISTS e: R(e, x) — false: x = 1 (an eid in the active
  // domain) has no tuple with A-value 1.
  auto f1 = ParseFormula("FORALL x: EXISTS e: R(e, x)").value();
  EXPECT_FALSE(EvalClosedFormula(f1, db).value());
  // FORALL x: EXISTS e, y: R(e, y) — trivially true (inner part constant).
  auto f2 = ParseFormula("FORALL x: EXISTS e, y: R(e, y)").value();
  EXPECT_TRUE(EvalClosedFormula(f2, db).value());
}

TEST(EvalTest, BooleanQueryYieldsEmptyTuple) {
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value(1), Value(10)}).ok());
  Database db{{"R", &r}};
  auto yes = ParseQuery("Q() := EXISTS e, x: R(e, x)").value();
  auto no = ParseQuery("Q() := EXISTS e: R(e, 99)").value();
  EXPECT_EQ(EvalQuery(yes, db).value().size(), 1u);
  EXPECT_EQ(EvalQuery(no, db).value().size(), 0u);
}

TEST(EvalTest, UnknownRelationFails) {
  Database db;
  auto q = ParseQuery("Q(x) := EXISTS e: R(e, x)").value();
  EXPECT_EQ(EvalQuery(q, db).status().code(), StatusCode::kNotFound);
}

TEST(EvalTest, ArityMismatchFails) {
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  Database db{{"R", &r}};
  auto q = ParseQuery("Q(x) := R(x)").value();
  EXPECT_EQ(EvalQuery(q, db).status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalTest, ShadowedQuantifierScopes) {
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  ASSERT_TRUE(r.AppendValues({Value(1), Value(10)}).ok());
  Database db{{"R", &r}};
  // Two sibling scopes both quantify 'e'; flattening must not conflate them.
  auto q = ParseQuery(
               "Q() := (EXISTS e: R(e, 10)) AND (EXISTS e: R(e, 10))")
               .value();
  EXPECT_EQ(EvalQuery(q, db).value().size(), 1u);
}

TEST(EvalTest, ConstantsInAtoms) {
  Relation emp = MakeEmp();
  Database db{{"Emp", &emp}};
  auto q = ParseQuery(
               "Q(ln) := EXISTS fn, a, s, st: "
               "Emp('Mary', fn, ln, a, s, st)")
               .value();
  auto result = EvalQuery(q, db).value();
  EXPECT_EQ(result.size(), 2u);  // Smith, Dupont
}

TEST(EvalTest, FreeVariablesAndConstantsApi) {
  auto f = ParseFormula("EXISTS y: R(x, y) AND z = 5").value();
  auto free = f->FreeVariables();
  ASSERT_EQ(free.size(), 2u);
  EXPECT_EQ(free[0], "x");
  EXPECT_EQ(free[1], "z");
  auto consts = f->Constants();
  ASSERT_EQ(consts.size(), 1u);
  EXPECT_EQ(consts[0], Value(5));
  EXPECT_EQ(f->Relations(), std::vector<std::string>{"R"});
}

// EidPins: the entity ids each relation's atoms pin, for queries the
// backtracking join answers.  The scoped CCQA path (src/core/ccqa.cc)
// reads only the components owning these ids; the oracle suite in
// oracle_invariants_test.cc runs the same shapes end to end.
using Pins = std::map<std::string, std::set<Value>>;

Pins PinsOf(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status();
  return q.ok() ? EidPins(*q) : Pins{};
}

TEST(EidPinsTest, ConstantEid) {
  EXPECT_EQ(PinsOf("Q(x) := EXISTS y: R('e0', x, y)"),
            (Pins{{"R", {Value("e0")}}}));
}

TEST(EidPinsTest, EqualityConjunctPinsEitherWayRound) {
  EXPECT_EQ(PinsOf("Q(x) := EXISTS e, y: R(e, x, y) AND e = 'e1'"),
            (Pins{{"R", {Value("e1")}}}));
  EXPECT_EQ(PinsOf("Q(x) := EXISTS e, y: R(e, x, y) AND 'e1' = e"),
            (Pins{{"R", {Value("e1")}}}));
}

TEST(EidPinsTest, AbsentEidIsStillAPin) {
  // The analysis does not know the specification: an id no entity has
  // is a pin to no rows.
  EXPECT_EQ(PinsOf("Q(x) := EXISTS y: R('zz', x, y)"),
            (Pins{{"R", {Value("zz")}}}));
}

TEST(EidPinsTest, UcqCollectsEachDisjunctsPins) {
  EXPECT_EQ(PinsOf("Q(x) := (EXISTS y: R('e0', x, y)) OR "
                   "(EXISTS e, y: R(e, y, x) AND e = 'e1')"),
            (Pins{{"R", {Value("e0"), Value("e1")}}}));
}

TEST(EidPinsTest, PinnedRelationJoinedWithUnpinnedOne) {
  EXPECT_EQ(PinsOf("Q(x) := EXISTS y, f: R('e0', x, y) AND R2(f, x)"),
            (Pins{{"R", {Value("e0")}}}));
}

TEST(EidPinsTest, OneUnpinnedAtomUnpinsItsRelation) {
  EXPECT_EQ(PinsOf("Q(x) := EXISTS y, e, z: R('e0', x, y) AND R(e, z, x)"),
            Pins{});
  EXPECT_EQ(PinsOf("Q(x) := (EXISTS y: R('e0', x, y)) OR "
                   "(EXISTS e, y: R(e, x, y))"),
            Pins{});
}

TEST(EidPinsTest, QueriesOutsideTheJoinFragmentGetNoPins) {
  // NOT and FORALL send EvalQuery to the active-domain evaluator.
  EXPECT_EQ(PinsOf("Q(x) := EXISTS y: R('e0', x, y) AND "
                   "NOT (EXISTS e, z: R(e, x, z) AND e != 'e0')"),
            Pins{});
  EXPECT_EQ(PinsOf("Q(x) := EXISTS y: R('e0', x, y) AND "
                   "(FORALL e, b: NOT R(e, x, b) OR e = 'e0')"),
            Pins{});
  // A head variable bound only by a compare is not range-restricted.
  EXPECT_EQ(PinsOf("Q(x) := EXISTS y, z: R('e0', y, z) AND x = y"), Pins{});
}

TEST(EidPinsTest, OnlyEqualityPins) {
  EXPECT_EQ(PinsOf("Q(x) := EXISTS e, y: R(e, x, y) AND e > 'e0'"), Pins{});
  EXPECT_EQ(PinsOf("Q(x) := EXISTS e, y: R(e, x, y) AND e != 'e0'"), Pins{});
}

TEST(EidPinsTest, ShadowedEidVariableIsNotPinned) {
  // The inner EXISTS rebinds e: its atom is not the one e = 'e0' pins.
  EXPECT_EQ(PinsOf("Q(x) := EXISTS e: R(e, x, x) AND e = 'e0' AND "
                   "(EXISTS e: R2(e, x))"),
            (Pins{{"R", {Value("e0")}}}));
  EXPECT_EQ(PinsOf("Q(x) := EXISTS e, y: R(e, x, y) AND e = 'e0' AND "
                   "(EXISTS e, z: R(e, z, x))"),
            Pins{});
}

}  // namespace
}  // namespace currency::query
