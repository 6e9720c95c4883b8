// Unit tests for src/common: Status, Result, Value, strings.

#include <gtest/gtest.h>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/value.h"
#include "src/relational/relation.h"
#include "src/relational/schema.h"

namespace currency {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInconsistent), "Inconsistent");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return 2 * v;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 21);
  EXPECT_EQ(*r, 21);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(DoubleIt(5).value(), 10);
  EXPECT_FALSE(DoubleIt(0).ok());
}

TEST(ValueTest, Kinds) {
  EXPECT_EQ(Value().kind(), ValueKind::kNull);
  EXPECT_EQ(Value(3).kind(), ValueKind::kInt);
  EXPECT_EQ(Value(3.5).kind(), ValueKind::kDouble);
  EXPECT_EQ(Value("hi").kind(), ValueKind::kString);
  EXPECT_EQ(Value::Bool(true).kind(), ValueKind::kBool);
}

TEST(ValueTest, NumericEqualityAcrossKinds) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_NE(Value(2), Value(2.5));
  EXPECT_NE(Value(2), Value("2"));
}

TEST(ValueTest, NullSemantics) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(0));
}

TEST(ValueTest, TotalOrder) {
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value(0));
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2));
  EXPECT_LT(Value(100), Value("abc"));
  EXPECT_LT(Value("abc"), Value("abd"));
  // Irreflexivity on numerically equal values of distinct kinds must still
  // be a strict weak order.
  EXPECT_FALSE(Value(2) < Value(2));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("Smith").ToString(), "Smith");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Null().ToString(), "null");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(2).Hash(), Value(2.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value(std::string("x")).Hash());
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b  "), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t\n "), "");
}

TEST(StringsTest, SplitAndTrim) {
  auto parts = SplitAndTrim("a, b , c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(SplitAndTrim("a,,b", ',').size(), 3u);
  EXPECT_EQ(SplitAndTrim("", ',').size(), 1u);
}

TEST(StringsTest, JoinAndStartsWith) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_TRUE(StartsWith("forall t", "forall"));
  EXPECT_FALSE(StartsWith("for", "forall"));
}

TEST(StringsTest, IsIdentifier) {
  EXPECT_TRUE(IsIdentifier("Emp"));
  EXPECT_TRUE(IsIdentifier("_x1"));
  EXPECT_FALSE(IsIdentifier("1x"));
  EXPECT_FALSE(IsIdentifier("a-b"));
  EXPECT_FALSE(IsIdentifier(""));
}

TEST(SchemaTest, MakeAndLookup) {
  auto schema = Schema::Make("Emp", {"FN", "LN", "salary"});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->arity(), 4);
  EXPECT_EQ(schema->num_data_attributes(), 3);
  EXPECT_EQ(schema->attribute_name(0), "EID");
  EXPECT_EQ(schema->IndexOf("salary").value(), 3);
  EXPECT_FALSE(schema->IndexOf("missing").ok());
  EXPECT_EQ(schema->ToString(), "Emp(EID, FN, LN, salary)");
}

TEST(SchemaTest, RejectsDuplicatesAndBadNames) {
  EXPECT_FALSE(Schema::Make("R", {"A", "A"}).ok());
  EXPECT_FALSE(Schema::Make("R", {"1bad"}).ok());
  EXPECT_FALSE(Schema::Make("bad name", {"A"}).ok());
  EXPECT_FALSE(Schema::Make("R", {"EID"}).ok());  // collides with EID
}

TEST(RelationTest, AppendAndGroups) {
  auto schema = Schema::Make("R", {"A"}).value();
  Relation rel(schema);
  EXPECT_TRUE(rel.AppendValues({Value("e1"), Value(1)}).ok());
  EXPECT_TRUE(rel.AppendValues({Value("e1"), Value(2)}).ok());
  EXPECT_TRUE(rel.AppendValues({Value("e2"), Value(3)}).ok());
  EXPECT_EQ(rel.size(), 3);
  auto groups = rel.EntityGroups();
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[Value("e1")].size(), 2u);
  EXPECT_EQ(rel.Entities().size(), 2u);
}

TEST(RelationTest, ArityMismatchRejected) {
  auto schema = Schema::Make("R", {"A"}).value();
  Relation rel(schema);
  EXPECT_FALSE(rel.AppendValues({Value("e1")}).ok());
}

TEST(RelationTest, ActiveDomainAndContains) {
  auto schema = Schema::Make("R", {"A"}).value();
  Relation rel(schema);
  ASSERT_TRUE(rel.AppendValues({Value("e1"), Value(7)}).ok());
  auto dom = rel.ActiveDomain();
  EXPECT_TRUE(dom.count(Value("e1")));
  EXPECT_TRUE(dom.count(Value(7)));
}

TEST(RelationTest, ToStringRendersTable) {
  auto schema = Schema::Make("R", {"A"}).value();
  Relation rel(schema);
  ASSERT_TRUE(rel.AppendValues({Value("e1"), Value(7)}).ok());
  std::string s = rel.ToString();
  EXPECT_NE(s.find("EID"), std::string::npos);
  EXPECT_NE(s.find("e1"), std::string::npos);
}

}  // namespace
}  // namespace currency
