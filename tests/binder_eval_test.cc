// Binder (name resolution, aggregation, pushdown) and expression
// evaluation (three-valued logic, functions) tests.

#include <gtest/gtest.h>

#include <ostream>

#include "catalog/catalog.h"
#include "sql/binder.h"
#include "sql/expression_eval.h"
#include "sql/parser.h"

namespace idaa::sql {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableInfo t;
    t.name = "T";
    t.schema = Schema({{"ID", DataType::kInteger, false},
                       {"NAME", DataType::kVarchar, true},
                       {"AMOUNT", DataType::kDouble, true}});
    ASSERT_TRUE(catalog_.CreateTable(t).ok());
    TableInfo u;
    u.name = "U";
    u.schema = Schema({{"ID", DataType::kInteger, false},
                       {"TAG", DataType::kVarchar, true}});
    ASSERT_TRUE(catalog_.CreateTable(u).ok());
  }

  Result<BoundSelect> Bind(const std::string& sql) {
    auto stmt = ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    Binder binder(catalog_);
    return binder.BindSelect(*static_cast<SelectStatement*>(stmt->get()));
  }

  Catalog catalog_;
};

TEST_F(BinderTest, ResolvesColumns) {
  auto plan = Bind("SELECT id, name FROM t");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->select_exprs[0]->index, 0u);
  EXPECT_EQ(plan->select_exprs[1]->index, 1u);
  EXPECT_EQ(plan->output_schema.Column(0).name, "ID");
  EXPECT_EQ(plan->output_schema.Column(1).type, DataType::kVarchar);
}

TEST_F(BinderTest, UnknownColumnFails) {
  auto plan = Bind("SELECT nosuch FROM t");
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kSemanticError);
}

TEST_F(BinderTest, UnknownTableFails) {
  EXPECT_FALSE(Bind("SELECT 1 FROM nosuch").ok());
}

TEST_F(BinderTest, AmbiguousColumnFails) {
  auto plan = Bind("SELECT id FROM t JOIN u ON t.id = u.id");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(BinderTest, QualifiedColumnsInJoin) {
  auto plan = Bind("SELECT t.id, u.id, u.tag FROM t JOIN u ON t.id = u.id");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->select_exprs[0]->index, 0u);
  EXPECT_EQ(plan->select_exprs[1]->index, 3u);  // u starts at offset 3
  EXPECT_EQ(plan->select_exprs[2]->index, 4u);
}

TEST_F(BinderTest, AliasResolution) {
  auto plan = Bind("SELECT x.id FROM t AS x");
  ASSERT_TRUE(plan.ok());
  // Original name no longer visible under alias.
  EXPECT_FALSE(Bind("SELECT t.id FROM t AS x").ok());
}

TEST_F(BinderTest, StarExpansion) {
  auto plan = Bind("SELECT * FROM t JOIN u ON t.id = u.id");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->select_exprs.size(), 5u);
  EXPECT_EQ(plan->output_schema.NumColumns(), 5u);
}

TEST_F(BinderTest, QualifiedStar) {
  auto plan = Bind("SELECT u.* FROM t JOIN u ON t.id = u.id");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->select_exprs.size(), 2u);
}

TEST_F(BinderTest, SingleTablePredicatePushdown) {
  auto plan = Bind(
      "SELECT t.id FROM t JOIN u ON t.id = u.id "
      "WHERE t.amount > 5 AND u.tag = 'x' AND t.id + u.id > 3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // amount>5 pushed to t, tag='x' pushed to u, cross-table conjunct residual.
  ASSERT_NE(plan->tables[0].scan_predicate, nullptr);
  ASSERT_NE(plan->tables[1].scan_predicate, nullptr);
  ASSERT_NE(plan->where, nullptr);
  // Pushed predicates are rebased to table-local column indexes.
  EXPECT_EQ(plan->tables[1].scan_predicate->children[0]->index, 1u);  // TAG
}

TEST_F(BinderTest, NoPushdownWithLeftJoin) {
  auto plan = Bind(
      "SELECT t.id FROM t LEFT JOIN u ON t.id = u.id WHERE t.amount > 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->tables[0].scan_predicate, nullptr);
  ASSERT_NE(plan->where, nullptr);
}

TEST_F(BinderTest, AggregationGroupKeySlots) {
  auto plan = Bind(
      "SELECT name, COUNT(*), SUM(amount) + 1 FROM t GROUP BY name");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->has_aggregation);
  EXPECT_EQ(plan->group_keys.size(), 1u);
  EXPECT_EQ(plan->aggregates.size(), 2u);
  // First select item references key slot 0.
  EXPECT_EQ(plan->select_exprs[0]->kind, BoundExprKind::kSlotRef);
  EXPECT_EQ(plan->select_exprs[0]->index, 0u);
}

TEST_F(BinderTest, DuplicateAggregatesShareSlot) {
  auto plan = Bind("SELECT SUM(amount), SUM(amount) * 2 FROM t");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->aggregates.size(), 1u);
}

TEST_F(BinderTest, UngroupedColumnFails) {
  auto plan = Bind("SELECT name, COUNT(*) FROM t");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kSemanticError);
}

TEST_F(BinderTest, GroupByExpressionMatching) {
  auto plan = Bind("SELECT id % 10, COUNT(*) FROM t GROUP BY id % 10");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->select_exprs[0]->kind, BoundExprKind::kSlotRef);
}

TEST_F(BinderTest, AggregateInWhereFails) {
  EXPECT_FALSE(Bind("SELECT id FROM t WHERE SUM(amount) > 5").ok());
}

TEST_F(BinderTest, NestedAggregateFails) {
  EXPECT_FALSE(Bind("SELECT SUM(COUNT(*)) FROM t GROUP BY id").ok());
}

TEST_F(BinderTest, HavingWithoutGroupingFails) {
  EXPECT_FALSE(Bind("SELECT id FROM t HAVING id > 1").ok());
}

TEST_F(BinderTest, OrderByPosition) {
  auto plan = Bind("SELECT name, id FROM t ORDER BY 2");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->order_by.size(), 1u);
  EXPECT_EQ(plan->order_by[0].expr->index, 0u);  // ID column index
}

TEST_F(BinderTest, OrderByPositionOutOfRangeFails) {
  EXPECT_FALSE(Bind("SELECT name FROM t ORDER BY 3").ok());
}

TEST_F(BinderTest, OrderByAlias) {
  auto plan = Bind("SELECT amount * 2 AS double_amt FROM t ORDER BY double_amt");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
}

TEST_F(BinderTest, InsertValuesCoercion) {
  auto stmt = ParseStatement("INSERT INTO t VALUES (1, 'a', 2)");
  ASSERT_TRUE(stmt.ok());
  Binder binder(catalog_);
  auto bound = binder.BindInsert(*static_cast<InsertStatement*>(stmt->get()));
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // INTEGER literal 2 coerced to DOUBLE column.
  EXPECT_TRUE(bound->values_rows[0][2].is_double());
}

TEST_F(BinderTest, InsertColumnListMapsAndNullsRest) {
  auto stmt = ParseStatement("INSERT INTO t (amount, id) VALUES (1.5, 7)");
  ASSERT_TRUE(stmt.ok());
  Binder binder(catalog_);
  auto bound = binder.BindInsert(*static_cast<InsertStatement*>(stmt->get()));
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->values_rows[0][0].AsInteger(), 7);
  EXPECT_TRUE(bound->values_rows[0][1].is_null());
  EXPECT_DOUBLE_EQ(bound->values_rows[0][2].AsDouble(), 1.5);
}

TEST_F(BinderTest, InsertNotNullViolationFails) {
  auto stmt = ParseStatement("INSERT INTO t (name) VALUES ('x')");
  ASSERT_TRUE(stmt.ok());
  Binder binder(catalog_);
  auto bound = binder.BindInsert(*static_cast<InsertStatement*>(stmt->get()));
  EXPECT_FALSE(bound.ok());  // ID is NOT NULL
}

TEST_F(BinderTest, InsertSelectArityMismatchFails) {
  auto stmt = ParseStatement("INSERT INTO t SELECT id FROM u");
  ASSERT_TRUE(stmt.ok());
  Binder binder(catalog_);
  EXPECT_FALSE(
      binder.BindInsert(*static_cast<InsertStatement*>(stmt->get())).ok());
}

// ---------------------------------------------------------------------------
// Expression evaluation: parameterized over (expression, expected) pairs.
// ---------------------------------------------------------------------------

struct EvalCase {
  const char* expr;
  Value expected;
};

// Prints the case as its SQL text. Without this gtest falls back to a byte
// dump of the struct, which embeds the `expr` pointer and so gives the
// discovered ctest names a different spelling on every build.
void PrintTo(const EvalCase& c, std::ostream* os) { *os << c.expr; }

class EvalTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalTest, ConstantExpression) {
  auto parsed = ParseExpression(GetParam().expr);
  ASSERT_TRUE(parsed.ok()) << GetParam().expr;
  Catalog empty;
  Binder binder(empty);
  auto bound = binder.BindScalar(**parsed, Schema{}, "none");
  ASSERT_TRUE(bound.ok()) << GetParam().expr << ": "
                          << bound.status().ToString();
  auto value = EvalExpr(**bound, Row{});
  ASSERT_TRUE(value.ok()) << GetParam().expr << ": "
                          << value.status().ToString();
  if (GetParam().expected.is_double()) {
    ASSERT_TRUE(value->is_double()) << GetParam().expr << " -> "
                                    << value->ToString();
    EXPECT_NEAR(value->AsDouble(), GetParam().expected.AsDouble(), 1e-9)
        << GetParam().expr;
  } else {
    EXPECT_EQ(*value, GetParam().expected)
        << GetParam().expr << " -> " << value->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, EvalTest,
    ::testing::Values(
        EvalCase{"1 + 2", Value::Integer(3)},
        EvalCase{"7 / 2", Value::Integer(3)},  // integer division
        EvalCase{"7.0 / 2", Value::Double(3.5)},
        EvalCase{"7 % 3", Value::Integer(1)},
        EvalCase{"-(3 + 4)", Value::Integer(-7)},
        EvalCase{"2 * 3 + 4", Value::Integer(10)},
        EvalCase{"1 + NULL", Value::Null()},
        EvalCase{"'a' || 'b' || 'c'", Value::Varchar("abc")},
        EvalCase{"1 || 'x'", Value::Varchar("1x")}));

INSTANTIATE_TEST_SUITE_P(
    ThreeValuedLogic, EvalTest,
    ::testing::Values(
        EvalCase{"TRUE AND FALSE", Value::Boolean(false)},
        EvalCase{"TRUE AND NULL", Value::Null()},
        EvalCase{"FALSE AND NULL", Value::Boolean(false)},
        EvalCase{"TRUE OR NULL", Value::Boolean(true)},
        EvalCase{"FALSE OR NULL", Value::Null()},
        EvalCase{"NOT NULL", Value::Null()},
        EvalCase{"NOT FALSE", Value::Boolean(true)},
        EvalCase{"NULL = NULL", Value::Null()},
        EvalCase{"1 = NULL", Value::Null()},
        EvalCase{"NULL IS NULL", Value::Boolean(true)},
        EvalCase{"1 IS NOT NULL", Value::Boolean(true)},
        EvalCase{"1 IN (1, 2)", Value::Boolean(true)},
        EvalCase{"3 IN (1, 2)", Value::Boolean(false)},
        EvalCase{"3 IN (1, NULL)", Value::Null()},
        EvalCase{"3 NOT IN (1, 2)", Value::Boolean(true)},
        EvalCase{"2 BETWEEN 1 AND 3", Value::Boolean(true)},
        EvalCase{"0 BETWEEN 1 AND 3", Value::Boolean(false)},
        EvalCase{"0 NOT BETWEEN 1 AND 3", Value::Boolean(true)},
        EvalCase{"NULL BETWEEN 1 AND 3", Value::Null()},
        EvalCase{"'abc' LIKE 'a%'", Value::Boolean(true)},
        EvalCase{"'abc' NOT LIKE 'b%'", Value::Boolean(true)}));

INSTANTIATE_TEST_SUITE_P(
    Functions, EvalTest,
    ::testing::Values(
        EvalCase{"ABS(-5)", Value::Integer(5)},
        EvalCase{"ABS(-5.5)", Value::Double(5.5)},
        EvalCase{"SIGN(-3)", Value::Integer(-1)},
        EvalCase{"SQRT(16.0)", Value::Double(4.0)},
        EvalCase{"POWER(2, 10)", Value::Double(1024.0)},
        EvalCase{"FLOOR(2.7)", Value::Double(2.0)},
        EvalCase{"CEIL(2.1)", Value::Double(3.0)},
        EvalCase{"ROUND(2.345, 2)", Value::Double(2.35)},
        EvalCase{"ROUND(7)", Value::Integer(7)},
        EvalCase{"MOD(10, 3)", Value::Integer(1)},
        EvalCase{"LEAST(3, 1, 2)", Value::Integer(1)},
        EvalCase{"GREATEST(3, 1, 2)", Value::Integer(3)},
        EvalCase{"UPPER('abc')", Value::Varchar("ABC")},
        EvalCase{"LOWER('ABC')", Value::Varchar("abc")},
        EvalCase{"LENGTH('hello')", Value::Integer(5)},
        EvalCase{"TRIM('  x ')", Value::Varchar("x")},
        EvalCase{"SUBSTR('hello', 2, 3)", Value::Varchar("ell")},
        EvalCase{"SUBSTR('hello', 4)", Value::Varchar("lo")},
        EvalCase{"SUBSTR('hi', 9)", Value::Varchar("")},
        EvalCase{"CONCAT('a', 1, 'b')", Value::Varchar("a1b")},
        EvalCase{"REPLACE('aXbX', 'X', 'y')", Value::Varchar("ayby")},
        EvalCase{"COALESCE(NULL, NULL, 7)", Value::Integer(7)},
        EvalCase{"COALESCE(NULL, NULL)", Value::Null()},
        EvalCase{"NULLIF(1, 1)", Value::Null()},
        EvalCase{"NULLIF(1, 2)", Value::Integer(1)},
        EvalCase{"UPPER(NULL)", Value::Null()},
        EvalCase{"YEAR(DATE '2016-03-15')", Value::Integer(2016)},
        EvalCase{"MONTH(DATE '2016-03-15')", Value::Integer(3)},
        EvalCase{"DAY(DATE '2016-03-15')", Value::Integer(15)},
        EvalCase{"CAST('12' AS INTEGER) + 1", Value::Integer(13)},
        EvalCase{"CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' END",
                 Value::Varchar("b")},
        EvalCase{"CASE WHEN 1 > 2 THEN 'a' END", Value::Null()},
        EvalCase{"DATE '2016-03-15' + 1 = DATE '2016-03-16'",
                 Value::Boolean(true)},
        EvalCase{"DATE '2016-03-16' - DATE '2016-03-15'", Value::Integer(1)}));

TEST(EvalErrorTest, DivisionByZero) {
  Catalog empty;
  Binder binder(empty);
  auto parsed = ParseExpression("1 / 0");
  auto bound = binder.BindScalar(**parsed, Schema{}, "none");
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(EvalExpr(**bound, Row{}).ok());
}

TEST(EvalErrorTest, UnknownFunction) {
  Catalog empty;
  Binder binder(empty);
  auto parsed = ParseExpression("FROBNICATE(1)");
  auto bound = binder.BindScalar(**parsed, Schema{}, "none");
  ASSERT_TRUE(bound.ok());  // resolved lazily
  EXPECT_FALSE(EvalExpr(**bound, Row{}).ok());
}

TEST(AggregateAccumulatorTest, SumAvgMinMax) {
  BoundAggregate agg;
  agg.func = AggFunc::kSum;
  agg.result_type = DataType::kInteger;
  AggregateAccumulator sum(agg);
  sum.Accumulate(Value::Integer(1));
  sum.Accumulate(Value::Integer(2));
  sum.Accumulate(Value::Null());
  EXPECT_EQ(sum.Finalize().AsInteger(), 3);

  agg.func = AggFunc::kAvg;
  AggregateAccumulator avg(agg);
  avg.Accumulate(Value::Integer(1));
  avg.Accumulate(Value::Integer(2));
  EXPECT_DOUBLE_EQ(avg.Finalize().AsDouble(), 1.5);

  agg.func = AggFunc::kMin;
  AggregateAccumulator min(agg);
  min.Accumulate(Value::Integer(5));
  min.Accumulate(Value::Integer(3));
  EXPECT_EQ(min.Finalize().AsInteger(), 3);
}

TEST(AggregateAccumulatorTest, EmptyInputSemantics) {
  BoundAggregate agg;
  agg.func = AggFunc::kSum;
  AggregateAccumulator sum(agg);
  EXPECT_TRUE(sum.Finalize().is_null());

  agg.func = AggFunc::kCount;
  AggregateAccumulator count(agg);
  EXPECT_EQ(count.Finalize().AsInteger(), 0);
}

TEST(AggregateAccumulatorTest, CountDistinct) {
  BoundAggregate agg;
  agg.func = AggFunc::kCount;
  agg.distinct = true;
  AggregateAccumulator count(agg);
  count.Accumulate(Value::Integer(1));
  count.Accumulate(Value::Integer(1));
  count.Accumulate(Value::Integer(2));
  count.Accumulate(Value::Null());
  EXPECT_EQ(count.Finalize().AsInteger(), 2);
}

TEST(AggregateAccumulatorTest, StddevVariance) {
  BoundAggregate agg;
  agg.func = AggFunc::kVariance;
  AggregateAccumulator var(agg);
  for (int v : {2, 4, 4, 4, 5, 5, 7, 9}) var.Accumulate(Value::Integer(v));
  EXPECT_NEAR(var.Finalize().AsDouble(), 4.0, 1e-9);

  agg.func = AggFunc::kStddev;
  AggregateAccumulator sd(agg);
  for (int v : {2, 4, 4, 4, 5, 5, 7, 9}) sd.Accumulate(Value::Integer(v));
  EXPECT_NEAR(sd.Finalize().AsDouble(), 2.0, 1e-9);
}

}  // namespace
}  // namespace idaa::sql
