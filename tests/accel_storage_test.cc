// Accelerator storage tests: Column (dictionary encoding), ZoneMap
// (pruning correctness), ColumnTable (MVCC, distribution, groom).

#include <gtest/gtest.h>

#include "accel/accel_executor.h"
#include "accel/column.h"
#include "accel/column_table.h"
#include "accel/zone_map.h"
#include "sql/parser.h"

namespace idaa::accel {
namespace {

// ---------------------------------------------------------------------------
// Column
// ---------------------------------------------------------------------------

TEST(ColumnTest, IntegerRoundTrip) {
  Column col(DataType::kInteger);
  ASSERT_TRUE(col.Append(Value::Integer(5)).ok());
  ASSERT_TRUE(col.Append(Value::Null()).ok());
  ASSERT_TRUE(col.Append(Value::Integer(-3)).ok());
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Get(0).AsInteger(), 5);
  EXPECT_TRUE(col.Get(1).is_null());
  EXPECT_EQ(col.Get(2).AsInteger(), -3);
}

TEST(ColumnTest, TypeMismatchRejected) {
  Column col(DataType::kInteger);
  EXPECT_FALSE(col.Append(Value::Varchar("x")).ok());
}

TEST(ColumnTest, DictionaryEncoding) {
  Column col(DataType::kVarchar);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(col.Append(Value::Varchar(i % 2 ? "yes" : "no")).ok());
  }
  EXPECT_EQ(col.DictSize(), 2u);  // only two distinct strings stored
  EXPECT_EQ(col.Get(0).AsVarchar(), "no");
  EXPECT_EQ(col.Get(1).AsVarchar(), "yes");
  EXPECT_EQ(col.LookupCode("yes"), 1);
  EXPECT_EQ(col.LookupCode("maybe"), -1);
}

TEST(ColumnTest, DictionaryCompressionSavesSpace) {
  Column dict_col(DataType::kVarchar);
  std::string long_value(100, 'x');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(dict_col.Append(Value::Varchar(long_value)).ok());
  }
  // 1000 * 100 bytes raw; dictionary stores the string once + 4B codes.
  EXPECT_LT(dict_col.ByteSize(), 10000u);
}

TEST(ColumnTest, AllTypesRoundTrip) {
  struct CaseDef {
    DataType type;
    Value value;
  } cases[] = {
      {DataType::kBoolean, Value::Boolean(true)},
      {DataType::kInteger, Value::Integer(42)},
      {DataType::kDouble, Value::Double(2.5)},
      {DataType::kVarchar, Value::Varchar("abc")},
      {DataType::kDate, Value::Date(17)},
      {DataType::kTimestamp, Value::Timestamp(99)},
  };
  for (const auto& c : cases) {
    Column col(c.type);
    ASSERT_TRUE(col.Append(c.value).ok());
    EXPECT_EQ(col.Get(0), c.value) << DataTypeToString(c.type);
  }
}

// ---------------------------------------------------------------------------
// ZoneMap
// ---------------------------------------------------------------------------

sql::BoundExprPtr BindOverSchema(const std::string& expr_text,
                                 const Schema& schema) {
  auto parsed = sql::ParseExpression(expr_text);
  EXPECT_TRUE(parsed.ok()) << expr_text;
  Catalog catalog;
  sql::Binder binder(catalog);
  auto bound = binder.BindScalar(**parsed, schema, "t");
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return std::move(*bound);
}

const Schema kXySchema{{{"X", DataType::kInteger, true},
                        {"Y", DataType::kVarchar, true}}};

TEST(ZoneMapTest, ExtractSimpleRanges) {
  auto pred = BindOverSchema("x > 5 AND x <= 20 AND y = 'a'", kXySchema);
  bool consumed = false;
  auto ranges = ExtractColumnRanges(*pred, &consumed);
  EXPECT_TRUE(consumed);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].column, 0u);
  EXPECT_EQ(ranges[2].column, 1u);
}

TEST(ZoneMapTest, MirroredLiteralComparison) {
  auto pred = BindOverSchema("5 < x", kXySchema);
  auto ranges = ExtractColumnRanges(*pred);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].op, sql::BinaryOp::kGt);  // x > 5
}

TEST(ZoneMapTest, BetweenExtracted) {
  auto pred = BindOverSchema("x BETWEEN 3 AND 9", kXySchema);
  bool consumed = false;
  auto ranges = ExtractColumnRanges(*pred, &consumed);
  EXPECT_TRUE(consumed);
  EXPECT_EQ(ranges.size(), 2u);
}

TEST(ZoneMapTest, OrNotExtracted) {
  auto pred = BindOverSchema("x = 1 OR x = 2", kXySchema);
  bool consumed = false;
  auto ranges = ExtractColumnRanges(*pred, &consumed);
  EXPECT_FALSE(consumed);
  EXPECT_TRUE(ranges.empty());
}

TEST(ZoneMapTest, MixedPredicatePartiallyConsumed) {
  auto pred = BindOverSchema("x > 5 AND (x = 1 OR x = 9)", kXySchema);
  bool consumed = false;
  auto ranges = ExtractColumnRanges(*pred, &consumed);
  EXPECT_FALSE(consumed);
  ASSERT_EQ(ranges.size(), 1u);
}

TEST(ZoneMapTest, PruningByMinMax) {
  ZoneMap zm(1, /*zone_size=*/4);
  // Zone 0: values 0..3, zone 1: values 10..13.
  for (int i = 0; i < 4; ++i) zm.Observe(i, 0, Value::Integer(i));
  for (int i = 4; i < 8; ++i) zm.Observe(i, 0, Value::Integer(i + 6));

  std::vector<ColumnRange> eq5 = {{0, sql::BinaryOp::kEq, Value::Integer(5)}};
  EXPECT_FALSE(zm.ZoneCanMatch(0, eq5));
  EXPECT_FALSE(zm.ZoneCanMatch(1, eq5));

  std::vector<ColumnRange> eq2 = {{0, sql::BinaryOp::kEq, Value::Integer(2)}};
  EXPECT_TRUE(zm.ZoneCanMatch(0, eq2));
  EXPECT_FALSE(zm.ZoneCanMatch(1, eq2));

  std::vector<ColumnRange> gt11 = {{0, sql::BinaryOp::kGt, Value::Integer(11)}};
  EXPECT_FALSE(zm.ZoneCanMatch(0, gt11));
  EXPECT_TRUE(zm.ZoneCanMatch(1, gt11));

  std::vector<ColumnRange> lt0 = {{0, sql::BinaryOp::kLt, Value::Integer(0)}};
  EXPECT_FALSE(zm.ZoneCanMatch(0, lt0));

  std::vector<ColumnRange> gteq13 = {
      {0, sql::BinaryOp::kGtEq, Value::Integer(13)}};
  EXPECT_TRUE(zm.ZoneCanMatch(1, gteq13));
}

TEST(ZoneMapTest, AllNullZoneNeverMatchesComparison) {
  ZoneMap zm(1, 4);
  for (int i = 0; i < 4; ++i) zm.Observe(i, 0, Value::Null());
  std::vector<ColumnRange> any = {{0, sql::BinaryOp::kGt, Value::Integer(-100)}};
  EXPECT_FALSE(zm.ZoneCanMatch(0, any));
}

// ---------------------------------------------------------------------------
// ColumnTable (MVCC)
// ---------------------------------------------------------------------------

class ColumnTableTest : public ::testing::Test {
 protected:
  ColumnTableTest()
      : schema_({{"ID", DataType::kInteger, false},
                 {"V", DataType::kVarchar, true}}) {
    AcceleratorOptions opts;
    opts.num_slices = 2;
    opts.zone_size = 4;
    table_ = std::make_unique<ColumnTable>(schema_, std::nullopt, opts);
  }

  Row MakeRow(int64_t id, const std::string& v) {
    return {Value::Integer(id), Value::Varchar(v)};
  }

  Result<std::vector<Row>> ScanAll(Transaction* txn) {
    return ParallelScan(*table_, nullptr, txn->id(), txn->snapshot_csn(), tm_,
                        /*pool=*/nullptr, /*metrics=*/nullptr);
  }

  /// Visible rows of one slice, through the morsel scan.
  std::vector<Row> ScanOneSlice(const ColumnTable& table, size_t slice,
                                Transaction* txn) {
    TransactionManager::VisibilityChecker visibility(&tm_, txn->id(),
                                                     txn->snapshot_csn());
    const BatchPredicate no_predicate;
    std::vector<uint32_t> sel;
    BatchScanStats stats;
    std::vector<Row> rows;
    for (const Morsel& m : table.PlanMorsels(kDefaultMorselSize)) {
      if (m.slice != slice) continue;
      table.ScanMorsel(m, {}, &no_predicate, visibility, &sel, &stats,
                       [&](const ColumnBatch& b) {
                         for (size_t k = 0; k < b.sel_count; ++k) {
                           Row row;
                           for (const auto& col : *b.columns) {
                             row.push_back(col->Get(b.AbsoluteRow(k)));
                           }
                           rows.push_back(std::move(row));
                         }
                       });
    }
    return rows;
  }

  Schema schema_;
  TransactionManager tm_;
  std::unique_ptr<ColumnTable> table_;
};

TEST_F(ColumnTableTest, InsertVisibleAfterCommit) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(table_->Insert({MakeRow(1, "a"), MakeRow(2, "b")}, w->id()).ok());
  Transaction* other = tm_.Begin();
  EXPECT_EQ(*ScanAll(other), std::vector<Row>{});  // uncommitted: invisible
  EXPECT_EQ(ScanAll(w)->size(), 2u);               // own writes: visible
  ASSERT_TRUE(tm_.Commit(w).ok());
  Transaction* later = tm_.Begin();
  EXPECT_EQ(ScanAll(later)->size(), 2u);
  // `other` keeps its old snapshot.
  EXPECT_EQ(ScanAll(other)->size(), 0u);
}

TEST_F(ColumnTableTest, DeleteWhereWithPredicate) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(
      table_->Insert({MakeRow(1, "a"), MakeRow(2, "b"), MakeRow(3, "c")},
                     w->id())
          .ok());
  ASSERT_TRUE(tm_.Commit(w).ok());

  Transaction* d = tm_.Begin();
  auto pred = BindOverSchema("id >= 2", schema_);
  auto deleted = table_->DeleteWhere(pred.get(), d->id(), d->snapshot_csn(),
                                     tm_);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 2u);
  EXPECT_EQ(ScanAll(d)->size(), 1u);  // own delete visible
  Transaction* reader = tm_.Begin();
  EXPECT_EQ(ScanAll(reader)->size(), 3u);  // delete uncommitted
  ASSERT_TRUE(tm_.Commit(d).ok());
  Transaction* reader2 = tm_.Begin();
  EXPECT_EQ(ScanAll(reader2)->size(), 1u);
}

TEST_F(ColumnTableTest, AbortedInsertDisappears) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(table_->Insert({MakeRow(1, "a")}, w->id()).ok());
  ASSERT_TRUE(tm_.Abort(w).ok());
  Transaction* reader = tm_.Begin();
  EXPECT_EQ(ScanAll(reader)->size(), 0u);
}

TEST_F(ColumnTableTest, AbortedDeleteRestores) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(table_->Insert({MakeRow(1, "a")}, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());
  Transaction* d = tm_.Begin();
  ASSERT_TRUE(table_->DeleteWhere(nullptr, d->id(), d->snapshot_csn(), tm_).ok());
  ASSERT_TRUE(tm_.Abort(d).ok());
  Transaction* reader = tm_.Begin();
  EXPECT_EQ(ScanAll(reader)->size(), 1u);
}

TEST_F(ColumnTableTest, ConcurrentDeleteConflicts) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(table_->Insert({MakeRow(1, "a")}, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());
  Transaction* d1 = tm_.Begin();
  Transaction* d2 = tm_.Begin();
  ASSERT_TRUE(
      table_->DeleteWhere(nullptr, d1->id(), d1->snapshot_csn(), tm_).ok());
  auto second = table_->DeleteWhere(nullptr, d2->id(), d2->snapshot_csn(), tm_);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsConflict());
}

TEST_F(ColumnTableTest, FirstCommitterWinsAfterSnapshot) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(table_->Insert({MakeRow(1, "a")}, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());
  Transaction* d2 = tm_.Begin();  // snapshot taken now
  Transaction* d1 = tm_.Begin();
  ASSERT_TRUE(
      table_->DeleteWhere(nullptr, d1->id(), d1->snapshot_csn(), tm_).ok());
  ASSERT_TRUE(tm_.Commit(d1).ok());
  // d2 still sees the row but must not be able to delete it.
  auto second = table_->DeleteWhere(nullptr, d2->id(), d2->snapshot_csn(), tm_);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsConflict());
}

TEST_F(ColumnTableTest, UpdateProducesNewVersion) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(table_->Insert({MakeRow(1, "a")}, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());
  Transaction* u = tm_.Begin();
  auto set_expr = BindOverSchema("'updated'", schema_);
  std::vector<std::pair<size_t, const sql::BoundExpr*>> assignments = {
      {1, set_expr.get()}};
  auto updated =
      table_->UpdateWhere(assignments, nullptr, u->id(), u->snapshot_csn(), tm_);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 1u);
  ASSERT_TRUE(tm_.Commit(u).ok());
  Transaction* reader = tm_.Begin();
  auto rows = ScanAll(reader);
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].AsVarchar(), "updated");
  EXPECT_EQ(table_->NumVersions(), 2u);  // old + new version stored
}

TEST_F(ColumnTableTest, DeleteOneMatchingMultisetSemantics) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(
      table_->Insert({MakeRow(1, "dup"), MakeRow(1, "dup")}, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());
  Transaction* d = tm_.Begin();
  auto found =
      table_->DeleteOneMatching(MakeRow(1, "dup"), d->id(), d->snapshot_csn(),
                                tm_);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(ScanAll(d)->size(), 1u);  // exactly one of the duplicates deleted
  auto missing = table_->DeleteOneMatching(MakeRow(9, "zz"), d->id(),
                                           d->snapshot_csn(), tm_);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(*missing);
}

TEST_F(ColumnTableTest, HashDistributionGroupsKeys) {
  AcceleratorOptions opts;
  opts.num_slices = 4;
  ColumnTable table(schema_, /*distribution_column=*/0, opts);
  Transaction* w = tm_.Begin();
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(MakeRow(i % 10, "x"));
  ASSERT_TRUE(table.Insert(rows, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());
  // All rows with the same key land in the same slice: scanning one slice
  // yields either all 10 or none of each key.
  Transaction* r = tm_.Begin();
  for (size_t s = 0; s < table.num_slices(); ++s) {
    std::map<int64_t, int> counts;
    for (const Row& row : ScanOneSlice(table, s, r)) {
      ++counts[row[0].AsInteger()];
    }
    for (const auto& [key, count] : counts) EXPECT_EQ(count, 10) << key;
  }
}

TEST_F(ColumnTableTest, GroomReclaimsDeadVersions) {
  Transaction* w = tm_.Begin();
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) rows.push_back(MakeRow(i, "x"));
  ASSERT_TRUE(table_->Insert(rows, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());

  Transaction* d = tm_.Begin();
  auto pred = BindOverSchema("id < 10", schema_);
  ASSERT_TRUE(
      table_->DeleteWhere(pred.get(), d->id(), d->snapshot_csn(), tm_).ok());
  ASSERT_TRUE(tm_.Commit(d).ok());

  EXPECT_EQ(table_->NumVersions(), 20u);
  GroomStats stats = table_->Groom(tm_.LastCommittedCsn(), tm_);
  EXPECT_EQ(stats.rows_reclaimed, 10u);
  EXPECT_EQ(table_->NumVersions(), 10u);
  Transaction* reader = tm_.Begin();
  EXPECT_EQ(ScanAll(reader)->size(), 10u);
}

TEST_F(ColumnTableTest, GroomRespectsActiveSnapshots) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(table_->Insert({MakeRow(1, "a")}, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());
  Transaction* old_reader = tm_.Begin();  // can still see the row
  Transaction* d = tm_.Begin();
  ASSERT_TRUE(table_->DeleteWhere(nullptr, d->id(), d->snapshot_csn(), tm_).ok());
  ASSERT_TRUE(tm_.Commit(d).ok());
  // Horizon = old reader's snapshot: must NOT reclaim.
  GroomStats stats = table_->Groom(tm_.OldestActiveSnapshot(), tm_);
  EXPECT_EQ(stats.rows_reclaimed, 0u);
  EXPECT_EQ(ScanAll(old_reader)->size(), 1u);
  ASSERT_TRUE(tm_.Commit(old_reader).ok());
  stats = table_->Groom(tm_.OldestActiveSnapshot(), tm_);
  EXPECT_EQ(stats.rows_reclaimed, 1u);
}

TEST_F(ColumnTableTest, GroomDropsAbortedInserts) {
  Transaction* w = tm_.Begin();
  ASSERT_TRUE(table_->Insert({MakeRow(1, "a")}, w->id()).ok());
  ASSERT_TRUE(tm_.Abort(w).ok());
  GroomStats stats = table_->Groom(tm_.LastCommittedCsn(), tm_);
  EXPECT_EQ(stats.rows_reclaimed, 1u);
  EXPECT_EQ(table_->NumVersions(), 0u);
}

TEST_F(ColumnTableTest, ScanWithZoneMapPruning) {
  AcceleratorOptions opts;
  opts.num_slices = 1;
  opts.zone_size = 8;
  MetricsRegistry metrics;
  ColumnTable table(schema_, std::nullopt, opts);
  Transaction* w = tm_.Begin();
  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) rows.push_back(MakeRow(i, "x"));
  ASSERT_TRUE(table.Insert(rows, w->id()).ok());
  ASSERT_TRUE(tm_.Commit(w).ok());

  Transaction* r = tm_.Begin();
  auto pred = BindOverSchema("id BETWEEN 50 AND 55", schema_);
  auto result = ParallelScan(table, pred.get(), r->id(), r->snapshot_csn(),
                             tm_, /*pool=*/nullptr, &metrics);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 6u);
  // 8 zones of 8 rows; only the zone covering 48..55 survives pruning.
  EXPECT_EQ(metrics.Get(metric::kAccelRowsSkippedZoneMap), 56u);
  EXPECT_EQ(metrics.Get(metric::kAccelRowsScanned), 8u);
}

}  // namespace
}  // namespace idaa::accel
