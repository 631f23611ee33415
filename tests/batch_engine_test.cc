// Tests for the vectorized batch execution engine, the accelerator's only
// SELECT path: EXPLAIN ANALYZE must report batch_path=true (with
// morsel/batch/selectivity accounting) for scan and aggregate shapes, and
// the residual step for predicates that are not exact column-range
// conjunctions; results must equal DB2's across morsel/zone boundary
// configurations, dictionary-encoded VARCHAR predicates, early-LIMIT stops
// and uncommitted own writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/string_util.h"
#include "idaa/system.h"

namespace idaa {
namespace {

/// The differentials below re-run the same SELECT under different routing;
/// the result cache would serve the re-run from the first execution and
/// make the comparison vacuous, so it stays off here.
federation::ExecOptions NoResultCache() {
  federation::ExecOptions opts;
  opts.use_result_cache = false;
  return opts;
}

std::vector<std::string> CanonicalRows(const ResultSet& rs, bool keep_order) {
  std::vector<std::string> lines;
  for (const Row& row : rs.rows()) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_double() ? StrFormat("%.9g", v.AsDouble()) : v.ToString();
      line += "|";
    }
    lines.push_back(std::move(line));
  }
  if (!keep_order) std::sort(lines.begin(), lines.end());
  return lines;
}

struct StageRow {
  std::string stage;
  std::string detail;
};

std::vector<StageRow> StageRows(const ResultSet& rs) {
  std::vector<StageRow> out;
  for (size_t r = 0; r < rs.NumRows(); ++r) {
    StageRow row;
    std::string raw = rs.At(r, 0).AsVarchar();
    row.stage = raw.substr(raw.find_first_not_of(' '));
    row.detail = rs.At(r, 2).is_null() ? "" : rs.At(r, 2).AsVarchar();
    out.push_back(std::move(row));
  }
  return out;
}

/// True iff some stage matching `stage` carries `key=value` in its detail.
bool HasAttr(const std::vector<StageRow>& rows, const std::string& stage,
             const std::string& attr) {
  for (const auto& row : rows) {
    if (row.stage.find(stage) == std::string::npos) continue;
    if (row.detail.find(attr) != std::string::npos) return true;
  }
  return false;
}

uint64_t SumAttr(const std::vector<StageRow>& rows, const std::string& stage,
                 const std::string& key) {
  uint64_t total = 0;
  for (const auto& row : rows) {
    if (row.stage.find(stage) == std::string::npos) continue;
    size_t pos = row.detail.find(key + "=");
    if (pos == std::string::npos) continue;
    total += std::stoull(row.detail.substr(pos + key.size() + 1));
  }
  return total;
}

/// Seeds an orders table with deterministic values. `aot` makes it
/// accelerator-only; otherwise it lives in DB2 and is replicated to the
/// accelerator (so both engines can answer the same query). Small
/// zone/morsel sizes in `options` force multi-zone, multi-morsel scans.
void SeedOrders(IdaaSystem& system, int rows, bool aot = true) {
  ASSERT_TRUE(system
                  .Execute(std::string("CREATE TABLE orders (id INT "
                                          "NOT NULL, cust INT, amount DOUBLE, "
                                          "region VARCHAR)") +
                              (aot ? " IN ACCELERATOR" : ""))
                  .ok());
  static const char* kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
  for (int base = 0; base < rows; base += 50) {
    std::string insert = "INSERT INTO orders VALUES ";
    int end = std::min(base + 50, rows);
    for (int i = base; i < end; ++i) {
      if (i != base) insert += ", ";
      std::string amount =
          i % 11 == 0 ? "NULL" : StrFormat("%d.25", (i * 37) % 1000);
      insert += StrFormat("(%d, %d, %s, '%s')", i, i % 23, amount.c_str(),
                          kRegions[i % 4]);
    }
    ASSERT_TRUE(system.Execute(insert).ok());
  }
  if (!aot) {
    ASSERT_TRUE(
        system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('orders')").ok());
    auto flushed = system.replication().Flush();
    ASSERT_TRUE(flushed.ok());
  }
}

SystemOptions SmallBatchOptions() {
  SystemOptions options;
  options.accelerator.num_slices = 3;
  options.accelerator.zone_size = 16;
  options.accelerator.morsel_size = 32;  // several morsels per slice
  return options;
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE batch_path reporting (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(BatchEngineTest, ExplainAnalyzeReportsBatchPathForScan) {
  IdaaSystem system(SmallBatchOptions());
  SeedOrders(system, 200);
  auto rs = system.Query(
      "EXPLAIN ANALYZE SELECT id, amount FROM orders WHERE id < 120");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto rows = StageRows(*rs);
  EXPECT_TRUE(HasAttr(rows, "accel.batch_scan", "batch_path=true"));
  EXPECT_GE(SumAttr(rows, "accel.batch_scan", "morsels"), 2u);
  EXPECT_GE(SumAttr(rows, "accel.batch_scan", "batches"), 2u);
  EXPECT_TRUE(HasAttr(rows, "accel.batch_scan", "selectivity="));
  // The per-morsel slice_scan spans keep their zone-map accounting.
  EXPECT_GT(SumAttr(rows, "accel.slice_scan", "zone_map_skipped"), 0u);
  EXPECT_GT(SumAttr(rows, "accel.slice_scan", "rows_scanned"), 0u);
}

TEST(BatchEngineTest, ExplainAnalyzeReportsBatchPathForAggregate) {
  IdaaSystem system(SmallBatchOptions());
  SeedOrders(system, 200);
  auto rs = system.Query(
      "EXPLAIN ANALYZE SELECT region, COUNT(*), SUM(amount) FROM orders "
      "WHERE id < 150 GROUP BY region");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto rows = StageRows(*rs);
  EXPECT_TRUE(HasAttr(rows, "accel.slice_aggregation", "batch_path=true"));
  EXPECT_GE(SumAttr(rows, "accel.slice_aggregation", "morsels"), 2u);
  EXPECT_TRUE(HasAttr(rows, "accel.slice_aggregation", "selectivity="));
}

TEST(BatchEngineTest, ExplainAnalyzeReportsFallbackForComplexPredicate) {
  IdaaSystem system(SmallBatchOptions());
  SeedOrders(system, 100);
  // LIKE is not a column/op/literal conjunct: the morsel scan still runs
  // and the residual step evaluates the predicate per materialized row.
  auto rs = system.Query(
      "EXPLAIN ANALYZE SELECT id FROM orders WHERE region LIKE 'N%'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto rows = StageRows(*rs);
  EXPECT_TRUE(HasAttr(rows, "accel.batch_scan", "batch_path=true"));
  EXPECT_TRUE(HasAttr(rows, "accel.batch_scan", "residual=true"));
  EXPECT_EQ(SumAttr(rows, "accel.batch_scan", "residual_rejected_rows"), 75u);
  EXPECT_FALSE(HasAttr(rows, "accel.slice_scan", "batch_path=false"));
}

TEST(BatchEngineTest, ExplainAnalyzeReportsFallbackWhenDisabled) {
  // No batch switch remains: a grouped aggregate always reports the batch
  // path.
  IdaaSystem system(SmallBatchOptions());
  SeedOrders(system, 100);
  auto rs = system.Query(
      "EXPLAIN ANALYZE SELECT region, SUM(amount) FROM orders "
      "GROUP BY region");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto rows = StageRows(*rs);
  EXPECT_TRUE(HasAttr(rows, "accel.slice_aggregation", "batch_path=true"));
}

// ---------------------------------------------------------------------------
// Batch path vs DB2 differential
// ---------------------------------------------------------------------------

class BatchDifferentialTest : public ::testing::Test {
 protected:
  void SeedSmall() {
    system_ = std::make_unique<IdaaSystem>(SmallBatchOptions());
    SeedOrders(*system_, 200, /*aot=*/false);
  }

  /// Accelerator-only variant: writes hit the column store directly, so
  /// own-transaction visibility can be probed without replication.
  void SeedSmallAot() {
    system_ = std::make_unique<IdaaSystem>(SmallBatchOptions());
    SeedOrders(*system_, 200, /*aot=*/true);
  }

  /// Runs `sql` on DB2 and on the accelerator; the results must agree.
  void ExpectSame(const std::string& sql) {
    bool ordered = ToUpper(sql).find("ORDER BY") != std::string::npos;
    system_->SetAccelerationMode(federation::AccelerationMode::kNone);
    auto db2 = system_->Execute(sql, NoResultCache());
    ASSERT_TRUE(db2.ok()) << sql << "\n" << db2.status().ToString();

    system_->SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto batch = system_->Execute(sql, NoResultCache());
    ASSERT_TRUE(batch.ok()) << sql << "\n" << batch.status().ToString();
    EXPECT_EQ(batch->routed_to, federation::Target::kAccelerator) << sql;

    EXPECT_EQ(CanonicalRows(db2->rows, ordered),
              CanonicalRows(batch->rows, ordered))
        << sql;
  }

  std::unique_ptr<IdaaSystem> system_;
};

TEST_F(BatchDifferentialTest, PredicatesAcrossMorselAndZoneBoundaries) {
  SeedSmall();
  for (const char* sql : {
           "SELECT * FROM orders",
           "SELECT id, amount FROM orders WHERE id < 7",
           "SELECT id FROM orders WHERE id >= 48 AND id <= 112",
           "SELECT id, amount FROM orders WHERE amount > 500.0",
           "SELECT id FROM orders WHERE amount <= 250.5 AND cust > 3",
           "SELECT id FROM orders WHERE cust = 7",
           "SELECT id FROM orders WHERE id <> 50",
       }) {
    ExpectSame(sql);
  }
}

TEST_F(BatchDifferentialTest, VarcharPredicatesUseDictionaryCodes) {
  SeedSmall();
  for (const char* sql : {
           // Equality compiles to a dictionary-code compare.
           "SELECT id FROM orders WHERE region = 'NORTH'",
           // Ordering compiles to a per-code pass table.
           "SELECT id FROM orders WHERE region < 'SOUTH'",
           "SELECT id FROM orders WHERE region >= 'SOUTH'",
           "SELECT id, region FROM orders WHERE region <> 'EAST'",
           // Literal absent from every slice dictionary: never matches.
           "SELECT id FROM orders WHERE region = 'NOWHERE'",
           "SELECT id FROM orders WHERE region = 'NORTH' AND id > 100",
       }) {
    ExpectSame(sql);
  }
}

TEST_F(BatchDifferentialTest, NullSemanticsMatchRowPath) {
  SeedSmall();
  for (const char* sql : {
           // NULL amounts never satisfy a comparison on either path.
           "SELECT id FROM orders WHERE amount > 0.0",
           "SELECT COUNT(amount), COUNT(*) FROM orders",
           "SELECT SUM(amount), AVG(amount), MIN(amount), MAX(amount) "
           "FROM orders",
           "SELECT cust, COUNT(amount) FROM orders GROUP BY cust",
           "SELECT amount, COUNT(*) FROM orders GROUP BY amount",
       }) {
    ExpectSame(sql);
  }
}

TEST_F(BatchDifferentialTest, AggregationShapes) {
  SeedSmall();
  for (const char* sql : {
           "SELECT COUNT(*) FROM orders",
           "SELECT SUM(id) FROM orders WHERE id >= 100",
           "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region",
           "SELECT region, cust, AVG(amount) FROM orders "
           "GROUP BY region, cust",
           "SELECT MIN(region), MAX(region) FROM orders",
           "SELECT COUNT(DISTINCT region) FROM orders",
           "SELECT STDDEV(amount), VARIANCE(amount) FROM orders",
           "SELECT cust, SUM(amount) FROM orders GROUP BY cust "
           "HAVING SUM(amount) > 1000",
       }) {
    ExpectSame(sql);
  }
}

TEST_F(BatchDifferentialTest, LimitEarlyStopIsDeterministic) {
  SeedSmall();
  // Late materialization + early stop: the batch path must return the
  // first N rows (in slice-concatenation order) of the same query without
  // LIMIT, every time, and that unlimited query must equal DB2's answer.
  // Residual predicates (OR, LIKE) count rows after the residual step.
  struct Case {
    const char* unlimited;
    int limit;
  };
  for (const Case& c : {
           Case{"SELECT id FROM orders", 10},
           Case{"SELECT id FROM orders WHERE id >= 20", 7},
           Case{"SELECT id, amount FROM orders WHERE region = 'WEST'", 3},
           Case{"SELECT id FROM orders", 0},
           Case{"SELECT id FROM orders WHERE id < 5", 100},
           Case{"SELECT id FROM orders WHERE id < 3 OR id > 150", 6},
           Case{"SELECT id, region FROM orders WHERE region LIKE '%TH'", 9},
       }) {
    ExpectSame(c.unlimited);
    system_->SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto all = system_->Execute(c.unlimited, NoResultCache());
    ASSERT_TRUE(all.ok()) << c.unlimited;
    std::vector<std::string> prefix =
        CanonicalRows(all->rows, /*keep_order=*/true);
    prefix.resize(std::min<size_t>(prefix.size(), c.limit));
    const std::string sql =
        std::string(c.unlimited) + StrFormat(" LIMIT %d", c.limit);
    for (int rep = 0; rep < 5; ++rep) {
      auto limited = system_->Execute(sql, NoResultCache());
      ASSERT_TRUE(limited.ok()) << sql;
      // keep_order: LIMIT without ORDER BY is only deterministic because
      // the scan emits rows in slice order — that is the property under
      // test.
      EXPECT_EQ(prefix, CanonicalRows(limited->rows, /*keep_order=*/true))
          << sql << " rep " << rep;
    }
  }
}

TEST_F(BatchDifferentialTest, UncommittedOwnWritesVisibleOnBatchPath) {
  SeedSmallAot();
  system_->SetAccelerationMode(federation::AccelerationMode::kAll);
  ASSERT_TRUE(system_->Begin().ok());
  ASSERT_TRUE(
      system_->Execute("INSERT INTO orders VALUES (9001, 1, 42.5, 'MOON')")
          .ok());
  ASSERT_TRUE(
      system_->Execute("DELETE FROM orders WHERE id = 3").ok());

  auto own = system_->Query("SELECT id FROM orders WHERE id = 9001");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->NumRows(), 1u);  // own insert visible pre-commit
  auto gone = system_->Query("SELECT id FROM orders WHERE id = 3");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->NumRows(), 0u);  // own delete visible pre-commit
  auto count = system_->Query("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->At(0, 0).AsInteger(), 200);  // -1 +1

  ASSERT_TRUE(system_->Rollback().ok());
  auto after = system_->Query("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->At(0, 0).AsInteger(), 200);
  auto back = system_->Query("SELECT id FROM orders WHERE id = 3");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), 1u);
}

TEST_F(BatchDifferentialTest, SurvivesGroomAndUpdates) {
  SeedSmall();
  ASSERT_TRUE(
      system_->Execute("UPDATE orders SET amount = amount + 1 "
                          "WHERE cust < 5")
          .ok());
  ASSERT_TRUE(
      system_->Execute("DELETE FROM orders WHERE id % 9 = 2").ok());
  ASSERT_TRUE(system_->replication().Flush().ok());
  ExpectSame("SELECT id, cust, amount, region FROM orders WHERE id < 150");
  ASSERT_TRUE(system_->Execute("CALL SYSPROC.ACCEL_GROOM()").ok());
  ExpectSame("SELECT id, cust, amount, region FROM orders WHERE id < 150");
  ExpectSame("SELECT region, COUNT(*), SUM(amount) FROM orders "
             "GROUP BY region");
}

TEST_F(BatchDifferentialTest, SingleRowAndEmptyTables) {
  system_ = std::make_unique<IdaaSystem>(SmallBatchOptions());
  ASSERT_TRUE(system_
                  ->Execute("CREATE TABLE orders (id INT NOT NULL, "
                               "cust INT, amount DOUBLE, region VARCHAR)")
                  .ok());
  ASSERT_TRUE(
      system_->Execute("CALL SYSPROC.ACCEL_ADD_TABLES('orders')").ok());
  ExpectSame("SELECT * FROM orders");
  ExpectSame("SELECT COUNT(*), SUM(amount) FROM orders");
  ASSERT_TRUE(
      system_->Execute("INSERT INTO orders VALUES (1, 2, 3.5, 'X')").ok());
  ASSERT_TRUE(system_->replication().Flush().ok());
  ExpectSame("SELECT * FROM orders WHERE id = 1");
  ExpectSame("SELECT region, COUNT(*) FROM orders GROUP BY region");
}

// Mixed-type literal comparisons: the compiled predicate must mirror
// Value::Compare's cross-type rules (int column vs double literal) and its
// incomparable-pair rejections (int column vs varchar literal drops rows in
// DB2 — the batch path must agree).
TEST_F(BatchDifferentialTest, CrossTypeLiteralComparisons) {
  SeedSmall();
  for (const char* sql : {
           "SELECT id FROM orders WHERE id < 99.5",
           "SELECT id FROM orders WHERE amount = 62.25",
           "SELECT id FROM orders WHERE cust >= 11.0",
       }) {
    ExpectSame(sql);
  }
}

// Join shapes through the batch-native hash join: every query runs on DB2
// and on the accelerator, and both must return identical rows. The dimension table is replicated so DB2 can
// answer too; duplicate keys, an unmatched key, and NULL keys are all
// present in the seed data.
TEST_F(BatchDifferentialTest, JoinShapesMatchRowPathAndDb2) {
  SeedSmall();
  ASSERT_TRUE(system_
                  ->Execute("CREATE TABLE custdim (cid INT NOT NULL, "
                               "tier VARCHAR, credit DOUBLE)")
                  .ok());
  static const char* kTiers[] = {"GOLD", "SILVER", "BRONZE"};
  for (int c = 0; c < 23; ++c) {
    // Keys 0..20 match orders.cust (which ranges 0..22); 21/22 are left
    // unmatched on the build side, and key 5 appears twice.
    if (c >= 21) continue;
    std::string tier = c % 7 == 0 ? "NULL"
                                  : "'" + std::string(kTiers[c % 3]) + "'";
    ASSERT_TRUE(system_
                    ->Execute(StrFormat(
                        "INSERT INTO custdim VALUES (%d, %s, %d.5)", c,
                        tier.c_str(), c * 10))
                    .ok());
  }
  ASSERT_TRUE(
      system_->Execute("INSERT INTO custdim VALUES (5, 'DUP', 999.5)")
          .ok());
  ASSERT_TRUE(
      system_->Execute("CALL SYSPROC.ACCEL_ADD_TABLES('custdim')").ok());
  ASSERT_TRUE(system_->replication().Flush().ok());

  for (const char* sql : {
           "SELECT COUNT(*) FROM orders o JOIN custdim c ON o.cust = c.cid",
           "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o "
           "JOIN custdim c ON o.cust = c.cid GROUP BY c.tier",
           "SELECT o.id, c.tier FROM orders o "
           "JOIN custdim c ON o.cust = c.cid WHERE o.id < 40",
           "SELECT o.id, c.credit FROM orders o "
           "LEFT JOIN custdim c ON o.cust = c.cid WHERE o.id < 60",
           "SELECT COUNT(*) FROM orders o "
           "JOIN custdim c ON o.cust = c.cid AND o.amount > c.credit",
           "SELECT c.tier, SUM(o.amount) AS s FROM orders o "
           "JOIN custdim c ON o.cust = c.cid GROUP BY c.tier "
           "ORDER BY s DESC",
       }) {
    ExpectSame(sql);
  }
}

// ---------------------------------------------------------------------------
// Residual predicates on the morsel scan, DB2 as the oracle
// ---------------------------------------------------------------------------

/// {raw, encoded} x {1, 4 shards} x {1, 8 threads}: predicates that are not
/// exact column-range conjunctions run on the morsel scan with the full
/// predicate re-checked per materialized row (the residual step). Every
/// shape must equal DB2, including the error a failing residual raises.
class ResidualPredicateTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t, size_t>> {
 protected:
  void SetUp() override {
    SystemOptions options = SmallBatchOptions();
    options.accelerator.enable_encoding = std::get<0>(GetParam());
    options.accelerator_shards = std::get<1>(GetParam());
    options.accelerator.num_threads = std::get<2>(GetParam());
    system_ = std::make_unique<IdaaSystem>(options);
    ASSERT_TRUE(system_
                    ->Execute("CREATE TABLE orders (id INT NOT NULL, cust "
                              "INT, amount DOUBLE, region VARCHAR) "
                              "DISTRIBUTE BY (cust)")
                    .ok());
    static const char* kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
    std::string insert = "INSERT INTO orders VALUES ";
    for (int i = 0; i < 240; ++i) {
      if (i != 0) insert += ", ";
      const std::string amount =
          i % 11 == 0 ? "NULL" : StrFormat("%d.25", (i * 37) % 1000);
      const std::string cust =
          i % 17 == 5 ? "NULL" : StrFormat("%d", i % 23);
      insert += StrFormat("(%d, %s, %s, '%s')", i, cust.c_str(),
                          amount.c_str(), kRegions[(i / 8) % 4]);
    }
    ASSERT_TRUE(system_->Execute(insert).ok());
    ASSERT_TRUE(
        system_->Execute("CALL SYSPROC.ACCEL_ADD_TABLES('orders')").ok());
    ASSERT_TRUE(system_->replication().Flush().ok());
    // Encoded arm: GROOM compacts the full zones; raw arm: GROOM runs too,
    // but with encoding off it leaves every zone flat.
    ASSERT_TRUE(system_->Execute("CALL SYSPROC.ACCEL_GROOM()").ok());
  }

  Result<federation::StatementResult> Run(const std::string& sql,
                                          federation::AccelerationMode mode) {
    system_->SetAccelerationMode(mode);
    return system_->Execute(sql, NoResultCache());
  }

  std::unique_ptr<IdaaSystem> system_;
};

const char* kResidualShapes[] = {
    // OR of ranges: no exact conjunction.
    "SELECT id, amount FROM orders WHERE id < 10 OR cust = 7",
    // IN list plus an exact range conjunct (the range still prunes).
    "SELECT id FROM orders WHERE region IN ('NORTH', 'EAST') AND id > 50",
    "SELECT id, region FROM orders WHERE region LIKE '%TH'",
    // Arithmetic over a column.
    "SELECT id FROM orders WHERE amount * 2 > 900.0 AND id >= 30",
    "SELECT id FROM orders WHERE amount IS NULL",
    "SELECT id, cust FROM orders WHERE cust IS NULL OR amount IS NULL",
    "SELECT id FROM orders WHERE CASE WHEN cust > 10 THEN amount ELSE 0.0 "
    "END > 400.0",
    "SELECT id FROM orders WHERE NOT (id BETWEEN 20 AND 200)",
};

TEST_P(ResidualPredicateTest, ResidualShapesMatchDb2) {
  for (const char* sql : kResidualShapes) {
    SCOPED_TRACE(sql);
    auto db2 = Run(sql, federation::AccelerationMode::kNone);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    auto accel = Run(sql, federation::AccelerationMode::kEligible);
    ASSERT_TRUE(accel.ok()) << accel.status().ToString();
    EXPECT_EQ(accel->routed_to, federation::Target::kAccelerator);
    EXPECT_EQ(CanonicalRows(db2->rows, false),
              CanonicalRows(accel->rows, false));

    // The morsel scan runs the shape and reports its residual step.
    auto explained = Run(std::string("EXPLAIN ANALYZE ") + sql,
                         federation::AccelerationMode::kEligible);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    auto stages = StageRows(explained->rows);
    EXPECT_TRUE(HasAttr(stages, "accel.batch_scan", "batch_path=true"));
    EXPECT_TRUE(HasAttr(stages, "accel.batch_scan", "residual=true"));
  }
}

TEST_P(ResidualPredicateTest, ResidualAggregationsMatchDb2) {
  // A residual keeps the aggregation off the slices: it runs at the
  // coordinator over the morsel scan's surviving rows.
  for (const char* sql : {
           "SELECT region, COUNT(*), SUM(amount) FROM orders "
           "WHERE id % 3 = 0 GROUP BY region",
           "SELECT COUNT(*), MIN(amount), MAX(amount) FROM orders "
           "WHERE region LIKE 'S%' OR amount IS NULL",
           "SELECT cust, COUNT(*) FROM orders WHERE cust IN (1, 2, 3) "
           "GROUP BY cust",
       }) {
    SCOPED_TRACE(sql);
    auto db2 = Run(sql, federation::AccelerationMode::kNone);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    auto accel = Run(sql, federation::AccelerationMode::kEligible);
    ASSERT_TRUE(accel.ok()) << accel.status().ToString();
    EXPECT_EQ(CanonicalRows(db2->rows, false),
              CanonicalRows(accel->rows, false));
    auto explained = Run(std::string("EXPLAIN ANALYZE ") + sql,
                         federation::AccelerationMode::kEligible);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    auto stages = StageRows(explained->rows);
    EXPECT_TRUE(HasAttr(stages, "accel.batch_scan", "residual=true"));
    for (const StageRow& stage : stages) {
      EXPECT_EQ(stage.stage.find("accel.slice_aggregation"),
                std::string::npos);
    }
  }
}

TEST_P(ResidualPredicateTest, LimitCountsRowsAfterResidual) {
  const std::string where = "WHERE id < 12 OR region LIKE 'W%'";
  auto db2 = Run("SELECT id, region FROM orders " + where,
                 federation::AccelerationMode::kNone);
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  const std::vector<std::string> all = CanonicalRows(db2->rows, false);
  ASSERT_GT(all.size(), 20u);
  for (size_t limit : {size_t{5}, size_t{20}, all.size() + 10}) {
    SCOPED_TRACE(limit);
    auto accel = Run(StrFormat("SELECT id, region FROM orders %s LIMIT %zu",
                               where.c_str(), limit),
                     federation::AccelerationMode::kEligible);
    ASSERT_TRUE(accel.ok()) << accel.status().ToString();
    // Exactly min(limit, matches) rows, every one a DB2 match.
    const std::vector<std::string> got = CanonicalRows(accel->rows, false);
    EXPECT_EQ(got.size(), std::min(limit, all.size()));
    for (const std::string& row : got) {
      EXPECT_TRUE(std::binary_search(all.begin(), all.end(), row)) << row;
    }
  }
}

TEST_P(ResidualPredicateTest, ResidualErrorMatchesDb2) {
  // cust = 7 rows divide by zero in the residual on both engines.
  for (const char* sql : {
           "SELECT id FROM orders WHERE 100 / (cust - 7) > 5",
           "SELECT COUNT(*) FROM orders WHERE id > 3 AND 100 / (cust - 7) > 5",
       }) {
    SCOPED_TRACE(sql);
    auto db2 = Run(sql, federation::AccelerationMode::kNone);
    ASSERT_FALSE(db2.ok());
    auto accel = Run(sql, federation::AccelerationMode::kAll);
    ASSERT_FALSE(accel.ok());
    EXPECT_EQ(accel.status().code(), db2.status().code());
    EXPECT_EQ(accel.status().message(), db2.status().message());
  }
}

INSTANTIATE_TEST_SUITE_P(
    EncodingShardsThreads, ResidualPredicateTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values<size_t>(1, 4),
                       ::testing::Values<size_t>(1, 8)),
    [](const ::testing::TestParamInfo<std::tuple<bool, size_t, size_t>>& p) {
      return std::string(std::get<0>(p.param) ? "encoded" : "raw") + "_s" +
             std::to_string(std::get<1>(p.param)) + "_t" +
             std::to_string(std::get<2>(p.param));
    });

}  // namespace
}  // namespace idaa
