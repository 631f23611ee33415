// AOT INSERT ... SELECT from scan to append. Every shape runs as an
// accelerator-only INSERT ... SELECT and, against DB2 twin tables fed the
// same statements (the `<table>_ref` idiom), as the same statement with
// ACCELERATION NONE; the two targets must hold the same row multiset, with
// doubles compared bit-exactly (%.17g). The battery covers {raw, encoded}
// storage x {1, 4} shards x {1, 8} threads. Shapes the scan or batch join
// can write straight into the target's columns must report path=columnar;
// aggregates, ORDER BY, LIMIT and DISTINCT report path=rows. Errors (NOT
// NULL, division by zero) must fail the statement and leave the target
// empty, and the columnar append must leave exactly the stored state
// LoadRows of the same rows leaves.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <regex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "accel/sharded_accelerator.h"
#include "common/string_util.h"
#include "idaa/system.h"

namespace idaa {
namespace {

using federation::AccelerationMode;
using federation::Target;

federation::ExecOptions NoResultCache() {
  federation::ExecOptions opts;
  opts.use_result_cache = false;
  return opts;
}

/// %.17g round-trips every double: equal lines mean bit-identical rows.
std::vector<std::string> Canonical(const ResultSet& rs) {
  std::vector<std::string> lines;
  for (const Row& row : rs.rows()) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_double() ? StrFormat("%.17g", v.AsDouble()) : v.ToString();
      line += v.is_null() ? "<null>|" : "|";
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// The DB2 twin of a statement over the target table `tgt`.
std::string Twin(const std::string& sql) {
  static const std::regex kTarget("\\btgt\\b");
  std::string out = std::regex_replace(sql, kTarget, "tgt_ref");
  const std::string kAot = " IN ACCELERATOR";
  size_t pos = out.find(kAot);
  if (pos != std::string::npos) out.erase(pos, kAot.size());
  return out;
}

/// Storage of one accelerator table per shard (a plain accelerator is its
/// own only shard).
std::vector<const accel::ColumnTable*> ShardTables(IdaaSystem& system,
                                                   const std::string& name) {
  std::vector<const accel::ColumnTable*> out;
  auto* sharded =
      dynamic_cast<accel::ShardedAccelerator*>(&system.accelerator(0));
  if (sharded == nullptr) {
    auto t = system.accelerator(0).GetTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (t.ok()) out.push_back(*t);
    return out;
  }
  for (size_t i = 0; i < sharded->num_shards(); ++i) {
    auto t = sharded->shard(i).GetTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (t.ok()) out.push_back(*t);
  }
  return out;
}

/// Parameters: encoded storage, shards, threads.
class AotInsertSelectTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t, size_t>> {
 protected:
  void SetUp() override {
    SystemOptions options;
    options.accelerator.enable_encoding = std::get<0>(GetParam());
    options.accelerator_shards = std::get<1>(GetParam());
    options.accelerator.num_threads = std::get<2>(GetParam());
    options.accelerator.num_slices = 3;
    options.accelerator.zone_size = 16;
    options.accelerator.morsel_size = 32;
    system_ = std::make_unique<IdaaSystem>(options);
    Exec("CREATE TABLE src (id INT NOT NULL, grp INT, amount DOUBLE, "
         "qty INT, region VARCHAR, day DATE, ts TIMESTAMP, flag BOOLEAN) "
         "DISTRIBUTE BY (grp)");
    Exec("CREATE TABLE dim (k INT NOT NULL, label VARCHAR)");
    const char* regions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
    std::string values;
    for (int i = 0; i < 160; ++i) {
      std::string grp = i % 11 == 0 ? "NULL" : std::to_string(i % 7);
      std::string amount =
          i % 13 == 0 ? "NULL" : StrFormat("%.2f", i * 0.25 + i % 3);
      std::string region =
          i % 17 == 0 ? "NULL" : StrFormat("'%s'", regions[i % 4]);
      std::string flag =
          i % 5 == 0 ? "NULL" : (i % 2 == 0 ? "TRUE" : "FALSE");
      values += StrFormat("%s(%d, %s, %s, %d, %s, DATE '2020-03-%02d', "
                          "TIMESTAMP %lld, %s)",
                          values.empty() ? "" : ", ", i, grp.c_str(),
                          amount.c_str(), i % 9, region.c_str(), 1 + i % 28,
                          static_cast<long long>(1'600'000'000'000'000LL +
                                                 i * 3'600'000'000LL),
                          flag.c_str());
      if (i % 40 == 39) {
        Exec("INSERT INTO src VALUES " + values);
        values.clear();
      }
    }
    Exec("INSERT INTO dim VALUES (0, 'zero'), (1, 'one-a'), (1, 'one-b'), "
         "(2, 'two'), (3, NULL), (9, 'nine')");
    Exec("CALL SYSPROC.ACCEL_ADD_TABLES('src')");
    Exec("CALL SYSPROC.ACCEL_ADD_TABLES('dim')");
    Exec("CALL SYSPROC.ACCEL_GROOM()");
  }

  void Exec(const std::string& sql) {
    auto r = system_->Execute(sql, NoResultCache());
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  }

  /// (Re)create the AOT `tgt` and its DB2 twin `tgt_ref` from `columns`
  /// (the parenthesized column list plus any DISTRIBUTE BY).
  void CreateTargets(const std::string& columns) {
    (void)system_->Execute("DROP TABLE tgt");
    (void)system_->Execute("DROP TABLE tgt_ref");
    Exec("CREATE TABLE tgt " + columns + " IN ACCELERATOR");
    Exec("CREATE TABLE tgt_ref " + columns);
  }

  ResultSet Select(const std::string& sql, AccelerationMode mode) {
    system_->SetAccelerationMode(mode);
    auto r = system_->Execute(sql, NoResultCache());
    system_->SetAccelerationMode(AccelerationMode::kEligible);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r->rows) : ResultSet();
  }

  /// Runs `insert` as an AOT INSERT ... SELECT on the accelerator and its
  /// twin with ACCELERATION NONE, then compares both targets.
  void ExpectMatchesDb2(const std::string& columns, const std::string& insert,
                        const std::string& path) {
    SCOPED_TRACE(insert);
    CreateTargets(columns);
    system_->SetAccelerationMode(AccelerationMode::kEligible);
    auto accel = system_->Execute(insert, NoResultCache());
    ASSERT_TRUE(accel.ok()) << accel.status().ToString();
    EXPECT_EQ(accel->routed_to, Target::kAccelerator);
    EXPECT_NE(accel->detail.find("path=" + path), std::string::npos)
        << accel->detail;

    system_->SetAccelerationMode(AccelerationMode::kNone);
    auto db2 = system_->Execute(Twin(insert), NoResultCache());
    system_->SetAccelerationMode(AccelerationMode::kEligible);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    EXPECT_EQ(db2->routed_to, Target::kDb2);
    EXPECT_EQ(accel->rows_affected, db2->rows_affected);

    ResultSet aot = Select("SELECT * FROM tgt", AccelerationMode::kEligible);
    ResultSet ref = Select("SELECT * FROM tgt_ref", AccelerationMode::kNone);
    EXPECT_EQ(aot.NumRows(), accel->rows_affected);
    EXPECT_EQ(Canonical(aot), Canonical(ref));
  }

  /// The statement must fail on both engines and leave the AOT empty.
  void ExpectFailsAndLeavesTargetEmpty(const std::string& columns,
                                       const std::string& insert,
                                       const std::string& error) {
    SCOPED_TRACE(insert);
    CreateTargets(columns);
    auto accel = system_->Execute(insert, NoResultCache());
    ASSERT_FALSE(accel.ok());
    EXPECT_NE(accel.status().message().find(error), std::string::npos)
        << accel.status().ToString();
    system_->SetAccelerationMode(AccelerationMode::kNone);
    auto db2 = system_->Execute(Twin(insert), NoResultCache());
    system_->SetAccelerationMode(AccelerationMode::kEligible);
    EXPECT_FALSE(db2.ok());
    ResultSet count =
        Select("SELECT COUNT(*) FROM tgt", AccelerationMode::kEligible);
    ASSERT_EQ(count.NumRows(), 1u);
    EXPECT_EQ(count.At(0, 0).AsInteger(), 0);
  }

  std::unique_ptr<IdaaSystem> system_;
};

TEST_P(AotInsertSelectTest, PlainScan) {
  const std::string all =
      "(id INT NOT NULL, grp INT, amount DOUBLE, qty INT, region VARCHAR, "
      "day DATE, ts TIMESTAMP, flag BOOLEAN)";
  ExpectMatchesDb2(all,
                   "INSERT INTO tgt SELECT id, grp, amount, qty, region, day, "
                   "ts, flag FROM src",
                   "columnar");
  // Same into a hash-distributed target, through a range predicate the
  // compiled scan evaluates, and pruned to one shard by a key equality.
  ExpectMatchesDb2(all + " DISTRIBUTE BY (grp)",
                   "INSERT INTO tgt SELECT * FROM src WHERE qty > 2",
                   "columnar");
  ExpectMatchesDb2(all + " DISTRIBUTE BY (region)",
                   "INSERT INTO tgt SELECT * FROM src WHERE grp = 3",
                   "columnar");
}

TEST_P(AotInsertSelectTest, ResidualPredicate) {
  ExpectMatchesDb2("(id INT, amount DOUBLE, region VARCHAR)",
                   "INSERT INTO tgt SELECT id, amount, region FROM src "
                   "WHERE amount * 2 > qty OR region LIKE 'N%'",
                   "columnar");
}

TEST_P(AotInsertSelectTest, InnerAndLeftOuterJoins) {
  ExpectMatchesDb2("(id INT, grp INT, amount DOUBLE, label VARCHAR)",
                   "INSERT INTO tgt SELECT s.id, s.grp, s.amount, d.label "
                   "FROM src s JOIN dim d ON s.grp = d.k",
                   "columnar");
  ExpectMatchesDb2("(id INT, k INT, label VARCHAR, qty INT)",
                   "INSERT INTO tgt SELECT s.id, d.k, d.label, s.qty "
                   "FROM src s LEFT JOIN dim d ON s.grp = d.k AND s.qty > 3",
                   "columnar");
  ExpectMatchesDb2("(id INT, rev DOUBLE, label VARCHAR)",
                   "INSERT INTO tgt SELECT s.id, s.amount * s.qty, d.label "
                   "FROM src s JOIN dim d ON s.grp = d.k "
                   "WHERE d.label <> 'two' OR s.amount > 10",
                   "columnar");
}

TEST_P(AotInsertSelectTest, ArithmeticCaseAndNullProjections) {
  ExpectMatchesDb2(
      "(id INT, g2 INT, rev DOUBLE, size VARCHAR, nothing VARCHAR, "
      "quarter DOUBLE)",
      "INSERT INTO tgt SELECT id, grp * 2 + 1, amount * qty, "
      "CASE WHEN qty > 5 THEN 'big' WHEN region IS NULL THEN NULL "
      "ELSE region END, NULL, amount / 4 FROM src",
      "columnar");
}

TEST_P(AotInsertSelectTest, CastsIntoEveryTargetType) {
  const std::string typed =
      "(i INT, d DOUBLE, v VARCHAR, dt DATE, ts TIMESTAMP, b BOOLEAN)";
  ExpectMatchesDb2(typed,
                   "INSERT INTO tgt SELECT amount, qty, id, day, id * 1000, "
                   "qty FROM src",
                   "columnar");
  ExpectMatchesDb2(typed,
                   "INSERT INTO tgt SELECT flag, grp, amount, ts, day, flag "
                   "FROM src",
                   "columnar");
  ExpectMatchesDb2(typed,
                   "INSERT INTO tgt SELECT qty, amount, region, '2021-05-06', "
                   "qty, grp FROM src",
                   "columnar");
}

TEST_P(AotInsertSelectTest, CastsRunOnlyOnRowsTheFiltersKeep) {
  // Every fourth code and every fifth day cannot be cast to the target
  // type; the residual predicate or WHERE drops exactly those rows, so the
  // statement must succeed on both engines.
  Exec("CREATE TABLE codes (id INT NOT NULL, grp INT, code VARCHAR, "
       "day VARCHAR) DISTRIBUTE BY (id)");
  std::string values;
  for (int i = 0; i < 48; ++i) {
    values += StrFormat(
        "%s(%d, %d, '%s', '%s')", values.empty() ? "" : ", ", i, i % 4,
        i % 4 == 0 ? StrFormat("x%d", i).c_str()
                   : std::to_string(i * 7).c_str(),
        i % 5 == 0 ? "bad" : StrFormat("2021-03-%02d", 1 + i % 28).c_str());
  }
  Exec("INSERT INTO codes VALUES " + values);
  Exec("CALL SYSPROC.ACCEL_ADD_TABLES('codes')");
  ExpectMatchesDb2("(id INT, n INT, d DOUBLE)",
                   "INSERT INTO tgt SELECT id, code, code FROM codes "
                   "WHERE code NOT LIKE 'x%'",
                   "columnar");
  ExpectMatchesDb2("(id INT, dt DATE)",
                   "INSERT INTO tgt SELECT id, day FROM codes "
                   "WHERE day NOT LIKE 'b%'",
                   "columnar");
  ExpectMatchesDb2("(id INT, n INT, label VARCHAR)",
                   "INSERT INTO tgt SELECT c.id, c.code, d.label "
                   "FROM codes c JOIN dim d ON c.grp = d.k "
                   "WHERE c.code NOT LIKE 'x%' OR d.label = 'none'",
                   "columnar");
}

TEST_P(AotInsertSelectTest, ColumnListLeavesUnmappedColumnsNull) {
  ExpectMatchesDb2("(a INT, b VARCHAR, c DOUBLE)",
                   "INSERT INTO tgt (b, a) SELECT region, id FROM src",
                   "columnar");
  ExpectMatchesDb2("(a INT, b VARCHAR, c DOUBLE)",
                   "INSERT INTO tgt (c, b) SELECT s.amount, d.label "
                   "FROM src s JOIN dim d ON s.grp = d.k",
                   "columnar");
}

TEST_P(AotInsertSelectTest, RowFedSources) {
  ExpectMatchesDb2("(g INT, n INT, s DOUBLE)",
                   "INSERT INTO tgt SELECT grp, COUNT(*), SUM(amount) "
                   "FROM src GROUP BY grp",
                   "rows");
  ExpectMatchesDb2("(id INT, amount DOUBLE)",
                   "INSERT INTO tgt SELECT id, amount FROM src "
                   "ORDER BY amount DESC, id",
                   "rows");
  ExpectMatchesDb2("(id INT, amount DOUBLE)",
                   "INSERT INTO tgt SELECT id, amount FROM src ORDER BY id "
                   "LIMIT 7",
                   "rows");
  ExpectMatchesDb2("(region VARCHAR)",
                   "INSERT INTO tgt SELECT DISTINCT region FROM src", "rows");
}

TEST_P(AotInsertSelectTest, ErrorsFailTheStatementAndAppendNothing) {
  ExpectFailsAndLeavesTargetEmpty("(a INT NOT NULL, b INT)",
                                  "INSERT INTO tgt SELECT grp, id FROM src",
                                  "NOT NULL");
  ExpectFailsAndLeavesTargetEmpty(
      "(a INT, b INT)", "INSERT INTO tgt SELECT id, 10 / (qty - qty) FROM src",
      "division by zero");
  ExpectFailsAndLeavesTargetEmpty(
      "(a INT NOT NULL, b VARCHAR)",
      "INSERT INTO tgt SELECT d.k, d.label FROM src s "
      "LEFT JOIN dim d ON s.grp = d.k",
      "NOT NULL");
}

TEST_P(AotInsertSelectTest, StoredStateEqualsLoadRowsOfTheSameRows) {
  const std::string select =
      "SELECT id, grp, amount, region, day FROM src WHERE qty > 1";
  // Round-robin (sharded: broadcast) and hash-distributed on a column the
  // source is not partitioned by, so row order decides the placement.
  for (const std::string distribution : {"", " DISTRIBUTE BY (id)"}) {
    SCOPED_TRACE(distribution);
    (void)system_->Execute("DROP TABLE tgt");
    (void)system_->Execute("DROP TABLE twin");
    const std::string columns =
        "(id INT, grp INT, amount DOUBLE, region VARCHAR, day DATE)";
    Exec("CREATE TABLE tgt " + columns + " IN ACCELERATOR" + distribution);
    Exec("CREATE TABLE twin " + columns + " IN ACCELERATOR" + distribution);
    auto inserted = system_->Execute("INSERT INTO tgt " + select);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    EXPECT_NE(inserted->detail.find("path=columnar"), std::string::npos);

    // The same rows, in the SELECT's own order, through the row loader.
    ResultSet rows = Select(select, AccelerationMode::kEligible);
    ASSERT_EQ(rows.NumRows(), inserted->rows_affected);
    Transaction* txn = system_->txn_manager().Begin();
    ASSERT_TRUE(
        system_->accelerator(0).LoadRows("twin", rows.rows(), txn->id()).ok());
    ASSERT_TRUE(system_->txn_manager().Commit(txn).ok());

    std::vector<const accel::ColumnTable*> a = ShardTables(*system_, "tgt");
    std::vector<const accel::ColumnTable*> b = ShardTables(*system_, "twin");
    ASSERT_EQ(a.size(), b.size());
    for (size_t shard = 0; shard < a.size(); ++shard) {
      ASSERT_EQ(a[shard]->num_slices(), b[shard]->num_slices());
      for (size_t s = 0; s < a[shard]->num_slices(); ++s) {
        EXPECT_EQ(a[shard]->SliceContentString(s),
                  b[shard]->SliceContentString(s))
            << "shard " << shard << " slice " << s;
      }
      EXPECT_EQ(a[shard]->ByteSize(), b[shard]->ByteSize());
    }
    EXPECT_EQ(
        Canonical(Select("SELECT * FROM tgt", AccelerationMode::kEligible)),
        Canonical(Select("SELECT * FROM twin", AccelerationMode::kEligible)));
  }
}

TEST_P(AotInsertSelectTest, ExplainAnalyzeReportsPathAndRows) {
  Exec("CREATE TABLE tgt (id INT, label VARCHAR) IN ACCELERATOR");
  auto report = system_->Query(
      "EXPLAIN ANALYZE INSERT INTO tgt SELECT s.id, d.label FROM src s "
      "JOIN dim d ON s.grp = d.k");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ResultSet count =
      Select("SELECT COUNT(*) FROM tgt", AccelerationMode::kEligible);
  const int64_t appended = count.At(0, 0).AsInteger();
  EXPECT_GT(appended, 0);
  bool found = false;
  for (const Row& row : report->rows()) {
    if (row[0].AsVarchar().find("accel.insert_select") == std::string::npos) {
      continue;
    }
    found = true;
    ASSERT_FALSE(row[2].is_null());
    EXPECT_NE(row[2].AsVarchar().find("path=columnar"), std::string::npos)
        << row[2].AsVarchar();
    EXPECT_NE(row[2].AsVarchar().find("rows_appended=" +
                                      std::to_string(appended)),
              std::string::npos)
        << row[2].AsVarchar();
  }
  EXPECT_TRUE(found) << report->ToString(100);
}

INSTANTIATE_TEST_SUITE_P(
    StorageShardsThreads, AotInsertSelectTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values<size_t>(1, 4),
                       ::testing::Values<size_t>(1, 8)),
    [](const ::testing::TestParamInfo<AotInsertSelectTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "encoded" : "raw") +
             "_s" + std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Faults: a retryable fault at the accelerator fails InsertSelect before it
// appends anything, so the retried statement appends every row once.

RetryPolicy FastRetries(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.initial_backoff_us = 1;
  policy.max_backoff_us = 20;
  return policy;
}

TEST(AotInsertSelectFaultTest, RetriedFaultAppendsEveryRowOnce) {
  IdaaSystem system;
  system.federation().set_retry_policy(FastRetries(4));
  ASSERT_TRUE(system.Execute("CREATE TABLE s (id INT, v DOUBLE) IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system.Execute("CREATE TABLE t (id INT, v DOUBLE) IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(
      system.Execute("INSERT INTO s VALUES (1, 0.5), (2, 1.5), (3, 2.5)").ok());

  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_failures = 2;
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"), spec);
  auto r = system.Execute("INSERT INTO t SELECT id, v * 2 FROM s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->retries, 1u);
  EXPECT_EQ(r->rows_affected, 3u);
  system.fault_injector().Disarm(FaultInjector::AcceleratorSite("ACCEL1"));
  auto count = system.Query("SELECT COUNT(*), SUM(v) FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->At(0, 0).AsInteger(), 3);
  EXPECT_EQ(count->At(0, 1).AsDouble(), 9.0);
}

TEST(AotInsertSelectFaultTest, ExhaustedFaultLeavesTargetEmpty) {
  IdaaSystem system;
  system.federation().set_retry_policy(FastRetries(2));
  ASSERT_TRUE(system.Execute("CREATE TABLE s (id INT) IN ACCELERATOR").ok());
  ASSERT_TRUE(system.Execute("CREATE TABLE t (id INT) IN ACCELERATOR").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO s VALUES (1), (2)").ok());
  FaultSpec spec;
  spec.probability = 1.0;
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"), spec);
  auto r = system.Execute("INSERT INTO t SELECT id FROM s");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().retryable());
  EXPECT_NE(r.status().message().find("cannot fail back"), std::string::npos);
  system.fault_injector().Disarm(FaultInjector::AcceleratorSite("ACCEL1"));
  auto count = system.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->At(0, 0).AsInteger(), 0);
}

TEST(AotInsertSelectFaultTest, ShardFaultAppendsEveryRowOnce) {
  // A fault at one shard of a partitioned target is drawn before any
  // shard appends, for accelerator-side and DB2-sourced INSERT ... SELECT
  // alike, so the retry appends every row exactly once.
  SystemOptions options;
  options.accelerator_shards = 4;
  IdaaSystem system(options);
  system.federation().set_retry_policy(FastRetries(4));
  ASSERT_TRUE(system.Execute("CREATE TABLE d (id INT)").ok());
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE s (id INT) IN ACCELERATOR "
                           "DISTRIBUTE BY (id)")
                  .ok());
  std::string values;
  for (int i = 0; i < 100; ++i) {
    values += StrFormat("%s(%d)", values.empty() ? "" : ", ", i);
  }
  ASSERT_TRUE(system.Execute("INSERT INTO d VALUES " + values).ok());
  ASSERT_TRUE(system.Execute("INSERT INTO s SELECT id FROM d").ok());
  for (const char* source : {"s", "d"}) {
    SCOPED_TRACE(source);
    (void)system.Execute("DROP TABLE t");
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE t (id INT) IN ACCELERATOR "
                             "DISTRIBUTE BY (id)")
                    .ok());
    FaultSpec spec;
    spec.probability = 1.0;
    spec.max_failures = 1;
    system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1#3"),
                                spec);
    auto r = system.Execute(std::string("INSERT INTO t SELECT id FROM ") +
                            source);
    system.fault_injector().Disarm(FaultInjector::AcceleratorSite("ACCEL1#3"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r->retries, 1u);
    auto count = system.Query("SELECT COUNT(*), COUNT(DISTINCT id) FROM t");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count->At(0, 0).AsInteger(), 100);
    EXPECT_EQ(count->At(0, 1).AsInteger(), 100);
  }
}

// ---------------------------------------------------------------------------
// Stress: INSERT ... SELECT from an AOT while GROOM and writers run on the
// source. Every statement must succeed, and every appended row must be a
// faithful copy of a source row (w == id by construction).

TEST(AotInsertSelectStressTest, InsertSelectRacesGroomAndWriters) {
  SystemOptions options;
  options.accelerator.num_threads = 4;
  options.accelerator.num_slices = 3;
  options.accelerator.zone_size = 16;
  options.accelerator.morsel_size = 32;
  IdaaSystem system(options);
  ASSERT_TRUE(
      system.Execute("CREATE TABLE stream (id INT, v DOUBLE) IN ACCELERATOR")
          .ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE sink (id INT, w DOUBLE) IN ACCELERATOR")
          .ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> writing{true};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    auto conn = system.NewConnection();
    for (int batch = 0; batch < 40 && !stop; ++batch) {
      std::string values;
      for (int i = 0; i < 20; ++i) {
        const int id = batch * 20 + i;
        values += StrFormat("%s(%d, %.1f)", values.empty() ? "" : ", ", id,
                            id * 0.5);
      }
      if (!conn->Execute("INSERT INTO stream VALUES " + values).ok()) {
        ++failures;
      }
      if (batch % 4 == 3 &&
          !conn->Execute(StrFormat("DELETE FROM stream WHERE id < %d",
                                   batch * 5))
               .ok()) {
        ++failures;
      }
    }
    writing = false;
  });
  std::thread groomer([&] {
    auto conn = system.NewConnection();
    while (!stop) {
      if (!conn->Execute("CALL SYSPROC.ACCEL_GROOM()").ok()) ++failures;
    }
  });
  size_t appended = 0;
  {
    auto conn = system.NewConnection();
    for (int round = 0; round < 30 || writing; ++round) {
      auto r = conn->Execute(
          "INSERT INTO sink SELECT id, v * 2 FROM stream WHERE id >= 0");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_NE(r->detail.find("path=columnar"), std::string::npos);
      appended += r->rows_affected;
    }
  }
  writer.join();
  stop = true;
  groomer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(appended, 0u);
  auto count = system.Query("SELECT COUNT(*) FROM sink");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(static_cast<size_t>(count->At(0, 0).AsInteger()), appended);
  auto bad = system.Query("SELECT COUNT(*) FROM sink WHERE w <> id");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->At(0, 0).AsInteger(), 0);
}

}  // namespace
}  // namespace idaa
