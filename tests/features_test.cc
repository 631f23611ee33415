// Tests for the extended surface: multiple connections, SET CURRENT QUERY
// ACCELERATION, EXPLAIN, ACCEL_LOAD_TABLES / ACCEL_GET_TABLES_INFO, the
// SUMMARIZE operator, and the cardinality-informed ENABLE heuristic.

#include <gtest/gtest.h>

#include "idaa/system.h"

namespace idaa {
namespace {

using federation::AccelerationMode;
using federation::Target;

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

TEST(ConnectionTest, IndependentSessions) {
  IdaaSystem system;
  auto conn_a = system.NewConnection();
  auto conn_b = system.NewConnection();
  conn_a->SetUser("alice");
  EXPECT_EQ(conn_b->user(), governance::AuthorizationManager::kAdmin);
  conn_a->SetAccelerationMode(AccelerationMode::kNone);
  EXPECT_EQ(conn_b->acceleration_mode(), AccelerationMode::kEligible);
}

TEST(ConnectionTest, SnapshotIsolationBetweenConnectionsViaSql) {
  IdaaSystem system;
  ASSERT_TRUE(
      system.Execute("CREATE TABLE iso (x INT) IN ACCELERATOR").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO iso VALUES (1)").ok());

  auto reader = system.NewConnection();
  auto writer = system.NewConnection();
  ASSERT_TRUE(reader->Begin().ok());
  auto before = reader->Query("SELECT COUNT(*) FROM iso");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->At(0, 0).AsInteger(), 1);

  // Writer commits while the reader transaction stays open.
  ASSERT_TRUE(writer->Execute("INSERT INTO iso VALUES (2)").ok());

  auto during = reader->Query("SELECT COUNT(*) FROM iso");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->At(0, 0).AsInteger(), 1);  // snapshot stable
  ASSERT_TRUE(reader->Commit().ok());
  auto after = reader->Query("SELECT COUNT(*) FROM iso");
  EXPECT_EQ(after->At(0, 0).AsInteger(), 2);
}

TEST(ConnectionTest, UncommittedWritesInvisibleToOtherConnection) {
  IdaaSystem system;
  ASSERT_TRUE(
      system.Execute("CREATE TABLE w (x INT) IN ACCELERATOR").ok());
  auto writer = system.NewConnection();
  auto reader = system.NewConnection();
  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Execute("INSERT INTO w VALUES (1)").ok());
  // Writer sees its own uncommitted row; the reader does not.
  EXPECT_EQ(writer->Query("SELECT COUNT(*) FROM w")->At(0, 0).AsInteger(), 1);
  EXPECT_EQ(reader->Query("SELECT COUNT(*) FROM w")->At(0, 0).AsInteger(), 0);
  ASSERT_TRUE(writer->Commit().ok());
  EXPECT_EQ(reader->Query("SELECT COUNT(*) FROM w")->At(0, 0).AsInteger(), 1);
}

TEST(ConnectionTest, DestructorRollsBackOpenTransaction) {
  IdaaSystem system;
  ASSERT_TRUE(
      system.Execute("CREATE TABLE d (x INT) IN ACCELERATOR").ok());
  {
    auto conn = system.NewConnection();
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Execute("INSERT INTO d VALUES (1)").ok());
    // Connection dropped without commit.
  }
  EXPECT_EQ(system.Query("SELECT COUNT(*) FROM d")->At(0, 0).AsInteger(), 0);
}

// ---------------------------------------------------------------------------
// SET CURRENT QUERY ACCELERATION
// ---------------------------------------------------------------------------

TEST(SetRegisterTest, ChangesRouting) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('t')").ok());

  ASSERT_TRUE(
      system.Execute("SET CURRENT QUERY ACCELERATION = NONE").ok());
  EXPECT_EQ(system.acceleration_mode(), AccelerationMode::kNone);
  auto r = system.Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r->routed_to, Target::kDb2);

  ASSERT_TRUE(
      system.Execute("SET CURRENT QUERY ACCELERATION = ALL").ok());
  r = system.Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r->routed_to, Target::kAccelerator);
}

TEST(SetRegisterTest, InvalidValueFails) {
  IdaaSystem system;
  auto r = system.Execute("SET CURRENT QUERY ACCELERATION = SOMETIMES");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        system_.Execute("CREATE TABLE t (id INT NOT NULL, v DOUBLE)").ok());
    ASSERT_TRUE(system_.Execute("INSERT INTO t VALUES (1, 1.0)").ok());
    ASSERT_TRUE(
        system_.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('t')").ok());
  }

  std::string Aspect(const ResultSet& rs, const std::string& aspect) {
    for (const Row& row : rs.rows()) {
      if (row[0].AsVarchar() == aspect) return row[1].AsVarchar();
    }
    return "";
  }

  IdaaSystem system_;
};

TEST_F(ExplainTest, ReportsTargetAndDoesNotExecute) {
  auto r = system_.Execute("EXPLAIN SELECT SUM(v) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Aspect(r->rows, "TARGET"), "ACCELERATOR");
  EXPECT_NE(r->detail.find("not executed"), std::string::npos);
}

TEST_F(ExplainTest, ReportsSliceAggregation) {
  auto r = system_.Execute("EXPLAIN SELECT id, COUNT(*) FROM t GROUP BY id");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(Aspect(r->rows, "AGGREGATION").find("data slices"),
            std::string::npos);
  // Expression keys force coordinator aggregation.
  r = system_.Execute(
      "EXPLAIN SELECT id % 2, COUNT(*) FROM t GROUP BY id % 2");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(Aspect(r->rows, "AGGREGATION").find("coordinator"),
            std::string::npos);
}

// EXPLAIN and execution read one rule: a scan predicate that is not an
// exact range conjunction needs the morsel scan's residual step, so the
// aggregation runs at the coordinator — and EXPLAIN must say so.
TEST_F(ExplainTest, ResidualScanPredicateAggregatesAtCoordinator) {
  const char* sql =
      "SELECT id, COUNT(*) FROM t WHERE id < 5 OR v > 2.0 GROUP BY id";
  auto r = system_.Execute(std::string("EXPLAIN ") + sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(Aspect(r->rows, "AGGREGATION").find("computed at the coordinator"),
            std::string::npos)
      << Aspect(r->rows, "AGGREGATION");
  auto analyzed = system_.Execute(std::string("EXPLAIN ANALYZE ") + sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  for (const Row& row : analyzed->rows.rows()) {
    EXPECT_EQ(row[0].AsVarchar().find("accel.slice_aggregation"),
              std::string::npos);
  }
  // The exact-range version of the same filter aggregates at the slices.
  r = system_.Execute(
      "EXPLAIN SELECT id, COUNT(*) FROM t WHERE id < 5 GROUP BY id");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(Aspect(r->rows, "AGGREGATION").find("computed at the data slices"),
            std::string::npos);
}

TEST_F(ExplainTest, ReportsIndexAccessOnDb2) {
  system_.SetAccelerationMode(AccelerationMode::kNone);
  auto r = system_.Execute("EXPLAIN SELECT v FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Aspect(r->rows, "TARGET"), "DB2");
  EXPECT_NE(Aspect(r->rows, "TABLE T").find("hash index"),
            std::string::npos);
  r = system_.Execute("EXPLAIN SELECT v FROM t WHERE v > 0.5");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(Aspect(r->rows, "TABLE T").find("table scan"),
            std::string::npos);
}

TEST_F(ExplainTest, RequiresSelectPrivilege) {
  system_.SetUser("nobody");
  auto r = system_.Execute("EXPLAIN SELECT * FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotAuthorized());
}

// ---------------------------------------------------------------------------
// New procedures
// ---------------------------------------------------------------------------

TEST(ProcedureTest, AccelLoadTablesRepairsDivergence) {
  SystemOptions options;
  options.replication_batch_size = 0;
  IdaaSystem system(options);
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('t')").ok());
  // Diverge: DB2 gets rows the replica never sees (no flush), then pending
  // changes are superseded by a reload.
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  EXPECT_EQ(system.replication().PendingChanges(), 3u);
  system.SetAccelerationMode(federation::AccelerationMode::kEligible);
  EXPECT_EQ(system.Query("SELECT COUNT(*) FROM t")->At(0, 0).AsInteger(), 0);

  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_LOAD_TABLES('t')").ok());
  EXPECT_EQ(system.Query("SELECT COUNT(*) FROM t")->At(0, 0).AsInteger(), 3);
  EXPECT_EQ(system.replication().PendingChanges(), 0u);
  // Incremental update keeps working afterwards.
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (4)").ok());
  ASSERT_TRUE(system.replication().Flush().ok());
  EXPECT_EQ(system.Query("SELECT COUNT(*) FROM t")->At(0, 0).AsInteger(), 4);
}

TEST(ProcedureTest, AccelLoadTablesRejectsNonAccelerated) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE plain (a INT)").ok());
  EXPECT_FALSE(
      system.Execute("CALL SYSPROC.ACCEL_LOAD_TABLES('plain')").ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE aot (a INT) IN ACCELERATOR").ok());
  EXPECT_FALSE(
      system.Execute("CALL SYSPROC.ACCEL_LOAD_TABLES('aot')").ok());
}

TEST(ProcedureTest, GetTablesInfoListsEverything) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE a (x INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO a VALUES (1), (2)").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('a')").ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE b (x INT) IN ACCELERATOR").ok());
  ASSERT_TRUE(system.Execute("CREATE TABLE c (x INT)").ok());

  auto rs = system.Query("CALL SYSPROC.ACCEL_GET_TABLES_INFO()");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->NumRows(), 3u);
  std::map<std::string, std::string> kinds;
  std::map<std::string, bool> replicated;
  for (const Row& row : rs->rows()) {
    kinds[row[0].AsVarchar()] = row[1].AsVarchar();
    replicated[row[0].AsVarchar()] = row[4].AsBoolean();
  }
  EXPECT_EQ(kinds["A"], "ACCELERATED");
  EXPECT_EQ(kinds["B"], "ACCELERATOR_ONLY");
  EXPECT_EQ(kinds["C"], "DB2_ONLY");
  EXPECT_TRUE(replicated["A"]);
  EXPECT_FALSE(replicated["B"]);
}

// ---------------------------------------------------------------------------
// SUMMARIZE operator
// ---------------------------------------------------------------------------

TEST(SummarizeTest, AuditsColumns) {
  IdaaSystem system;
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE d (n INT, s VARCHAR) "
                              "IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system
                  .Execute("INSERT INTO d VALUES (1, 'a'), (2, 'b'), "
                              "(3, 'a'), (NULL, NULL)")
                  .ok());
  auto r = system.Execute("CALL IDAA.SUMMARIZE('input=d')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.NumRows(), 2u);
  // Column N: 3 values, 1 null, distinct 3, min 1 max 3, mean 2.
  const Row& n_row = r->rows.rows()[0];
  EXPECT_EQ(n_row[0].AsVarchar(), "N");
  EXPECT_EQ(n_row[2].AsInteger(), 3);
  EXPECT_EQ(n_row[3].AsInteger(), 1);
  EXPECT_EQ(n_row[4].AsInteger(), 3);
  EXPECT_EQ(n_row[5].AsVarchar(), "1");
  EXPECT_EQ(n_row[6].AsVarchar(), "3");
  EXPECT_DOUBLE_EQ(n_row[7].AsDouble(), 2.0);
  // Column S: strings — mean/stddev are NULL, distinct 2.
  const Row& s_row = r->rows.rows()[1];
  EXPECT_EQ(s_row[4].AsInteger(), 2);
  EXPECT_TRUE(s_row[7].is_null());
}

TEST(SummarizeTest, MaterializesOutputAot) {
  IdaaSystem system;
  ASSERT_TRUE(
      system.Execute("CREATE TABLE d (n INT) IN ACCELERATOR").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO d VALUES (5)").ok());
  ASSERT_TRUE(
      system.Execute("CALL IDAA.SUMMARIZE('input=d', 'output=d_audit')")
          .ok());
  auto rs = system.Query("SELECT column, n FROM d_audit");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->NumRows(), 1u);
}

// ---------------------------------------------------------------------------
// Cardinality-informed ENABLE heuristic
// ---------------------------------------------------------------------------

TEST(HeuristicTest, LargeScanOffloadsUnderEnable) {
  IdaaSystem system;
  system.federation().mutable_router().set_enable_row_threshold(100);
  ASSERT_TRUE(
      system.Execute("CREATE TABLE big (id INT NOT NULL, v DOUBLE)").ok());
  ASSERT_TRUE(system.Begin().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(system
                    .Execute("INSERT INTO big VALUES (" +
                                std::to_string(i) + ", 1.0)")
                    .ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('big')").ok());
  system.SetAccelerationMode(AccelerationMode::kEnable);

  // Non-analytical shape, but the scan is large: offload.
  auto wide = system.Execute("SELECT v FROM big WHERE v > 0.5");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->routed_to, Target::kAccelerator);
  EXPECT_NE(wide->detail.find("large scan"), std::string::npos);
  // Point lookup still goes to DB2 — same table, same mode.
  auto point = system.Execute("SELECT v FROM big WHERE id = 7");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->routed_to, Target::kDb2);
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

TEST(SlowQueryLogFeatureTest, FiresExactlyAtOrAboveThreshold) {
  // Deterministic threshold semantics, independent of wall-clock timing:
  // duration < threshold is skipped, duration == threshold and above are
  // recorded.
  IdaaSystem system;
  auto& log = system.slow_query_log();
  EXPECT_FALSE(log.enabled());
  log.set_threshold_us(100);
  EXPECT_FALSE(log.MaybeRecord("below", 99, 0, ""));
  EXPECT_TRUE(log.MaybeRecord("exact", 100, 0, ""));
  EXPECT_TRUE(log.MaybeRecord("above", 101, 0, ""));
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].sql, "exact");
  EXPECT_EQ(entries[1].sql, "above");
}

TEST(SlowQueryLogFeatureTest, RecordsTraceAndBoundaryBytesEndToEnd) {
  IdaaSystem system;
  ASSERT_TRUE(
      system.Execute("CREATE TABLE slow (a INT, b DOUBLE) IN ACCELERATOR")
          .ok());
  ASSERT_TRUE(
      system.Execute("INSERT INTO slow VALUES (1, 1.0), (2, 2.5)").ok());
  // Threshold 0: every statement qualifies, so the test is deterministic.
  system.slow_query_log().set_threshold_us(0);
  ASSERT_TRUE(system.Execute("SELECT SUM(b) FROM slow").ok());

  auto entries = system.slow_query_log().Entries();
  ASSERT_GE(entries.size(), 1u);
  const auto& entry = entries.back();
  EXPECT_EQ(entry.sql, "SELECT SUM(b) FROM slow");
  // The AOT select moved its statement text and result across the
  // DB2 <-> accelerator boundary.
  EXPECT_GT(entry.boundary_bytes, 0u);
  EXPECT_NE(entry.trace.find("statement"), std::string::npos);
  EXPECT_NE(entry.trace.find("xfer"), std::string::npos);
  EXPECT_NE(entry.trace.find("accel.execute"), std::string::npos);
}

}  // namespace
}  // namespace idaa
