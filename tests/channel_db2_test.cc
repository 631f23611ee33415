// TransferChannel wire-codec tests and DB2 engine tests (row store, undo,
// cursor stability locking).

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "db2/db2_engine.h"
#include "federation/transfer_channel.h"
#include "idaa/system.h"
#include "sql/parser.h"

namespace idaa {
namespace {

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(WireCodecTest, RoundTripAllTypes) {
  Row row = {Value::Null(),
             Value::Boolean(true),
             Value::Integer(-123456789),
             Value::Double(3.14159),
             Value::Varchar("hello \"world\" with, commas"),
             Value::Date(-7),
             Value::Timestamp(999999999999LL)};
  std::vector<uint8_t> wire;
  federation::EncodeRow(row, &wire);
  size_t offset = 0;
  auto decoded = federation::DecodeRow(wire, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, row);
  EXPECT_EQ(offset, wire.size());
}

TEST(WireCodecTest, RandomizedRoundTripProperty) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Row row;
    size_t arity = static_cast<size_t>(rng.Uniform(0, 8));
    for (size_t i = 0; i < arity; ++i) {
      switch (rng.Uniform(0, 5)) {
        case 0: row.push_back(Value::Null()); break;
        case 1: row.push_back(Value::Boolean(rng.Bernoulli(0.5))); break;
        case 2: row.push_back(Value::Integer(rng.Uniform(-1000000, 1000000)));
          break;
        case 3: row.push_back(Value::Double(rng.UniformDouble(-1e6, 1e6)));
          break;
        case 4: row.push_back(Value::Varchar(
                    rng.RandomString(static_cast<size_t>(rng.Uniform(0, 30)))));
          break;
        default: row.push_back(Value::Date(
                     static_cast<int32_t>(rng.Uniform(-10000, 10000))));
      }
    }
    std::vector<uint8_t> wire;
    federation::EncodeRow(row, &wire);
    size_t offset = 0;
    auto decoded = federation::DecodeRow(wire, &offset);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, row);
  }
}

TEST(WireCodecTest, TruncatedBufferFails) {
  Row row = {Value::Varchar("some string data")};
  std::vector<uint8_t> wire;
  federation::EncodeRow(row, &wire);
  wire.resize(wire.size() - 3);
  size_t offset = 0;
  EXPECT_FALSE(federation::DecodeRow(wire, &offset).ok());
}

TEST(TransferChannelTest, MetersBytesAndRoundTrips) {
  MetricsRegistry metrics;
  federation::TransferChannel channel(&metrics);
  std::vector<Row> rows = {{Value::Integer(1), Value::Varchar("abc")},
                           {Value::Integer(2), Value::Varchar("defg")}};
  auto shipped = channel.SendRowsToAccelerator(rows);
  ASSERT_TRUE(shipped.ok());
  EXPECT_EQ(*shipped, rows);
  EXPECT_GT(channel.bytes_to_accelerator(), 0u);
  EXPECT_EQ(channel.bytes_from_accelerator(), 0u);
  EXPECT_EQ(metrics.Get(metric::kFederationRoundTrips), 1u);

  ResultSet rs(Schema({{"N", DataType::kInteger, true}}),
               {{Value::Integer(5)}});
  auto fetched = channel.FetchResultFromAccelerator(rs);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->NumRows(), 1u);
  EXPECT_GT(channel.bytes_from_accelerator(), 0u);
}

// ---------------------------------------------------------------------------
// Row store
// ---------------------------------------------------------------------------

TEST(RowStoreTest, InsertGetUpdateDelete) {
  db2::StoredTable table(Schema({{"A", DataType::kInteger, true}}));
  auto rid = table.Insert({Value::Integer(1)});
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ((*table.Get(*rid))[0].AsInteger(), 1);
  ASSERT_TRUE(table.Update(*rid, {Value::Integer(2)}).ok());
  EXPECT_EQ((*table.Get(*rid))[0].AsInteger(), 2);
  ASSERT_TRUE(table.Delete(*rid).ok());
  EXPECT_FALSE(table.Get(*rid).ok());
  EXPECT_EQ(table.NumLiveRows(), 0u);
  // Undelete restores (undo path).
  ASSERT_TRUE(table.Undelete(*rid).ok());
  EXPECT_EQ(table.NumLiveRows(), 1u);
}

TEST(RowStoreTest, RidsStableAcrossDeletes) {
  db2::StoredTable table(Schema({{"A", DataType::kInteger, true}}));
  auto r1 = table.Insert({Value::Integer(1)});
  auto r2 = table.Insert({Value::Integer(2)});
  auto r3 = table.Insert({Value::Integer(3)});
  ASSERT_TRUE(table.Delete(*r2).ok());
  EXPECT_EQ((*table.Get(*r1))[0].AsInteger(), 1);
  EXPECT_EQ((*table.Get(*r3))[0].AsInteger(), 3);
  auto live = table.ScanLive();
  EXPECT_EQ(live.size(), 2u);
}

TEST(RowStoreTest, SchemaEnforced) {
  db2::StoredTable table(Schema({{"A", DataType::kInteger, false}}));
  EXPECT_FALSE(table.Insert({Value::Null()}).ok());
  EXPECT_FALSE(table.Insert({Value::Varchar("x")}).ok());
  EXPECT_FALSE(table.Insert({}).ok());
}

TEST(RowStoreTest, DoubleDeleteFails) {
  db2::StoredTable table(Schema({{"A", DataType::kInteger, true}}));
  auto rid = table.Insert({Value::Integer(1)});
  ASSERT_TRUE(table.Delete(*rid).ok());
  EXPECT_FALSE(table.Delete(*rid).ok());
}

// ---------------------------------------------------------------------------
// DB2 engine: undo, capture, cursor stability
// ---------------------------------------------------------------------------

TEST(Db2EngineTest, RollbackUndoesAllDmlKinds) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT, b VARCHAR)").ok());
  ASSERT_TRUE(
      system.Execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").ok());

  ASSERT_TRUE(system.Begin().ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (3, 'three')").ok());
  ASSERT_TRUE(system.Execute("UPDATE t SET b = 'ONE' WHERE a = 1").ok());
  ASSERT_TRUE(system.Execute("DELETE FROM t WHERE a = 2").ok());
  auto mid = system.Query("SELECT COUNT(*) FROM t");
  EXPECT_EQ(mid->At(0, 0).AsInteger(), 2);
  ASSERT_TRUE(system.Rollback().ok());

  auto rs = system.Query("SELECT a, b FROM t ORDER BY a");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 2u);
  EXPECT_EQ(rs->At(0, 1).AsVarchar(), "one");  // update undone
  EXPECT_EQ(rs->At(1, 0).AsInteger(), 2);      // delete undone
}

// Searched UPDATE/DELETE scan every live row: db2.rows_scanned must rise
// by the rows examined, not by the rows changed.
TEST(Db2EngineTest, SearchedUpdateAndDeleteCountRowsScanned) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT, b INT)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 50; ++i) {
    if (i != 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 0)";
  }
  ASSERT_TRUE(system.Execute(insert).ok());

  MetricsDelta update(system.metrics());
  auto updated = system.Execute("UPDATE t SET b = b + 1 WHERE a % 10 = 3");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->rows_affected, 5u);
  EXPECT_EQ(update.Delta(metric::kDb2RowsScanned), 50u);

  MetricsDelta deleted(system.metrics());
  ASSERT_TRUE(system.Execute("DELETE FROM t WHERE a < 5").ok());
  EXPECT_EQ(deleted.Delta(metric::kDb2RowsScanned), 50u);

  MetricsDelta after_delete(system.metrics());
  ASSERT_TRUE(system.Execute("UPDATE t SET b = 0").ok());
  EXPECT_EQ(after_delete.Delta(metric::kDb2RowsScanned), 45u);
}

// The WHERE clause is evaluated over every live row before any row
// changes, so an error partway through the scan leaves the table as it
// was even inside an open transaction.
TEST(Db2EngineTest, SearchedUpdateErrorChangesNoRows) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(
      system.Execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0)")
          .ok());
  ASSERT_TRUE(system.Begin().ok());
  auto updated = system.Execute("UPDATE t SET b = 1 WHERE 10 / (a - 3) < 0");
  ASSERT_FALSE(updated.ok());
  EXPECT_NE(updated.status().message().find("division by zero"),
            std::string::npos)
      << updated.status().ToString();
  auto changed = system.Query("SELECT COUNT(*) FROM t WHERE b = 1");
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_EQ(changed->At(0, 0).AsInteger(), 0);
  ASSERT_TRUE(system.Rollback().ok());
}

TEST(Db2EngineTest, ExplicitTransactionCommitPersists) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Begin().ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(system.Execute("COMMIT").ok());
  auto rs = system.Query("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 1);
}

TEST(Db2EngineTest, WriteLocksBlockConcurrentWriters) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  // Open transaction holds an X lock after its update.
  ASSERT_TRUE(system.Begin().ok());
  ASSERT_TRUE(system.Execute("UPDATE t SET a = 2").ok());
  // A second "connection" (its own transaction via the component API).
  Transaction* other = system.txn_manager().Begin();
  auto parsed = sql::ParseStatement("DELETE FROM t");
  ASSERT_TRUE(parsed.ok());
  sql::Binder binder(system.catalog());
  auto bound =
      binder.BindDelete(*static_cast<sql::DeleteStatement*>(parsed->get()));
  ASSERT_TRUE(bound.ok());
  auto blocked = system.db2().ExecuteDelete(*bound, other);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsConflict());
  ASSERT_TRUE(system.txn_manager().Abort(other).ok());
  system.db2().lock_manager().ReleaseAll(other->id());
  ASSERT_TRUE(system.Commit().ok());
}

TEST(Db2EngineTest, CursorStabilityReleasesReadLocks) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Begin().ok());
  ASSERT_TRUE(system.Query("SELECT * FROM t").ok());
  // S lock released at end of statement: another txn may write.
  Transaction* other = system.txn_manager().Begin();
  auto info = system.catalog().GetTable("t");
  auto inserted = system.db2().InsertRows(**info, {{Value::Integer(9)}}, other);
  EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
  ASSERT_TRUE(system.txn_manager().Commit(other).ok());
  system.db2().lock_manager().ReleaseAll(other->id());
  // Cursor stability (not repeatable read): the open txn sees the new row.
  auto rs = system.Query("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 1);
  ASSERT_TRUE(system.Commit().ok());
}

TEST(Db2EngineTest, UpdateWithTypeCoercion) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a DOUBLE)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1.5)").ok());
  ASSERT_TRUE(system.Execute("UPDATE t SET a = 3").ok());  // int -> double
  auto rs = system.Query("SELECT a FROM t");
  EXPECT_TRUE(rs->At(0, 0).is_double());
  EXPECT_DOUBLE_EQ(rs->At(0, 0).AsDouble(), 3.0);
}

TEST(Db2EngineTest, NotNullViolationOnUpdateFails) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT NOT NULL)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  auto r = system.Execute("UPDATE t SET a = NULL");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST(Db2EngineTest, FailedAutoCommitStatementRollsBack) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT NOT NULL)").ok());
  // Multi-row insert where a later row violates NOT NULL: nothing persists.
  auto r = system.Execute("INSERT INTO t VALUES (1), (NULL)");
  ASSERT_FALSE(r.ok());
  auto rs = system.Query("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 0);
}

}  // namespace
}  // namespace idaa
