// Targeted tests for the accelerator star join (the batch-native hash join
// and the coordinator join for the shapes it declines): duplicate
// dimension keys (cross products), NULL join keys, left-outer padding,
// empty build sides, dictionary-code VARCHAR keys spanning slices,
// transaction visibility through the fast path, and accelerator = DB2
// equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <string>
#include <vector>

#include "idaa/system.h"

namespace idaa {
namespace {

/// The agreement checks re-run the same SELECT on DB2; the result cache
/// stays off so every run really executes.
federation::ExecOptions NoResultCache() {
  federation::ExecOptions opts;
  opts.use_result_cache = false;
  return opts;
}

std::vector<std::string> Canon(const ResultSet& rs, bool keep_order) {
  std::vector<std::string> lines;
  for (const Row& row : rs.rows()) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += "|";
    }
    lines.push_back(std::move(line));
  }
  if (!keep_order) std::sort(lines.begin(), lines.end());
  return lines;
}

/// DB2 twin of a statement over the accelerator-only star: the same text
/// over the `<table>_ref` DB2 tables that SliceJoinTest keeps in step.
std::string Db2Twin(const std::string& sql) {
  static const std::regex kTables("\\b(fact|dim|nodim)\\b");
  std::string out = std::regex_replace(sql, kTables, "$1_ref");
  const std::string kAot = " IN ACCELERATOR";
  size_t pos = out.find(kAot);
  if (pos != std::string::npos) out.erase(pos, kAot.size());
  return out;
}

/// Runs `sql` over the accelerator-only tables and its twin over their DB2
/// copies; both answers must match (bit-identical canonical rows).
void ExpectMatchesDb2Twin(IdaaSystem& system, const std::string& sql) {
  const bool ordered = sql.find("ORDER BY") != std::string::npos;
  auto accel = system.Execute(sql, NoResultCache());
  ASSERT_TRUE(accel.ok()) << sql << "\n" << accel.status().ToString();
  EXPECT_EQ(accel->routed_to, federation::Target::kAccelerator) << sql;
  auto db2 = system.Execute(Db2Twin(sql), NoResultCache());
  ASSERT_TRUE(db2.ok()) << sql << "\n" << db2.status().ToString();
  EXPECT_EQ(db2->routed_to, federation::Target::kDb2) << sql;
  EXPECT_EQ(Canon(db2->rows, ordered), Canon(accel->rows, ordered)) << sql;
}

/// Runs `sql` on the accelerator and on DB2; both answers must match
/// (bit-identical canonical rows). Requires replicated tables (a DB2 copy
/// must exist).
void ExpectMatchesDb2(IdaaSystem& system, const std::string& sql) {
  const bool ordered = sql.find("ORDER BY") != std::string::npos;
  system.SetAccelerationMode(federation::AccelerationMode::kNone);
  auto db2 = system.Execute(sql, NoResultCache());
  ASSERT_TRUE(db2.ok()) << sql << "\n" << db2.status().ToString();

  system.SetAccelerationMode(federation::AccelerationMode::kEligible);
  auto accel = system.Execute(sql, NoResultCache());
  ASSERT_TRUE(accel.ok()) << sql << "\n" << accel.status().ToString();
  EXPECT_EQ(accel->routed_to, federation::Target::kAccelerator) << sql;

  EXPECT_EQ(Canon(db2->rows, ordered), Canon(accel->rows, ordered))
      << sql;
}

// Accelerator-only star; every statement also runs against DB2 twins of
// the tables (see Both), so DB2 can serve as the reference.
class SliceJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Both("CREATE TABLE fact (id INT NOT NULL, k INT, v DOUBLE) "
         "IN ACCELERATOR");
    Both("CREATE TABLE dim (k INT, label VARCHAR) IN ACCELERATOR");
    Both("INSERT INTO fact VALUES (1, 10, 1.0), (2, 20, 2.0), "
         "(3, 10, 3.0), (4, NULL, 4.0), (5, 99, 5.0)");
    // Key 10 appears TWICE in the dimension (cross product expected);
    // key 30 matches nothing; one dim row has a NULL key.
    Both("INSERT INTO dim VALUES (10, 'ten-a'), (10, 'ten-b'), "
         "(20, 'twenty'), (30, 'lonely'), (NULL, 'void')");
  }

  /// Execute `sql` on the accelerator-only tables and its Db2Twin.
  void Both(const std::string& sql) {
    ASSERT_TRUE(system_.Execute(sql).ok()) << sql;
    ASSERT_TRUE(system_.Execute(Db2Twin(sql)).ok()) << Db2Twin(sql);
  }

  IdaaSystem system_;
};

TEST_F(SliceJoinTest, DuplicateDimKeysProduceCrossProduct) {
  auto rs = system_.Query(
      "SELECT f.id, d.label FROM fact f JOIN dim d ON f.k = d.k "
      "ORDER BY f.id, d.label");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // fact 1 (k=10) -> ten-a, ten-b; fact 2 (k=20) -> twenty;
  // fact 3 (k=10) -> ten-a, ten-b; fact 4 (NULL) and 5 (99) -> dropped.
  ASSERT_EQ(rs->NumRows(), 5u);
  EXPECT_EQ(rs->At(0, 1).AsVarchar(), "ten-a");
  EXPECT_EQ(rs->At(1, 1).AsVarchar(), "ten-b");
  EXPECT_EQ(rs->At(2, 1).AsVarchar(), "twenty");
  EXPECT_EQ(rs->At(3, 0).AsInteger(), 3);
}

TEST_F(SliceJoinTest, AggregationThroughSliceJoin) {
  auto rs = system_.Query(
      "SELECT d.label, COUNT(*), SUM(f.v) FROM fact f "
      "JOIN dim d ON f.k = d.k GROUP BY d.label ORDER BY d.label");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->NumRows(), 3u);
  // ten-a: facts 1,3 -> sum 4.0; ten-b same; twenty: fact 2 -> 2.0.
  EXPECT_EQ(rs->At(0, 0).AsVarchar(), "ten-a");
  EXPECT_EQ(rs->At(0, 1).AsInteger(), 2);
  EXPECT_DOUBLE_EQ(rs->At(0, 2).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(rs->At(2, 2).AsDouble(), 2.0);
}

TEST_F(SliceJoinTest, UncommittedFactRowsVisibleToOwner) {
  ASSERT_TRUE(system_.Begin().ok());
  ASSERT_TRUE(
      system_.Execute("INSERT INTO fact VALUES (6, 20, 6.0)").ok());
  auto inside = system_.Query(
      "SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k");
  ASSERT_TRUE(inside.ok());
  EXPECT_EQ(inside->At(0, 0).AsInteger(), 6);  // 5 + the new match
  ASSERT_TRUE(system_.Rollback().ok());
  auto after = system_.Query(
      "SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k");
  EXPECT_EQ(after->At(0, 0).AsInteger(), 5);
}

TEST_F(SliceJoinTest, FallbackPathsAgreeWithFastPath) {
  // Residual join conjunct forces the coordinator join; the result must
  // match the broadcast-join answer for the pure equi version.
  auto fast = system_.Query(
      "SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k");
  auto slow = system_.Query(
      "SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k AND f.v > -1e9");
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->At(0, 0).AsInteger(), slow->At(0, 0).AsInteger());
}

TEST_F(SliceJoinTest, DimScanPredicateAppliedBeforeBroadcast) {
  auto rs = system_.Query(
      "SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k "
      "WHERE d.label LIKE 'ten%'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 4);  // facts 1,3 x (ten-a, ten-b)
}

TEST_F(SliceJoinTest, LeftOuterJoinPadsUnmatchedAndNullKeys) {
  auto rs = system_.Query(
      "SELECT f.id, d.label FROM fact f LEFT JOIN dim d ON f.k = d.k "
      "ORDER BY f.id, d.label");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // facts 1,3 match twice each; fact 2 once; facts 4 (NULL key) and 5
  // (no match) survive with a NULL label.
  ASSERT_EQ(rs->NumRows(), 7u);
  EXPECT_EQ(rs->At(5, 0).AsInteger(), 4);
  EXPECT_TRUE(rs->At(5, 1).is_null());
  EXPECT_EQ(rs->At(6, 0).AsInteger(), 5);
  EXPECT_TRUE(rs->At(6, 1).is_null());
  ExpectMatchesDb2Twin(
      system_,
      "SELECT f.id, d.label FROM fact f LEFT JOIN dim d ON f.k = d.k "
      "ORDER BY f.id, d.label");
}

TEST_F(SliceJoinTest, EmptyBuildSide) {
  Both("CREATE TABLE nodim (k INT, tag VARCHAR) IN ACCELERATOR");
  auto inner = system_.Query(
      "SELECT COUNT(*) FROM fact f JOIN nodim n ON f.k = n.k");
  ASSERT_TRUE(inner.ok()) << inner.status().ToString();
  EXPECT_EQ(inner->At(0, 0).AsInteger(), 0);
  auto left = system_.Query(
      "SELECT f.id, n.tag FROM fact f LEFT JOIN nodim n ON f.k = n.k "
      "ORDER BY f.id");
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  ASSERT_EQ(left->NumRows(), 5u);  // every fact row, NULL-padded
  for (size_t i = 0; i < 5; ++i) EXPECT_TRUE(left->At(i, 1).is_null());
  ExpectMatchesDb2Twin(
      system_, "SELECT COUNT(*) FROM fact f JOIN nodim n ON f.k = n.k");
  ExpectMatchesDb2Twin(
      system_,
      "SELECT f.id, n.tag FROM fact f LEFT JOIN nodim n ON f.k = n.k "
      "ORDER BY f.id");
}

TEST_F(SliceJoinTest, DuplicateHeavyBuildKeys) {
  // 30 more dim rows all carrying key 10: facts 1 and 3 each match the two
  // original 'ten' rows plus all 30 duplicates.
  for (int i = 0; i < 30; ++i) {
    Both("INSERT INTO dim VALUES (10, 'dup-" + std::to_string(i) + "')");
  }
  auto rs = system_.Query(
      "SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 2 * 32 + 1);
  ExpectMatchesDb2Twin(
      system_,
      "SELECT f.id, d.label FROM fact f JOIN dim d ON f.k = d.k "
      "ORDER BY f.id, d.label");
}

TEST_F(SliceJoinTest, ResidualPredicateOnBatchJoin) {
  ExpectMatchesDb2Twin(
      system_,
      "SELECT f.id, d.label FROM fact f JOIN dim d "
      "ON f.k = d.k AND f.v > 1.5 ORDER BY f.id, d.label");
  ExpectMatchesDb2Twin(
      system_,
      "SELECT f.id, d.label FROM fact f LEFT JOIN dim d "
      "ON f.k = d.k AND f.v > 1.5 ORDER BY f.id, d.label");
}

// Replicated copies of the same star (DB2 + accelerator), so the DB2
// engine can serve as the reference.
class ReplicatedJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        system_.Execute("CREATE TABLE fact (id INT NOT NULL, k INT, "
                           "v DOUBLE)")
            .ok());
    ASSERT_TRUE(
        system_.Execute("CREATE TABLE dim (k INT, label VARCHAR)").ok());
    ASSERT_TRUE(system_
                    .Execute("INSERT INTO fact VALUES (1, 10, 1.0), "
                                "(2, 20, 2.0), (3, 10, 3.0), (4, NULL, 4.0), "
                                "(5, 99, 5.0)")
                    .ok());
    ASSERT_TRUE(system_
                    .Execute("INSERT INTO dim VALUES (10, 'ten-a'), "
                                "(10, 'ten-b'), (20, 'twenty'), (30, 'lonely'), "
                                "(NULL, 'void')")
                    .ok());
    ASSERT_TRUE(
        system_.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('fact')").ok());
    ASSERT_TRUE(
        system_.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('dim')").ok());
  }

  IdaaSystem system_;
};

TEST_F(ReplicatedJoinTest, ThreeWayEquivalenceOnJoinShapes) {
  ExpectMatchesDb2(
      system_, "SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k");
  ExpectMatchesDb2(
      system_,
      "SELECT d.label, COUNT(*), SUM(f.v) FROM fact f "
      "JOIN dim d ON f.k = d.k GROUP BY d.label ORDER BY d.label");
  ExpectMatchesDb2(
      system_,
      "SELECT f.id, d.label FROM fact f JOIN dim d ON f.k = d.k "
      "WHERE f.v < 3.5 ORDER BY f.id, d.label");
  ExpectMatchesDb2(system_,
                          "SELECT COUNT(*) FROM fact f CROSS JOIN dim d");
  ExpectMatchesDb2(
      system_,
      "SELECT f.id, d.label FROM fact f LEFT JOIN dim d ON f.k = d.k "
      "ORDER BY f.id, d.label");
}

// Dictionary-encoded VARCHAR join keys with the fact table spread over
// several slices: slice-local codes differ per slice (each slice interns
// strings in its own arrival order), so the batch join must remap probe
// codes into the build table's dictionary before comparing.
class VarcharKeyJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemOptions options;
    options.accelerator.num_slices = 3;
    options.accelerator.zone_size = 8;
    system_ = std::make_unique<IdaaSystem>(options);
    ASSERT_TRUE(system_
                    ->Execute("CREATE TABLE sales (id INT NOT NULL, "
                                 "cat VARCHAR, amount INT)")
                    .ok());
    ASSERT_TRUE(system_
                    ->Execute("CREATE TABLE cats (cat VARCHAR, boost INT)")
                    .ok());
    // Round-robin placement interleaves the categories across slices in
    // different first-seen orders, so slice-local codes disagree.
    static const char* kCats[] = {"delta", "alpha", "echo", "bravo",
                                  "charlie"};
    std::string ins = "INSERT INTO sales VALUES ";
    for (int i = 0; i < 60; ++i) {
      if (i != 0) ins += ", ";
      ins += "(" + std::to_string(i) + ", '" +
             kCats[(i * 7 + i / 9) % 5] + "', " + std::to_string(i % 13) + ")";
    }
    ASSERT_TRUE(system_->Execute(ins).ok());
    ASSERT_TRUE(system_
                    ->Execute("INSERT INTO sales VALUES (60, NULL, 1), "
                                 "(61, 'zulu', 2)")
                    .ok());
    ASSERT_TRUE(system_
                    ->Execute("INSERT INTO cats VALUES ('alpha', 1), "
                                 "('bravo', 2), ('charlie', 3), ('delta', 4), "
                                 "('foxtrot', 6), (NULL, 0)")
                    .ok());
    ASSERT_TRUE(
        system_->Execute("CALL SYSPROC.ACCEL_ADD_TABLES('sales')").ok());
    ASSERT_TRUE(
        system_->Execute("CALL SYSPROC.ACCEL_ADD_TABLES('cats')").ok());
  }

  std::unique_ptr<IdaaSystem> system_;
};

TEST_F(VarcharKeyJoinTest, DictionaryCodeKeysAcrossSlices) {
  // 'echo' sales match nothing; 'zulu' and the NULL key drop out; every
  // other category matches exactly one cats row.
  ExpectMatchesDb2(
      *system_,
      "SELECT s.id, c.boost FROM sales s JOIN cats c ON s.cat = c.cat "
      "ORDER BY s.id");
  ExpectMatchesDb2(
      *system_,
      "SELECT c.cat, COUNT(*), SUM(s.amount) FROM sales s "
      "JOIN cats c ON s.cat = c.cat GROUP BY c.cat ORDER BY c.cat");
  ExpectMatchesDb2(
      *system_,
      "SELECT s.id, s.cat, c.boost FROM sales s LEFT JOIN cats c "
      "ON s.cat = c.cat ORDER BY s.id");
}

TEST_F(VarcharKeyJoinTest, BatchJoinHandlesVarcharKeys) {
  // The dictionary-code path must actually engage (not fall back).
  auto rs = system_->Query(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM sales s "
      "JOIN cats c ON s.cat = c.cat");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  bool saw_probe = false;
  for (const Row& row : rs->rows()) {
    for (const Value& v : row) {
      if (!v.is_null() && v.is_varchar() &&
          v.AsVarchar().find("batch_join_probe") != std::string::npos) {
        saw_probe = true;
      }
    }
  }
  EXPECT_TRUE(saw_probe);
}

}  // namespace
}  // namespace idaa
