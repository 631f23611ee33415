// Shard equivalence battery: one logical accelerator hash-partitioned
// across N shard instances must be indistinguishable from a single
// appliance. Every query shape runs three ways — DB2 row engine,
// 1-shard accelerator, N-shard accelerator — and all three must agree
// bit-for-bit at N ∈ {1, 2, 4, 8}.
//
// Bit-identity (not epsilon equality) is intentional and achievable: the
// seed data uses only FP-exact doubles (multiples of 0.25 with bounded
// magnitude), and the accelerator's aggregate accumulators merge partial
// sums by plain addition, so SUM/AVG/STDDEV/VARIANCE are exactly
// associative over this data regardless of how rows are split across
// shards or slices. Any divergence is a real partitioning bug (lost row,
// double-counted row, wrong merge), never FP noise.
//
// Coverage demanded by the shard design:
//   - scans and predicate pushdown over a hash-partitioned fact table,
//     including rows with a NULL distribution key,
//   - shard pruning (equality on the distribution column routes to one
//     shard — results must still match the full-table plans),
//   - global and grouped aggregation through the partial-merge path,
//     including VARCHAR group keys (per-shard dictionaries differ!),
//   - joins against broadcast dimensions (per-shard local build),
//   - DISTINCT and tie-free ORDER BY + LIMIT compared *in order*,
//   - accelerator-only tables with a VARCHAR distribution key,
//   - analytics operators over broadcast inputs,
//   - online AddShard: results identical before and after a rebalance.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/sharded_accelerator.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "idaa/system.h"

namespace idaa {
namespace {

federation::ExecOptions NoResultCache() {
  federation::ExecOptions opts;
  opts.use_result_cache = false;
  return opts;
}

/// Full-precision row rendering: %.17g round-trips every double exactly,
/// so equal canonical text really means bit-identical values.
std::vector<std::string> Canonical(const ResultSet& rs, bool keep_order) {
  std::vector<std::string> lines;
  lines.reserve(rs.NumRows());
  for (const Row& row : rs.rows()) {
    std::string line;
    for (const Value& v : row) {
      if (v.is_double()) {
        line += StrFormat("%.17g", v.AsDouble());
      } else {
        line += v.ToString();
      }
      line += "|";
    }
    lines.push_back(std::move(line));
  }
  if (!keep_order) std::sort(lines.begin(), lines.end());
  return lines;
}

class ShardEquivalence : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    SystemOptions base;
    base.accelerator_shards = 1;
    baseline_ = std::make_unique<IdaaSystem>(base);
    SystemOptions sharded = base;
    sharded.accelerator_shards = GetParam();
    sharded_ = std::make_unique<IdaaSystem>(sharded);
    Seed(*baseline_);
    Seed(*sharded_);
  }

  /// Deterministic, FP-exact seed. `orders` is hash-distributed on `cust`
  /// (with NULL keys mixed in), `customers` and `feats` are broadcast,
  /// and `sales_aot` is an accelerator-only table distributed on a
  /// VARCHAR column so per-shard dictionary encodings get exercised.
  static void Seed(IdaaSystem& system) {
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE orders (id INT NOT NULL, "
                             "cust INT, amount DOUBLE, region VARCHAR) "
                             "DISTRIBUTE BY (cust)")
                    .ok());
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE customers (cid INT NOT NULL, "
                             "name VARCHAR, tier VARCHAR)")
                    .ok());
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE feats (fid INT NOT NULL, "
                             "x DOUBLE, y DOUBLE)")
                    .ok());
    const char* regions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
    const char* tiers[] = {"GOLD", "SILVER", "BRONZE"};
    for (int c = 0; c < 23; ++c) {
      std::string name =
          c % 7 == 0 ? "NULL" : "'cust_" + std::to_string(c) + "'";
      ASSERT_TRUE(system
                      .Execute(StrFormat(
                          "INSERT INTO customers VALUES (%d, %s, '%s')", c,
                          name.c_str(), tiers[c % 3]))
                      .ok());
    }
    for (int i = 0; i < 240; ++i) {
      // cust covers 0..22 plus NULLs; amount is a multiple of 0.25.
      std::string cust =
          i % 9 == 4 ? "NULL" : std::to_string((i * 7) % 23);
      std::string amount =
          i % 13 == 0 ? "NULL" : StrFormat("%.2f", (i % 97) * 0.25);
      ASSERT_TRUE(system
                      .Execute(StrFormat(
                          "INSERT INTO orders VALUES (%d, %s, %s, '%s')", i,
                          cust.c_str(), amount.c_str(), regions[i % 4]))
                      .ok());
    }
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(system
                      .Execute(StrFormat(
                          "INSERT INTO feats VALUES (%d, %.2f, %.2f)", i,
                          (i % 17) * 0.5, (i % 29) * 0.25))
                      .ok());
    }
    for (const char* t : {"orders", "customers", "feats"}) {
      ASSERT_TRUE(
          system.Execute(std::string("CALL SYSPROC.ACCEL_ADD_TABLES('") + t +
                         "')")
              .ok());
    }
    ASSERT_TRUE(system.replication().Flush().ok());
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE sales_aot (region VARCHAR "
                             "NOT NULL, cnt INT, total DOUBLE) "
                             "IN ACCELERATOR DISTRIBUTE BY (region)")
                    .ok());
    ASSERT_TRUE(system
                    .Execute("INSERT INTO sales_aot SELECT region, "
                             "COUNT(*), SUM(amount) FROM orders "
                             "GROUP BY region")
                    .ok());
  }

  /// DB2 ≡ 1-shard ≡ N-shard, all compared bit-identically.
  void ExpectThreeWay(const std::string& sql) {
    bool ordered = ToUpper(sql).find("ORDER BY") != std::string::npos;

    sharded_->SetAccelerationMode(federation::AccelerationMode::kNone);
    auto db2 = sharded_->Execute(sql, NoResultCache());
    ASSERT_TRUE(db2.ok()) << sql << "\nDB2: " << db2.status().ToString();
    EXPECT_EQ(db2->routed_to, federation::Target::kDb2) << sql;

    baseline_->SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto one = baseline_->Execute(sql, NoResultCache());
    ASSERT_TRUE(one.ok()) << sql << "\n1-shard: " << one.status().ToString();
    EXPECT_EQ(one->routed_to, federation::Target::kAccelerator) << sql;

    sharded_->SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto many = sharded_->Execute(sql, NoResultCache());
    ASSERT_TRUE(many.ok())
        << sql << "\nN-shard: " << many.status().ToString();
    EXPECT_EQ(many->routed_to, federation::Target::kAccelerator) << sql;

    EXPECT_EQ(Canonical(db2->rows, ordered), Canonical(many->rows, ordered))
        << "DB2 vs " << GetParam() << "-shard: " << sql;
    EXPECT_EQ(Canonical(one->rows, ordered), Canonical(many->rows, ordered))
        << "1-shard vs " << GetParam() << "-shard: " << sql;
    EXPECT_EQ(db2->rows.schema().NumColumns(),
              many->rows.schema().NumColumns())
        << sql;
  }

  /// 1-shard ≡ N-shard for accelerator-only tables (DB2 holds no copy).
  void ExpectTwoWay(const std::string& sql) {
    bool ordered = ToUpper(sql).find("ORDER BY") != std::string::npos;
    baseline_->SetAccelerationMode(federation::AccelerationMode::kEligible);
    sharded_->SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto one = baseline_->Execute(sql, NoResultCache());
    ASSERT_TRUE(one.ok()) << sql << "\n1-shard: " << one.status().ToString();
    auto many = sharded_->Execute(sql, NoResultCache());
    ASSERT_TRUE(many.ok())
        << sql << "\nN-shard: " << many.status().ToString();
    EXPECT_EQ(Canonical(one->rows, ordered), Canonical(many->rows, ordered))
        << "1-shard vs " << GetParam() << "-shard: " << sql;
  }

  std::unique_ptr<IdaaSystem> baseline_;
  std::unique_ptr<IdaaSystem> sharded_;
};

const char* kQueries[] = {
    // scans + predicates over the partitioned fact table
    "SELECT * FROM orders WHERE amount > 15",
    "SELECT id, amount FROM orders WHERE amount BETWEEN 5 AND 10",
    "SELECT id FROM orders WHERE region = 'NORTH' AND amount > 20",
    "SELECT id FROM orders WHERE amount IS NULL",
    "SELECT id FROM orders WHERE cust IS NULL",
    "SELECT id, cust FROM orders WHERE region LIKE 'S%'",
    // shard pruning: equality on the distribution column
    "SELECT id, amount FROM orders WHERE cust = 7",
    "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = 7",
    "SELECT region, COUNT(*) FROM orders WHERE cust = 13 GROUP BY region",
    "SELECT id FROM orders WHERE cust = 7 AND amount > 10",
    // global aggregation through the partial-merge path
    "SELECT COUNT(*) FROM orders",
    "SELECT COUNT(amount), SUM(amount), AVG(amount), MIN(amount), "
    "MAX(amount) FROM orders",
    "SELECT STDDEV(amount), VARIANCE(amount) FROM orders",
    "SELECT COUNT(DISTINCT region) FROM orders",
    // grouped aggregation, including VARCHAR group keys whose per-shard
    // dictionary codes differ
    "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region",
    "SELECT cust, COUNT(*) FROM orders GROUP BY cust",
    "SELECT cust % 5, AVG(amount) FROM orders GROUP BY cust % 5",
    "SELECT region, STDDEV(amount) FROM orders GROUP BY region",
    "SELECT region, SUM(amount) FROM orders GROUP BY region "
    "HAVING SUM(amount) > 100",
    "SELECT MIN(region), MAX(region) FROM orders",
    // joins: partitioned fact against broadcast dimension
    "SELECT o.id, c.name FROM orders o JOIN customers c ON o.cust = c.cid "
    "WHERE o.amount > 20",
    "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o JOIN customers c "
    "ON o.cust = c.cid GROUP BY c.tier",
    "SELECT c.name, COUNT(*) FROM orders o JOIN customers c "
    "ON o.cust = c.cid WHERE o.region = 'EAST' GROUP BY c.name",
    // distinct / tie-free order + limit (compared in order)
    "SELECT DISTINCT region FROM orders",
    "SELECT DISTINCT cust FROM orders WHERE amount > 20",
    "SELECT id, amount FROM orders ORDER BY id LIMIT 10",
    "SELECT id FROM orders WHERE amount IS NOT NULL "
    "ORDER BY amount DESC, id ASC LIMIT 7",
    "SELECT region, COUNT(*) FROM orders GROUP BY region ORDER BY region",
    "SELECT cust, SUM(amount) FROM orders WHERE cust IS NOT NULL "
    "GROUP BY cust ORDER BY cust LIMIT 5",
};

TEST_P(ShardEquivalence, QueriesBitIdenticalAcrossShardCounts) {
  for (const char* sql : kQueries) {
    SCOPED_TRACE(sql);
    ExpectThreeWay(sql);
  }
}

TEST_P(ShardEquivalence, AotWithVarcharDistributionKey) {
  for (const char* sql : {
           "SELECT * FROM sales_aot",
           "SELECT region, total FROM sales_aot WHERE region = 'NORTH'",
           "SELECT SUM(total), SUM(cnt) FROM sales_aot",
           "SELECT region FROM sales_aot ORDER BY region",
       }) {
    SCOPED_TRACE(sql);
    ExpectTwoWay(sql);
  }
}

TEST_P(ShardEquivalence, AnalyticsOverBroadcastInput) {
  for (IdaaSystem* system : {baseline_.get(), sharded_.get()}) {
    system->SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto run = system->Execute(
        "CALL IDAA.SUMMARIZE('input=feats', 'output=feats_sum')");
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }
  ExpectTwoWay("SELECT * FROM feats_sum");
}

// Writes through DB2 must land on the right shard (insert), move rows
// between shards (replication update = delete + reinsert), and vanish
// everywhere (delete) — verified by re-running the battery's core shapes.
TEST_P(ShardEquivalence, DmlThenRequery) {
  for (IdaaSystem* system : {baseline_.get(), sharded_.get()}) {
    system->SetAccelerationMode(federation::AccelerationMode::kNone);
    ASSERT_TRUE(
        system->Execute("INSERT INTO orders VALUES (900, 3, 12.25, 'NORTH')")
            .ok());
    ASSERT_TRUE(
        system->Execute("UPDATE orders SET cust = 11 WHERE id = 900").ok());
    ASSERT_TRUE(
        system->Execute("UPDATE orders SET amount = 99.75 WHERE cust = 5")
            .ok());
    ASSERT_TRUE(system->Execute("DELETE FROM orders WHERE cust = 2").ok());
    ASSERT_TRUE(system->replication().Flush().ok());
  }
  for (const char* sql : {
           "SELECT id, cust, amount FROM orders WHERE id = 900",
           "SELECT COUNT(*), SUM(amount) FROM orders",
           "SELECT id, amount FROM orders WHERE cust = 11",
           "SELECT COUNT(*) FROM orders WHERE cust = 2",
           "SELECT cust, COUNT(*) FROM orders GROUP BY cust",
       }) {
    SCOPED_TRACE(sql);
    ExpectThreeWay(sql);
  }
}

// Equality on the distribution column must touch one shard's worth of
// data, not all of it: hash placement defeats zone maps, so this is the
// scan-cost property the whole scale-out story rests on.
TEST_P(ShardEquivalence, PruningScansOneShardOnly) {
  if (GetParam() < 2) GTEST_SKIP() << "pruning needs multiple shards";
  sharded_->SetAccelerationMode(federation::AccelerationMode::kEligible);

  MetricsDelta full(sharded_->metrics());
  ASSERT_TRUE(
      sharded_->Execute("SELECT COUNT(*) FROM orders", NoResultCache()).ok());
  uint64_t full_scanned = full.Delta(metric::kAccelRowsScanned);

  MetricsDelta pruned(sharded_->metrics());
  ASSERT_TRUE(sharded_
                  ->Execute("SELECT COUNT(*) FROM orders WHERE cust = 7",
                            NoResultCache())
                  .ok());
  uint64_t pruned_scanned = pruned.Delta(metric::kAccelRowsScanned);

  EXPECT_GT(full_scanned, 0u);
  // One shard holds roughly 1/N of the fact table; allow generous skew
  // but insist the pruned plan read strictly less than a full pass.
  EXPECT_LT(pruned_scanned, full_scanned / 2 + 1)
      << "equality on the distribution key scanned more than half the "
         "table across "
      << GetParam() << " shards";
}

// Online scale-out: AddShard rebalances live data under an exclusive
// topology gate; every query shape must return the same rows before and
// after, and the topology epoch must advance (result-cache invalidation
// keys off it).
TEST_P(ShardEquivalence, AddShardPreservesResults) {
  auto* sharded = dynamic_cast<accel::ShardedAccelerator*>(
      &sharded_->accelerator());
  if (sharded == nullptr) {
    GTEST_SKIP() << "1-shard system uses the plain accelerator";
  }
  uint64_t epoch_before = sharded->topology_epoch();
  size_t shards_before = sharded->num_shards();
  ASSERT_TRUE(sharded->AddShard().ok());
  EXPECT_EQ(sharded->num_shards(), shards_before + 1);
  EXPECT_GT(sharded->topology_epoch(), epoch_before);

  for (const char* sql : {
           "SELECT COUNT(*), SUM(amount) FROM orders",
           "SELECT id, amount FROM orders WHERE cust = 7",
           "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region",
           "SELECT c.tier, COUNT(*) FROM orders o JOIN customers c "
           "ON o.cust = c.cid GROUP BY c.tier",
           "SELECT id FROM orders ORDER BY id LIMIT 10",
       }) {
    SCOPED_TRACE(sql);
    ExpectThreeWay(sql);
  }
  for (const char* sql : {
           "SELECT * FROM sales_aot",
           "SELECT region, total FROM sales_aot WHERE region = 'WEST'",
       }) {
    SCOPED_TRACE(sql);
    ExpectTwoWay(sql);
  }

  // Replication keeps routing correctly against the grown topology.
  sharded_->SetAccelerationMode(federation::AccelerationMode::kNone);
  ASSERT_TRUE(
      sharded_->Execute("INSERT INTO orders VALUES (901, 19, 3.25, 'WEST')")
          .ok());
  ASSERT_TRUE(sharded_->replication().Flush().ok());
  baseline_->SetAccelerationMode(federation::AccelerationMode::kNone);
  ASSERT_TRUE(
      baseline_->Execute("INSERT INTO orders VALUES (901, 19, 3.25, 'WEST')")
          .ok());
  ASSERT_TRUE(baseline_->replication().Flush().ok());
  ExpectThreeWay("SELECT id, cust, amount FROM orders WHERE cust = 19");
}

// Updating the distribution key in place would silently misplace the row
// (placement is by hash of the key), so the sharded accelerator rejects
// it; non-key updates on the same table still work. AOT updates route to
// the accelerator, which is exactly the surface where this matters.
TEST_P(ShardEquivalence, DistributionKeyUpdateRejectedOnAccelerator) {
  if (GetParam() < 2) GTEST_SKIP() << "plain accelerator has no placement";
  sharded_->SetAccelerationMode(federation::AccelerationMode::kEligible);
  auto key_update =
      sharded_->Execute("UPDATE sales_aot SET region = 'MOVED' "
                        "WHERE cnt > 0");
  ASSERT_FALSE(key_update.ok());
  EXPECT_NE(key_update.status().message().find("distribution key"),
            std::string::npos)
      << key_update.status().ToString();
  ASSERT_TRUE(
      sharded_->Execute("UPDATE sales_aot SET cnt = cnt + 0 WHERE cnt > 0")
          .ok());
  ExpectTwoWay("SELECT * FROM sales_aot");
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardEquivalence,
                         ::testing::Values<size_t>(1, 2, 4, 8));

/// Stage names and detail text of an EXPLAIN ANALYZE result.
std::vector<std::pair<std::string, std::string>> Stages(const ResultSet& rs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Row& row : rs.rows()) {
    std::string stage = row[0].AsVarchar();
    stage = stage.substr(stage.find_first_not_of(' '));
    out.emplace_back(stage, row[2].is_null() ? "" : row[2].AsVarchar());
  }
  return out;
}

bool HasStageWith(const ResultSet& rs, const std::string& stage,
                  const std::string& attr) {
  for (const auto& [name, detail] : Stages(rs)) {
    if (name == stage && detail.find(attr) != std::string::npos) return true;
  }
  return false;
}

// At 4 shards a star aggregate over a hash-partitioned fact table scatters
// unfinalized partials that every shard computes in the batch join's
// aggregate-mode probe against its broadcast dimension copies — no
// row-at-a-time broadcast join — and equals DB2. A DOUBLE-keyed join,
// which the batch join declines, still equals DB2 through the coordinator
// join over row-gathered shard scans.
TEST(ShardStarAggregateTest, FourShardStarAggregateUsesBatchJoinPartials) {
  SystemOptions options;
  options.accelerator_shards = 4;
  IdaaSystem system(options);
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE fact (id INT NOT NULL, k INT, "
                           "amount DOUBLE) DISTRIBUTE BY (id)")
                  .ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE dim (k INT NOT NULL, tier VARCHAR)").ok());
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE ddim (x DOUBLE NOT NULL, "
                           "label VARCHAR)")
                  .ok());
  const char* tiers[] = {"GOLD", "SILVER", "BRONZE"};
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(system
                    .Execute(StrFormat("INSERT INTO dim VALUES (%d, '%s')", k,
                                       tiers[k % 3]))
                    .ok());
  }
  for (int x = 0; x < 8; ++x) {
    ASSERT_TRUE(system
                    .Execute(StrFormat("INSERT INTO ddim VALUES (%.2f, 'x%d')",
                                       x * 0.25, x))
                    .ok());
  }
  std::string insert = "INSERT INTO fact VALUES ";
  for (int i = 0; i < 400; ++i) {
    if (i != 0) insert += ", ";
    const std::string k = i % 31 == 0 ? "NULL" : std::to_string(i % 23);
    insert += StrFormat("(%d, %s, %.2f)", i, k.c_str(), (i % 9) * 0.25);
  }
  ASSERT_TRUE(system.Execute(insert).ok());
  for (const char* t : {"fact", "dim", "ddim"}) {
    ASSERT_TRUE(system
                    .Execute(std::string("CALL SYSPROC.ACCEL_ADD_TABLES('") +
                             t + "')")
                    .ok());
  }
  ASSERT_TRUE(system.replication().Flush().ok());

  auto expect_db2 = [&system](const std::string& sql) {
    system.SetAccelerationMode(federation::AccelerationMode::kNone);
    auto db2 = system.Execute(sql, NoResultCache());
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    system.SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto accel = system.Execute(sql, NoResultCache());
    ASSERT_TRUE(accel.ok()) << accel.status().ToString();
    EXPECT_EQ(accel->routed_to, federation::Target::kAccelerator);
    EXPECT_EQ(Canonical(db2->rows, false), Canonical(accel->rows, false))
        << sql;
  };

  const std::string star =
      "SELECT d.tier, COUNT(*), SUM(f.amount) FROM fact f "
      "JOIN dim d ON f.k = d.k GROUP BY d.tier";
  expect_db2(star);
  auto plan = system.Query("EXPLAIN ANALYZE " + star);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(
      HasStageWith(*plan, "accel.shard_scatter", "strategy=partial_aggregate"));
  EXPECT_TRUE(HasStageWith(*plan, "accel.batch_join_probe", "mode=aggregate"));
  for (const auto& [name, detail] : Stages(*plan)) {
    EXPECT_NE(name, "accel.slice_join");
    EXPECT_NE(name, "accel.broadcast_dims");
  }

  const std::string double_keyed =
      "SELECT d.label, COUNT(*) FROM fact f JOIN ddim d ON f.amount = d.x "
      "GROUP BY d.label";
  expect_db2(double_keyed);
  auto declined = system.Query("EXPLAIN ANALYZE " + double_keyed);
  ASSERT_TRUE(declined.ok()) << declined.status().ToString();
  EXPECT_TRUE(
      HasStageWith(*declined, "accel.shard_scatter", "strategy=row_gather"));
  for (const auto& [name, detail] : Stages(*declined)) {
    EXPECT_NE(name, "accel.batch_join_probe");
    EXPECT_NE(name, "accel.slice_join");
  }
}

}  // namespace
}  // namespace idaa
