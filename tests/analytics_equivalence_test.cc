// Numerical-equivalence and determinism suite for the morsel-parallel
// analytics operators (the batch path):
//  1. Per operator: parallel-batch results match the serial row path —
//     bit-exact for integer/categorical outputs (DISCRETIZE, ONEHOT,
//     SAMPLE, SUMMARIZE, APRIORI, DECISIONTREE), within epsilon for
//     floating-point model state (KMEANS, LINREG, NAIVEBAYES, NORMALIZE,
//     IMPUTE means).
//  2. Determinism: the batch path produces bit-identical results (%.17g)
//     regardless of the accelerator's thread count, because the chunked
//     partial states are fixed-size and merged in ascending order.
//  3. Scan-pin regression: an open AnalyticsInput holds the table's groom
//     pin, so GROOM cannot reclaim or rebuild rows mid-model-fit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "analytics/batch_input.h"
#include "analytics/operator.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "idaa/system.h"

namespace idaa {
namespace {

SystemOptions AnalyticsOptions(size_t threads) {
  SystemOptions options;
  options.accelerator.num_threads = threads;
  options.accelerator.num_slices = 4;
  options.accelerator.zone_size = 256;
  options.accelerator.morsel_size = 512;  // many morsels even on small data
  return options;
}

/// Deterministic feature table: three well-separated Gaussian clusters (so
/// k-means assignments are robust to epsilon-level centroid differences), a
/// linear y = 2x + 3 relation for LINREG, categorical columns for the
/// classifiers, and NULLs sprinkled into x.
void SeedFeatures(IdaaSystem& system, size_t rows) {
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE feats (id INT NOT NULL, x DOUBLE, "
                              "y DOUBLE, z DOUBLE, cat VARCHAR, "
                              "label VARCHAR)")
                  .ok());
  Schema schema({{"ID", DataType::kInteger, false},
                 {"X", DataType::kDouble, true},
                 {"Y", DataType::kDouble, true},
                 {"Z", DataType::kDouble, true},
                 {"CAT", DataType::kVarchar, true},
                 {"LABEL", DataType::kVarchar, true}});
  static const char* kCats[] = {"RED", "GREEN", "BLUE"};
  static const char* kLabels[] = {"C0", "C1", "C2"};
  Rng rng(11);
  loader::GeneratorSource source(schema, rows, [&rng](size_t i) {
    size_t cluster = i % 3;
    double base = static_cast<double>(cluster) * 40.0;
    double xv = rng.Gaussian(base, 1.0);
    double yv = 2.0 * xv + 3.0 + rng.Gaussian(0, 0.5);
    double zv = rng.Gaussian(base, 1.0);
    return Row{Value::Integer(static_cast<int64_t>(i)),
               i % 17 == 13 ? Value::Null() : Value::Double(xv),
               Value::Double(yv), Value::Double(zv),
               Value::Varchar(kCats[i % 3]), Value::Varchar(kLabels[cluster])};
  });
  loader::LoadOptions options;
  options.batch_size = 4096;
  auto report = system.loader().Load("feats", &source, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('feats')").ok());
}

/// Market-basket table for APRIORI: three items per transaction drawn from
/// a fixed correlated pattern, with occasional NULL items.
void SeedBasket(IdaaSystem& system, size_t tids) {
  ASSERT_TRUE(
      system
          .Execute("CREATE TABLE basket (tid INT NOT NULL, item VARCHAR)")
          .ok());
  Schema schema({{"TID", DataType::kInteger, false},
                 {"ITEM", DataType::kVarchar, true}});
  static const char* kItems[] = {"BREAD", "MILK", "BEER", "DIAPERS", "EGGS"};
  loader::GeneratorSource source(schema, tids * 3, [](size_t i) {
    size_t tid = i / 3;
    size_t j = i % 3;
    return Row{Value::Integer(static_cast<int64_t>(tid)),
               (tid * 3 + j) % 23 == 7
                   ? Value::Null()
                   : Value::Varchar(kItems[(tid + j * j) % 5])};
  });
  auto report = system.loader().Load("basket", &source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('basket')").ok());
}

std::string CanonicalValue(const Value& v) {
  return v.is_double() ? StrFormat("%.17g", v.AsDouble()) : v.ToString();
}

std::string CanonicalRow(const Row& row) {
  std::string line;
  for (const Value& v : row) {
    line += CanonicalValue(v);
    line += "|";
  }
  return line;
}

/// SELECT row order is not contractual across scan paths, so output tables
/// are compared as canonically-sorted row lists. Every table here either
/// has a unique leading id or bit-identical values in both runs, so the
/// sort pairs up the same logical rows.
std::vector<Row> SortedRows(const ResultSet& rs) {
  std::vector<Row> rows = rs.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return CanonicalRow(a) < CanonicalRow(b);
  });
  return rows;
}

struct OpCapture {
  std::vector<Row> summary;                 // CALL result, in emitted order
  std::vector<std::vector<Row>> outputs;    // sorted rows per output AOT
};

/// Run one CALL with the accelerator's batch path toggled as requested,
/// then read the output AOTs back (always on the default path, so the CALL
/// toggle is the only variable).
OpCapture RunOp(IdaaSystem& system, bool batch_path, const std::string& call,
                const std::vector<std::string>& outputs) {
  system.accelerator().SetAnalyticsBatchPathEnabled(batch_path);
  auto rs = system.Query(call);
  system.accelerator().SetAnalyticsBatchPathEnabled(true);
  EXPECT_TRUE(rs.ok()) << call << ": " << rs.status().ToString();
  OpCapture cap;
  if (!rs.ok()) return cap;
  cap.summary = rs->rows();
  for (const std::string& table : outputs) {
    auto out = system.Query("SELECT * FROM " + table);
    EXPECT_TRUE(out.ok()) << table << ": " << out.status().ToString();
    cap.outputs.push_back(out.ok() ? SortedRows(*out) : std::vector<Row>{});
  }
  return cap;
}

void ExpectRowsNear(const std::vector<Row>& batch,
                    const std::vector<Row>& serial, double rel_tol,
                    const std::string& what) {
  ASSERT_EQ(batch.size(), serial.size()) << what;
  for (size_t r = 0; r < batch.size(); ++r) {
    ASSERT_EQ(batch[r].size(), serial[r].size()) << what << " row " << r;
    for (size_t c = 0; c < batch[r].size(); ++c) {
      const Value& a = batch[r][c];
      const Value& b = serial[r][c];
      if (a.is_double() && b.is_double()) {
        double scale = std::max(
            1.0, std::max(std::abs(a.AsDouble()), std::abs(b.AsDouble())));
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(), rel_tol * scale)
            << what << " row " << r << " col " << c;
      } else {
        EXPECT_EQ(a.ToString(), b.ToString())
            << what << " row " << r << " col " << c;
      }
    }
  }
}

void ExpectRowsExact(const std::vector<Row>& batch,
                     const std::vector<Row>& serial, const std::string& what) {
  ASSERT_EQ(batch.size(), serial.size()) << what;
  for (size_t r = 0; r < batch.size(); ++r) {
    EXPECT_EQ(CanonicalRow(batch[r]), CanonicalRow(serial[r]))
        << what << " row " << r;
  }
}

void ExpectCapturesNear(const OpCapture& batch, const OpCapture& serial,
                        double rel_tol, const std::string& what) {
  ExpectRowsNear(batch.summary, serial.summary, rel_tol, what + " summary");
  ASSERT_EQ(batch.outputs.size(), serial.outputs.size());
  for (size_t t = 0; t < batch.outputs.size(); ++t) {
    ExpectRowsNear(batch.outputs[t], serial.outputs[t], rel_tol,
                   what + " output " + std::to_string(t));
  }
}

void ExpectCapturesExact(const OpCapture& batch, const OpCapture& serial,
                         const std::string& what) {
  ExpectRowsExact(batch.summary, serial.summary, what + " summary");
  ASSERT_EQ(batch.outputs.size(), serial.outputs.size());
  for (size_t t = 0; t < batch.outputs.size(); ++t) {
    ExpectRowsExact(batch.outputs[t], serial.outputs[t],
                    what + " output " + std::to_string(t));
  }
}

constexpr double kRelTol = 1e-6;
constexpr size_t kRows = 5000;  // > one 4096-row chunk: real partial merges

class AnalyticsEquivalenceTest : public ::testing::Test {
 protected:
  AnalyticsEquivalenceTest() : system_(AnalyticsOptions(4)) {}

  void SetUp() override { SeedFeatures(system_, kRows); }

  /// Batch-vs-serial differential run of one CALL.
  void Compare(const std::string& call, const std::vector<std::string>& outs,
               bool exact) {
    OpCapture batch = RunOp(system_, /*batch_path=*/true, call, outs);
    OpCapture serial = RunOp(system_, /*batch_path=*/false, call, outs);
    if (exact) {
      ExpectCapturesExact(batch, serial, call);
    } else {
      ExpectCapturesNear(batch, serial, kRelTol, call);
    }
  }

  IdaaSystem system_;
};

TEST_F(AnalyticsEquivalenceTest, KMeansMatchesSerial) {
  // Integer parts of the summary (k, iterations, rows, skipped) and the
  // full assignments AOT must be identical; inertia is epsilon-compared.
  Compare("CALL IDAA.KMEANS('input=feats', 'output=feats_k', "
          "'centroids_output=feats_c', 'columns=x,y,z', 'k=3', 'seed=5')",
          {"feats_k"}, /*exact=*/false);
}

TEST_F(AnalyticsEquivalenceTest, KMeansAssignmentsExact) {
  // With well-separated clusters, the assignments AOT (input features +
  // CLUSTER) is bit-identical: extraction is exact and no point sits near
  // a centroid boundary.
  OpCapture batch = RunOp(
      system_, true,
      "CALL IDAA.KMEANS('input=feats', 'output=feats_k', 'columns=x,y,z', "
      "'k=3', 'seed=5')",
      {"feats_k"});
  OpCapture serial = RunOp(
      system_, false,
      "CALL IDAA.KMEANS('input=feats', 'output=feats_k', 'columns=x,y,z', "
      "'k=3', 'seed=5')",
      {"feats_k"});
  ASSERT_EQ(batch.outputs.size(), 1u);
  ASSERT_EQ(serial.outputs.size(), 1u);
  ExpectRowsExact(batch.outputs[0], serial.outputs[0], "kmeans assignments");
}

TEST_F(AnalyticsEquivalenceTest, LinregMatchesSerial) {
  Compare("CALL IDAA.LINREG('input=feats', 'target=y', 'columns=x', "
          "'output=feats_r')",
          {"feats_r"}, /*exact=*/false);
}

TEST_F(AnalyticsEquivalenceTest, NaiveBayesMatchesSerial) {
  Compare("CALL IDAA.NAIVEBAYES('input=feats', 'label=label', "
          "'columns=x,z', 'output=feats_nb')",
          {"feats_nb"}, /*exact=*/false);
}

TEST_F(AnalyticsEquivalenceTest, DecisionTreeMatchesSerial) {
  // The parallel split search reduces per-feature bests in ascending
  // feature order with a strict improvement test, replicating the serial
  // tie-breaking — the whole run is exact.
  Compare("CALL IDAA.DECISIONTREE('input=feats', 'label=label', "
          "'columns=x,z', 'max_depth=4', 'output=feats_dt')",
          {"feats_dt"}, /*exact=*/true);
}

TEST_F(AnalyticsEquivalenceTest, AprioriMatchesSerial) {
  SeedBasket(system_, 300);
  // Support counts are integers and the per-tid grouping is set-union:
  // exact on both the summary and the itemsets AOT.
  Compare("CALL IDAA.APRIORI('input=basket', 'tid_column=tid', "
          "'item_column=item', 'min_support=0.2', 'max_size=3', "
          "'output=basket_fi')",
          {"basket_fi"}, /*exact=*/true);
}

TEST_F(AnalyticsEquivalenceTest, NormalizeZscoreMatchesSerial) {
  Compare("CALL IDAA.NORMALIZE('input=feats', 'output=feats_n', "
          "'columns=x,y,z')",
          {"feats_n"}, /*exact=*/false);
}

TEST_F(AnalyticsEquivalenceTest, NormalizeMinMaxMatchesSerial) {
  Compare("CALL IDAA.NORMALIZE('input=feats', 'output=feats_m', "
          "'columns=x,y', 'method=minmax')",
          {"feats_m"}, /*exact=*/false);
}

TEST_F(AnalyticsEquivalenceTest, DiscretizeMatchesSerial) {
  // Bin boundaries derive from a chunked min/max (comparisons commute):
  // bit-exact.
  Compare("CALL IDAA.DISCRETIZE('input=feats', 'output=feats_d', "
          "'column=y', 'bins=8')",
          {"feats_d"}, /*exact=*/true);
}

TEST_F(AnalyticsEquivalenceTest, ImputeMatchesSerial) {
  Compare("CALL IDAA.IMPUTE('input=feats', 'output=feats_i', "
          "'columns=x,cat')",
          {"feats_i"}, /*exact=*/false);
}

TEST_F(AnalyticsEquivalenceTest, OneHotMatchesSerial) {
  Compare("CALL IDAA.ONEHOT('input=feats', 'output=feats_o', "
          "'column=cat')",
          {"feats_o"}, /*exact=*/true);
}

TEST_F(AnalyticsEquivalenceTest, SampleMatchesSerial) {
  // The Bernoulli draw stream is kept sequential in both paths, so the
  // sampled subset is identical row for row.
  Compare("CALL IDAA.SAMPLE('input=feats', 'output=feats_s', "
          "'fraction=0.25', 'seed=7')",
          {"feats_s"}, /*exact=*/true);
}

TEST_F(AnalyticsEquivalenceTest, SummarizeMatchesSerial) {
  // Per-column audits run the same serial accumulation inside each column
  // task: exact.
  Compare("CALL IDAA.SUMMARIZE('input=feats', 'output=feats_sum')",
          {"feats_sum"}, /*exact=*/true);
}

TEST_F(AnalyticsEquivalenceTest, NonNumericErrorsSurviveBatchPath) {
  // Error surface parity: a VARCHAR feature column must produce the serial
  // path's error text with the batch path enabled.
  for (bool batch : {true, false}) {
    system_.accelerator().SetAnalyticsBatchPathEnabled(batch);
    auto rs = system_.Query(
        "CALL IDAA.KMEANS('input=feats', 'output=feats_k', "
        "'columns=x,cat', 'k=2')");
    EXPECT_FALSE(rs.ok());
    EXPECT_NE(rs.status().message().find("not numeric"), std::string::npos)
        << rs.status().ToString();
  }
  system_.accelerator().SetAnalyticsBatchPathEnabled(true);
}

// -- determinism across thread counts ---------------------------------------

/// Full-pipeline canonical capture on a fresh system with `threads` worker
/// threads: every summary row and every output AOT rendered at full double
/// precision. The batch path's chunked partial merges are fixed-order, so
/// these strings must be bit-identical for any thread count.
std::vector<std::string> RunPipelineCanonical(size_t threads) {
  IdaaSystem system(AnalyticsOptions(threads));
  SeedFeatures(system, kRows);
  SeedBasket(system, 300);
  std::vector<std::string> lines;
  auto run = [&](const std::string& call,
                 const std::vector<std::string>& outputs) {
    auto rs = system.Query(call);
    ASSERT_TRUE(rs.ok()) << call << ": " << rs.status().ToString();
    lines.push_back("== " + call);
    for (const Row& row : rs->rows()) lines.push_back(CanonicalRow(row));
    for (const std::string& table : outputs) {
      auto out = system.Query("SELECT * FROM " + table);
      ASSERT_TRUE(out.ok()) << table << ": " << out.status().ToString();
      lines.push_back("-- " + table);
      for (const Row& row : SortedRows(*out)) {
        lines.push_back(CanonicalRow(row));
      }
    }
  };
  run("CALL IDAA.NORMALIZE('input=feats', 'output=feats_n', "
      "'columns=x,y,z')",
      {"feats_n"});
  run("CALL IDAA.KMEANS('input=feats_n', 'output=feats_k', "
      "'centroids_output=feats_c', 'columns=x,y,z', 'k=3', 'seed=5')",
      {"feats_k", "feats_c"});
  run("CALL IDAA.LINREG('input=feats', 'target=y', 'columns=x', "
      "'output=feats_r')",
      {"feats_r"});
  run("CALL IDAA.NAIVEBAYES('input=feats', 'label=label', 'columns=x,z', "
      "'output=feats_nb')",
      {"feats_nb"});
  run("CALL IDAA.DECISIONTREE('input=feats', 'label=label', 'columns=x,z', "
      "'max_depth=4', 'output=feats_dt')",
      {"feats_dt"});
  run("CALL IDAA.APRIORI('input=basket', 'tid_column=tid', "
      "'item_column=item', 'min_support=0.2', 'output=basket_fi')",
      {"basket_fi"});
  run("CALL IDAA.SUMMARIZE('input=feats_n')", {});
  return lines;
}

TEST(AnalyticsDeterminismTest, BitIdenticalAcrossThreadCounts) {
  std::vector<std::string> one = RunPipelineCanonical(1);
  std::vector<std::string> two = RunPipelineCanonical(2);
  std::vector<std::string> eight = RunPipelineCanonical(8);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// -- scan-pin regression (GROOM vs in-flight analytics) ----------------------

TEST(AnalyticsPinTest, OpenInputBlocksGroomUntilReleased) {
  IdaaSystem system(AnalyticsOptions(4));
  SeedFeatures(system, 1200);
  // Make reclaimable garbage: committed deletes older than any snapshot.
  ASSERT_TRUE(system.Execute("DELETE FROM feats WHERE id % 3 = 0").ok());
  ASSERT_TRUE(system.replication().Flush().ok());

  ASSERT_TRUE(system.Begin().ok());
  analytics::AnalyticsContext ctx(&system.catalog(), &system.accelerator(),
                                  &system.txn_manager(),
                                  system.current_transaction(),
                                  &system.metrics());
  auto in = ctx.OpenInput("feats");
  ASSERT_TRUE(in.ok()) << in.status().ToString();

  size_t versions_before =
      (*system.accelerator().GetTable("feats"))->NumVersions();
  std::atomic<bool> groom_done{false};
  std::thread groomer([&system, &groom_done] {
    system.accelerator().GroomAll();
    groom_done.store(true);
  });
  // One-sided check: the pin must hold GROOM off. (If grooming wrongly
  // proceeded, it finishes in microseconds and this fails deterministically;
  // if it is correctly blocked, slow scheduling only ever passes.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(groom_done.load())
      << "GROOM rebuilt slices while an analytics input held the scan pin";
  EXPECT_EQ((*system.accelerator().GetTable("feats"))->NumVersions(),
            versions_before);

  // The pinned input still sees exactly the snapshot's live rows.
  std::vector<Row> rows = (*in)->GatherRows({});
  EXPECT_EQ(rows.size(), 1200u - 400u);  // ids 0,3,6,... deleted

  in->reset();  // release the pin: groom may now reclaim
  groomer.join();
  EXPECT_TRUE(groom_done.load());
  ASSERT_TRUE(system.Commit().ok());
  EXPECT_LT((*system.accelerator().GetTable("feats"))->NumVersions(),
            versions_before);
}

TEST(AnalyticsPinTest, GroomRacesLongKMeansCall) {
  // End-to-end: GROOM hammers the accelerator while KMEANS CALLs run. The
  // fits must succeed, see a stable row count, and produce the same model
  // every repetition (the input can never shrink mid-extraction).
  IdaaSystem system(AnalyticsOptions(4));
  SeedFeatures(system, kRows);
  ASSERT_TRUE(system.Execute("DELETE FROM feats WHERE id % 5 = 0").ok());
  ASSERT_TRUE(system.replication().Flush().ok());
  auto live = system.Query("SELECT COUNT(*) FROM feats WHERE x IS NOT NULL");
  ASSERT_TRUE(live.ok());
  const int64_t expected_rows = live->At(0, 0).AsInteger();

  std::atomic<bool> stop{false};
  std::thread groomer([&system, &stop] {
    while (!stop.load()) {
      system.accelerator().GroomAll();
      std::this_thread::yield();
    }
  });

  std::string first_summary;
  for (int rep = 0; rep < 4; ++rep) {
    auto rs = system.Query(
        "CALL IDAA.KMEANS('input=feats', 'output=feats_k', "
        "'columns=x,y,z', 'k=3', 'max_iters=40', 'seed=5')");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs->NumRows(), 1u);
    EXPECT_EQ(rs->At(0, 3).AsInteger(), expected_rows) << "rep " << rep;
    std::string canonical = CanonicalRow(rs->rows()[0]);
    if (rep == 0) {
      first_summary = canonical;
    } else {
      EXPECT_EQ(canonical, first_summary) << "rep " << rep;
    }
  }
  stop.store(true);
  groomer.join();
}

}  // namespace
}  // namespace idaa
