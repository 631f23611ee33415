// Oracle and determinism suite for the morsel-parallel analytics operators
// (every CALL IDAA.* operator has exactly one fit):
//  1. Per operator: results checked against an oracle — DB2 SQL over the
//     replicated input table (NORMALIZE, SUMMARIZE, IMPUTE, DISCRETIZE,
//     ONEHOT, NAIVEBAYES, APRIORI, LINREG) or a property the output must
//     satisfy (KMEANS, DECISIONTREE, SAMPLE), at a relative tolerance of
//     1e-9 for floating-point values. The suite's test names predate the
//     oracles; each now checks the oracle its comment states.
//  2. Determinism: results are bit-identical (%.17g) regardless of the
//     accelerator's thread count, because the chunked partial states are
//     fixed-size and merged in ascending order.
//  3. Scan-pin regression: an open AnalyticsInput holds the table's groom
//     pin, so GROOM cannot reclaim or rebuild rows mid-model-fit.

#include <gtest/gtest.h>

#include <bit>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <set>
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
/// classifiers, and NULLs sprinkled into x and cat.
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
               i % 29 == 5 ? Value::Null() : Value::Varchar(kCats[i % 3]),
               Value::Varchar(kLabels[cluster])};
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
/// are compared as canonically-sorted row lists.
std::vector<Row> SortedRows(const ResultSet& rs) {
  std::vector<Row> rows = rs.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return CanonicalRow(a) < CanonicalRow(b);
  });
  return rows;
}

std::vector<std::string> SortedCanonical(const ResultSet& rs) {
  std::vector<std::string> lines;
  for (const Row& row : rs.rows()) lines.push_back(CanonicalRow(row));
  std::sort(lines.begin(), lines.end());
  return lines;
}

constexpr double kRelTol = 1e-9;
constexpr size_t kRows = 5000;  // > one 4096-row chunk: real partial merges

void ExpectNear(double got, double want, const std::string& what) {
  const double scale =
      std::max(1.0, std::max(std::abs(got), std::abs(want)));
  EXPECT_NEAR(got, want, kRelTol * scale) << what;
}

/// Value of a named column of a result row.
const Value& Col(const ResultSet& rs, size_t row, const std::string& name) {
  auto idx = rs.schema().ColumnIndex(name);
  EXPECT_TRUE(idx.ok()) << name;
  return rs.At(row, idx.ok() ? *idx : 0);
}

/// Operator outputs are checked against oracles, never against another
/// run of the same operator: DB2 SQL over the (replicated) input table, or
/// a property the output must satisfy.
class AnalyticsEquivalenceTest : public ::testing::Test {
 protected:
  AnalyticsEquivalenceTest() : system_(AnalyticsOptions(4)) {}

  void SetUp() override { SeedFeatures(system_, kRows); }

  /// The CALL's summary result set.
  ResultSet Call(const std::string& call) {
    auto rs = system_.Query(call);
    EXPECT_TRUE(rs.ok()) << call << ": " << rs.status().ToString();
    return rs.ok() ? *rs : ResultSet{};
  }

  /// A query on the default routing (output AOTs live on the accelerator).
  ResultSet Accel(const std::string& sql) {
    auto rs = system_.Query(sql);
    EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
    return rs.ok() ? *rs : ResultSet{};
  }

  /// The oracle: `sql` on DB2 (CURRENT QUERY ACCELERATION = NONE).
  ResultSet Db2(const std::string& sql) {
    const federation::AccelerationMode mode = system_.acceleration_mode();
    system_.SetAccelerationMode(federation::AccelerationMode::kNone);
    auto rs = system_.Query(sql);
    system_.SetAccelerationMode(mode);
    EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
    return rs.ok() ? *rs : ResultSet{};
  }

  /// DB2's copy of the input rows, keyed by id.
  std::map<int64_t, Row> Db2FeatsById() {
    std::map<int64_t, Row> by_id;
    ResultSet feats = Db2("SELECT * FROM feats");
    for (const Row& row : feats.rows()) {
      by_id[row[0].AsInteger()] = row;
    }
    return by_id;
  }

  /// Summary value of a METRIC/VALUE (or TERM/VALUE) result set.
  static double Metric(const ResultSet& rs, const std::string& key) {
    for (const Row& row : rs.rows()) {
      if (row[0].AsVarchar() == key) return row[1].AsDouble();
    }
    ADD_FAILURE() << "no summary row " << key;
    return 0.0;
  }

  IdaaSystem system_;
};

TEST_F(AnalyticsEquivalenceTest, KMeansMatchesSerial) {
  // Summary and centroids: the fit converged (ITERATIONS < max_iters), so
  // each centroid is the mean of its assigned points; INERTIA is the sum of
  // squared point-to-centroid distances; ROWS/SKIPPED_NULL_ROWS are DB2's
  // complete/incomplete row counts.
  ResultSet summary =
      Call("CALL IDAA.KMEANS('input=feats', 'output=feats_k', "
           "'centroids_output=feats_c', 'columns=x,y,z', 'k=3', "
           "'max_iters=25', 'seed=5')");
  ASSERT_EQ(summary.NumRows(), 1u);
  EXPECT_EQ(Col(summary, 0, "K").AsInteger(), 3);
  EXPECT_LT(Col(summary, 0, "ITERATIONS").AsInteger(), 25);
  ResultSet counts = Db2(
      "SELECT SUM(CASE WHEN x IS NOT NULL AND y IS NOT NULL AND z IS NOT "
      "NULL THEN 1 ELSE 0 END), COUNT(*) FROM feats");
  const int64_t complete = counts.At(0, 0).AsInteger();
  EXPECT_EQ(Col(summary, 0, "ROWS").AsInteger(), complete);
  EXPECT_EQ(Col(summary, 0, "SKIPPED_NULL_ROWS").AsInteger(),
            counts.At(0, 1).AsInteger() - complete);

  ResultSet means = Accel(
      "SELECT c.cluster, c.x, c.y, c.z, AVG(k.x), AVG(k.y), AVG(k.z), "
      "COUNT(*) FROM feats_c c JOIN feats_k k ON c.cluster = k.cluster "
      "GROUP BY c.cluster, c.x, c.y, c.z");
  ASSERT_EQ(means.NumRows(), 3u);
  int64_t assigned = 0;
  for (const Row& row : means.rows()) {
    for (size_t d = 0; d < 3; ++d) {
      ExpectNear(row[1 + d].AsDouble(), row[4 + d].AsDouble(),
                 "centroid " + row[0].ToString() + " dim " +
                     std::to_string(d));
    }
    assigned += row[7].AsInteger();
  }
  EXPECT_EQ(assigned, complete);

  ResultSet inertia = Accel(
      "SELECT SUM((k.x - c.x) * (k.x - c.x) + (k.y - c.y) * (k.y - c.y) + "
      "(k.z - c.z) * (k.z - c.z)) FROM feats_k k JOIN feats_c c "
      "ON k.cluster = c.cluster");
  ExpectNear(Col(summary, 0, "INERTIA").AsDouble(), inertia.At(0, 0).AsDouble(),
             "inertia");
}

TEST_F(AnalyticsEquivalenceTest, KMeansAssignmentsExact) {
  // The assignments AOT holds exactly DB2's complete (x, y, z) rows, and
  // every point's CLUSTER is its nearest centroid.
  Call("CALL IDAA.KMEANS('input=feats', 'output=feats_k', "
       "'centroids_output=feats_c', 'columns=x,y,z', 'k=3', 'seed=5')");
  EXPECT_EQ(SortedCanonical(Accel("SELECT x, y, z FROM feats_k")),
            SortedCanonical(Db2("SELECT x, y, z FROM feats WHERE x IS NOT "
                                "NULL AND y IS NOT NULL AND z IS NOT NULL")));

  std::vector<std::vector<double>> centroids(3);
  ResultSet centroid_rows = Accel("SELECT cluster, x, y, z FROM feats_c");
  for (const Row& row : centroid_rows.rows()) {
    centroids.at(static_cast<size_t>(row[0].AsInteger())) = {
        row[1].AsDouble(), row[2].AsDouble(), row[3].AsDouble()};
  }
  ResultSet points = Accel("SELECT x, y, z, cluster FROM feats_k");
  ASSERT_GT(points.NumRows(), 0u);
  size_t wrong = 0;
  for (const Row& row : points.rows()) {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (size_t c = 0; c < centroids.size(); ++c) {
      double dist = 0;
      for (size_t d = 0; d < 3; ++d) {
        double diff = row[d].AsDouble() - centroids[c].at(d);
        dist += diff * diff;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    if (static_cast<int64_t>(best) != row[3].AsInteger()) ++wrong;
  }
  EXPECT_EQ(wrong, 0u) << "points not assigned to their nearest centroid";
}

TEST_F(AnalyticsEquivalenceTest, LinregMatchesSerial) {
  // The OLS normal equations: residuals of the reported fit sum to zero and
  // are orthogonal to x — computed by DB2 over the input table. R2, RMSE
  // and ROWS follow from the same residuals.
  ResultSet summary =
      Call("CALL IDAA.LINREG('input=feats', 'target=y', 'columns=x', "
           "'output=feats_r')");
  const double b0 = Metric(summary, "INTERCEPT");
  const double b1 = Metric(summary, "X");
  const std::string fit = StrFormat("(%.17g + %.17g * x)", b0, b1);
  ResultSet oracle = Db2(
      "SELECT SUM(y - " + fit + "), SUM(x * (y - " + fit + ")), "
      "SUM(ABS(y)), SUM(ABS(x * y)), SUM((y - " + fit + ") * (y - " + fit +
      ")), VARIANCE(y), COUNT(*) FROM feats WHERE x IS NOT NULL AND y IS "
      "NOT NULL");
  ASSERT_EQ(oracle.NumRows(), 1u);
  const double n = static_cast<double>(oracle.At(0, 6).AsInteger());
  EXPECT_LE(std::abs(oracle.At(0, 0).AsDouble()),
            kRelTol * oracle.At(0, 2).AsDouble())
      << "SUM(y - yhat)";
  EXPECT_LE(std::abs(oracle.At(0, 1).AsDouble()),
            kRelTol * oracle.At(0, 3).AsDouble())
      << "SUM(x * (y - yhat))";
  const double ss_res = oracle.At(0, 4).AsDouble();
  ExpectNear(Metric(summary, "RMSE"), std::sqrt(ss_res / n), "rmse");
  ExpectNear(Metric(summary, "R2"),
             1.0 - ss_res / (oracle.At(0, 5).AsDouble() * n), "r2");
  EXPECT_EQ(Metric(summary, "ROWS"), n);
  EXPECT_NEAR(b1, 2.0, 0.05);  // the seeded relation is y = 2x + 3 + noise

  // Predictions AOT: PREDICTED is the fit at X, RESIDUAL = ACTUAL - PREDICTED.
  ResultSet out = Accel("SELECT x, actual, predicted, residual FROM feats_r");
  EXPECT_EQ(static_cast<double>(out.NumRows()), n);
  for (const Row& row : out.rows()) {
    ExpectNear(row[2].AsDouble(), b0 + b1 * row[0].AsDouble(), "predicted");
    ExpectNear(row[3].AsDouble(), row[1].AsDouble() - row[2].AsDouble(),
               "residual");
  }
}

TEST_F(AnalyticsEquivalenceTest, NaiveBayesMatchesSerial) {
  // Priors are DB2's per-label COUNT shares; every prediction is the
  // Gaussian NB argmax under DB2's per-label AVG/VARIANCE (+ the 1e-9
  // smoothing); TRAIN_ACCURACY is the share of matching output rows.
  ResultSet summary =
      Call("CALL IDAA.NAIVEBAYES('input=feats', 'label=label', "
           "'columns=x,z', 'output=feats_nb')");
  ResultSet classes = Db2(
      "SELECT label, COUNT(*), AVG(x), VARIANCE(x), AVG(z), VARIANCE(z) "
      "FROM feats WHERE label IS NOT NULL AND x IS NOT NULL AND z IS NOT "
      "NULL GROUP BY label");
  ASSERT_EQ(classes.NumRows(), 3u);
  int64_t total = 0;
  for (const Row& row : classes.rows()) total += row[1].AsInteger();
  EXPECT_EQ(Metric(summary, "ROWS"), static_cast<double>(total));

  struct ClassModel {
    std::string label;
    double prior;
    double mean[2], var[2];
  };
  std::vector<ClassModel> model;
  for (const Row& row : classes.rows()) {
    ClassModel m{row[0].AsVarchar(),
                 static_cast<double>(row[1].AsInteger()) / total,
                 {row[2].AsDouble(), row[4].AsDouble()},
                 {row[3].AsDouble() + 1e-9, row[5].AsDouble() + 1e-9}};
    ExpectNear(Metric(summary, "PRIOR_" + m.label), m.prior,
               "prior " + m.label);
    model.push_back(m);
  }

  ResultSet out = Accel("SELECT x, z, actual, predicted FROM feats_nb");
  EXPECT_EQ(out.NumRows(), static_cast<size_t>(total));
  size_t mismatched = 0, correct = 0;
  for (const Row& row : out.rows()) {
    const double f[2] = {row[0].AsDouble(), row[1].AsDouble()};
    double best = -std::numeric_limits<double>::max();
    std::string best_label;
    for (const ClassModel& m : model) {
      double score = std::log(m.prior);
      for (size_t d = 0; d < 2; ++d) {
        double diff = f[d] - m.mean[d];
        score += -0.5 * std::log(2.0 * M_PI * m.var[d]) -
                 diff * diff / (2.0 * m.var[d]);
      }
      if (score > best) {
        best = score;
        best_label = m.label;
      }
    }
    if (best_label != row[3].AsVarchar()) ++mismatched;
    if (row[2].AsVarchar() == row[3].AsVarchar()) ++correct;
  }
  EXPECT_EQ(mismatched, 0u);
  ExpectNear(Metric(summary, "TRAIN_ACCURACY"),
             static_cast<double>(correct) / static_cast<double>(total),
             "train accuracy");
}

TEST_F(AnalyticsEquivalenceTest, DecisionTreeMatchesSerial) {
  // TRAIN_ACCURACY is the share of output rows whose prediction matches
  // the label; the output holds exactly DB2's complete (x, z, label) rows.
  ResultSet summary =
      Call("CALL IDAA.DECISIONTREE('input=feats', 'label=label', "
           "'columns=x,z', 'max_depth=4', 'output=feats_dt')");
  ResultSet scored = Accel(
      "SELECT SUM(CASE WHEN actual = predicted THEN 1 ELSE 0 END), COUNT(*) "
      "FROM feats_dt");
  const double correct = static_cast<double>(scored.At(0, 0).AsInteger());
  const double rows = static_cast<double>(scored.At(0, 1).AsInteger());
  ExpectNear(Metric(summary, "TRAIN_ACCURACY"), correct / rows,
             "train accuracy");
  EXPECT_GT(correct / rows, 0.9);  // the three label clusters are separable
  EXPECT_EQ(Metric(summary, "ROWS"), rows);
  EXPECT_EQ(SortedCanonical(Accel("SELECT x, z, actual FROM feats_dt")),
            SortedCanonical(Db2("SELECT x, z, label FROM feats WHERE x IS "
                                "NOT NULL AND z IS NOT NULL AND label IS NOT "
                                "NULL")));
}

TEST_F(AnalyticsEquivalenceTest, AprioriMatchesSerial) {
  // Every itemset of up to max_size items is reported iff its DB2
  // COUNT(DISTINCT tid) share of the transactions reaches min_support, with
  // that share as its SUPPORT.
  SeedBasket(system_, 300);
  Call("CALL IDAA.APRIORI('input=basket', 'tid_column=tid', "
       "'item_column=item', 'min_support=0.2', 'max_size=3', "
       "'output=basket_fi')");
  std::map<std::string, double> reported;
  ResultSet out = Accel("SELECT itemset, size, support FROM basket_fi");
  for (const Row& row : out.rows()) {
    reported[row[0].AsVarchar()] = row[2].AsDouble();
    EXPECT_EQ(static_cast<size_t>(row[1].AsInteger()),
              Split(row[0].AsVarchar(), ',').size());
  }
  const double transactions = static_cast<double>(
      Db2("SELECT COUNT(DISTINCT tid) FROM basket WHERE item IS NOT NULL")
          .At(0, 0)
          .AsInteger());
  std::vector<std::string> items;
  ResultSet distinct_items =
      Db2("SELECT DISTINCT item FROM basket WHERE item IS NOT NULL");
  for (const Row& row : distinct_items.rows()) {
    items.push_back(row[0].AsVarchar());
  }
  std::sort(items.begin(), items.end());
  ASSERT_EQ(items.size(), 5u);

  // All itemsets of 1..3 items, as sorted item lists.
  std::vector<std::vector<std::string>> itemsets;
  for (size_t a = 0; a < items.size(); ++a) {
    itemsets.push_back({items[a]});
    for (size_t b = a + 1; b < items.size(); ++b) {
      itemsets.push_back({items[a], items[b]});
      for (size_t c = b + 1; c < items.size(); ++c) {
        itemsets.push_back({items[a], items[b], items[c]});
      }
    }
  }
  size_t frequent = 0;
  for (const std::vector<std::string>& set : itemsets) {
    std::string from = "basket b0", where;
    for (size_t i = 0; i < set.size(); ++i) {
      const std::string alias = "b" + std::to_string(i);
      if (i > 0) from += " JOIN basket " + alias + " ON b0.tid = " + alias +
                         ".tid";
      where += (i > 0 ? " AND " : "") + alias + ".item = '" + set[i] + "'";
    }
    const double support =
        static_cast<double>(Db2("SELECT COUNT(DISTINCT b0.tid) FROM " +
                                from + " WHERE " + where)
                                .At(0, 0)
                                .AsInteger()) /
        transactions;
    const std::string key = Join(set, ",");
    auto it = reported.find(key);
    if (support >= 0.2) {
      ++frequent;
      ASSERT_NE(it, reported.end()) << "frequent itemset missing: " << key;
      ExpectNear(it->second, support, "support of " + key);
    } else {
      EXPECT_EQ(it, reported.end()) << "infrequent itemset reported: " << key;
    }
  }
  EXPECT_EQ(reported.size(), frequent);
  EXPECT_GT(frequent, 5u);  // some pairs are frequent, not just singletons
}

TEST_F(AnalyticsEquivalenceTest, NormalizeZscoreMatchesSerial) {
  // Each normalized value is (v - AVG) / STDDEV over DB2's column; every
  // other column passes through unchanged.
  ResultSet summary = Call(
      "CALL IDAA.NORMALIZE('input=feats', 'output=feats_n', "
      "'columns=x,y,z')");
  ResultSet stats = Db2(
      "SELECT AVG(x), STDDEV(x), AVG(y), STDDEV(y), AVG(z), STDDEV(z), "
      "COUNT(*) FROM feats");
  EXPECT_EQ(Col(summary, 0, "ROWS").AsInteger(), stats.At(0, 6).AsInteger());
  EXPECT_EQ(Col(summary, 0, "METHOD").AsVarchar(), "zscore");
  std::map<int64_t, Row> input = Db2FeatsById();
  ResultSet out = Accel("SELECT * FROM feats_n");
  ASSERT_EQ(out.NumRows(), input.size());
  for (const Row& row : out.rows()) {
    const Row& in = input.at(row[0].AsInteger());
    for (size_t j = 0; j < 3; ++j) {
      const Value& v = in[1 + j];
      if (v.is_null()) {
        EXPECT_TRUE(row[1 + j].is_null());
        continue;
      }
      ExpectNear(row[1 + j].AsDouble(),
                 (v.AsDouble() - stats.At(0, 2 * j).AsDouble()) /
                     stats.At(0, 2 * j + 1).AsDouble(),
                 "zscore id " + row[0].ToString() + " col " +
                     std::to_string(j));
    }
    EXPECT_EQ(row[4], in[4]);
    EXPECT_EQ(row[5], in[5]);
  }
}

TEST_F(AnalyticsEquivalenceTest, NormalizeMinMaxMatchesSerial) {
  // Each normalized value is (v - MIN) / (MAX - MIN) over DB2's column.
  Call("CALL IDAA.NORMALIZE('input=feats', 'output=feats_m', "
       "'columns=x,y', 'method=minmax')");
  ResultSet range = Db2("SELECT MIN(x), MAX(x), MIN(y), MAX(y) FROM feats");
  std::map<int64_t, Row> input = Db2FeatsById();
  ResultSet out = Accel("SELECT * FROM feats_m");
  ASSERT_EQ(out.NumRows(), input.size());
  for (const Row& row : out.rows()) {
    const Row& in = input.at(row[0].AsInteger());
    for (size_t j = 0; j < 2; ++j) {
      if (in[1 + j].is_null()) {
        EXPECT_TRUE(row[1 + j].is_null());
        continue;
      }
      const double lo = range.At(0, 2 * j).AsDouble();
      const double hi = range.At(0, 2 * j + 1).AsDouble();
      ExpectNear(row[1 + j].AsDouble(), (in[1 + j].AsDouble() - lo) / (hi - lo),
                 "minmax id " + row[0].ToString());
    }
    EXPECT_EQ(CanonicalValue(row[3]), CanonicalValue(in[3]));  // z untouched
  }
}

TEST_F(AnalyticsEquivalenceTest, DiscretizeMatchesSerial) {
  // Bins are equal-width over DB2's [MIN(y), MAX(y)]: every row's bin is
  // exactly the one its y falls into.
  ResultSet summary = Call(
      "CALL IDAA.DISCRETIZE('input=feats', 'output=feats_d', "
      "'column=y', 'bins=8')");
  ResultSet range = Db2("SELECT MIN(y), MAX(y) FROM feats");
  const double lo = range.At(0, 0).AsDouble();
  const double hi = range.At(0, 1).AsDouble();
  EXPECT_EQ(Col(summary, 0, "LOW").AsDouble(), lo);
  EXPECT_EQ(Col(summary, 0, "HIGH").AsDouble(), hi);
  const double width = (hi - lo) / 8.0;
  std::map<int64_t, Row> input = Db2FeatsById();
  ResultSet out = Accel("SELECT id, y, y_bin FROM feats_d");
  ASSERT_EQ(out.NumRows(), input.size());
  for (const Row& row : out.rows()) {
    const Value& y = input.at(row[0].AsInteger())[2];
    EXPECT_EQ(CanonicalValue(row[1]), CanonicalValue(y));
    const int64_t bin = std::clamp<int64_t>(
        static_cast<int64_t>((y.AsDouble() - lo) / width), 0, 7);
    EXPECT_EQ(row[2].AsInteger(), bin) << "id " << row[0].ToString();
  }
}

TEST_F(AnalyticsEquivalenceTest, ImputeMatchesSerial) {
  // NULL x becomes DB2's AVG(x); NULL cat becomes its most frequent value
  // (ties to the smallest); every other value passes through unchanged.
  ResultSet summary = Call(
      "CALL IDAA.IMPUTE('input=feats', 'output=feats_i', "
      "'columns=x,cat')");
  ResultSet oracle = Db2(
      "SELECT AVG(x), SUM(CASE WHEN x IS NULL THEN 1 ELSE 0 END) + "
      "SUM(CASE WHEN cat IS NULL THEN 1 ELSE 0 END) FROM feats");
  EXPECT_EQ(Col(summary, 0, "IMPUTED_VALUES").AsInteger(),
            oracle.At(0, 1).AsInteger());
  EXPECT_GT(oracle.At(0, 1).AsInteger(), 0);
  std::string mode;
  int64_t best = 0;
  ResultSet cat_counts = Db2(
      "SELECT cat, COUNT(*) FROM feats WHERE cat IS NOT NULL GROUP BY cat "
      "ORDER BY cat");
  for (const Row& row : cat_counts.rows()) {
    if (row[1].AsInteger() > best) {
      best = row[1].AsInteger();
      mode = row[0].AsVarchar();
    }
  }
  std::map<int64_t, Row> input = Db2FeatsById();
  ResultSet out = Accel("SELECT * FROM feats_i");
  ASSERT_EQ(out.NumRows(), input.size());
  for (const Row& row : out.rows()) {
    const Row& in = input.at(row[0].AsInteger());
    if (in[1].is_null()) {
      ExpectNear(row[1].AsDouble(), oracle.At(0, 0).AsDouble(), "mean");
    } else {
      EXPECT_EQ(CanonicalValue(row[1]), CanonicalValue(in[1]));
    }
    EXPECT_EQ(row[4].AsVarchar(), in[4].is_null() ? mode : in[4].AsVarchar());
  }
}

TEST_F(AnalyticsEquivalenceTest, OneHotMatchesSerial) {
  // One indicator column CAT_<v> per DB2 DISTINCT cat value; each is 1
  // exactly on the rows whose cat is v.
  ResultSet summary =
      Call("CALL IDAA.ONEHOT('input=feats', 'output=feats_o', 'column=cat')");
  std::set<std::string> values;
  ResultSet distinct_cats =
      Db2("SELECT DISTINCT cat FROM feats WHERE cat IS NOT NULL");
  for (const Row& row : distinct_cats.rows()) {
    values.insert(row[0].AsVarchar());
  }
  EXPECT_EQ(Col(summary, 0, "CATEGORIES").AsInteger(),
            static_cast<int64_t>(values.size()));
  std::map<int64_t, Row> input = Db2FeatsById();
  ResultSet out = Accel("SELECT * FROM feats_o");
  ASSERT_EQ(out.NumRows(), input.size());
  ASSERT_EQ(out.schema().NumColumns(), 6u + values.size());
  for (size_t r = 0; r < out.NumRows(); ++r) {
    const Value& cat = input.at(out.At(r, 0).AsInteger())[4];
    for (const std::string& v : values) {
      EXPECT_EQ(Col(out, r, "CAT_" + v).AsInteger(),
                !cat.is_null() && cat.AsVarchar() == v ? 1 : 0);
    }
  }
}

TEST_F(AnalyticsEquivalenceTest, SampleMatchesSerial) {
  // The sample is a subset of DB2's input rows (an anti-join finds no
  // sampled row outside it), without duplicates, of about fraction * rows.
  ResultSet summary = Call(
      "CALL IDAA.SAMPLE('input=feats', 'output=feats_s', "
      "'fraction=0.25', 'seed=7')");
  std::multiset<std::string> input;
  ResultSet feats = Db2("SELECT * FROM feats");
  for (const Row& row : feats.rows()) {
    input.insert(CanonicalRow(row));
  }
  EXPECT_EQ(Col(summary, 0, "INPUT_ROWS").AsInteger(),
            static_cast<int64_t>(input.size()));
  ResultSet out = Accel("SELECT * FROM feats_s");
  EXPECT_EQ(Col(summary, 0, "SAMPLED_ROWS").AsInteger(),
            static_cast<int64_t>(out.NumRows()));
  size_t outside = 0;
  for (const Row& row : out.rows()) {
    auto it = input.find(CanonicalRow(row));
    if (it == input.end()) {
      ++outside;
    } else {
      input.erase(it);  // a duplicate sampled row would not match again
    }
  }
  EXPECT_EQ(outside, 0u);
  EXPECT_GT(out.NumRows(), kRows / 5);
  EXPECT_LT(out.NumRows(), kRows * 3 / 10);
}

TEST_F(AnalyticsEquivalenceTest, SummarizeMatchesSerial) {
  // Per column: N = COUNT(c), NULLS = rows - COUNT(c), DISTINCT =
  // COUNT(DISTINCT c), MIN/MAX, and for numeric columns MEAN = AVG(c) and
  // STDDEV = STDDEV(c), all from DB2. The output AOT equals the result.
  ResultSet summary =
      Call("CALL IDAA.SUMMARIZE('input=feats', 'output=feats_sum')");
  ASSERT_EQ(summary.NumRows(), 6u);
  for (size_t r = 0; r < summary.NumRows(); ++r) {
    const std::string column = Col(summary, r, "COLUMN").AsVarchar();
    const bool numeric = Col(summary, r, "TYPE").AsVarchar() != "VARCHAR";
    ResultSet oracle = Db2(
        "SELECT COUNT(" + column + "), SUM(CASE WHEN " + column +
        " IS NULL THEN 1 ELSE 0 END), COUNT(DISTINCT " + column + "), MIN(" +
        column + "), MAX(" + column + ")" +
        (numeric ? ", AVG(" + column + "), STDDEV(" + column + ")" : "") +
        " FROM feats");
    ASSERT_EQ(oracle.NumRows(), 1u) << column;
    EXPECT_EQ(Col(summary, r, "N").AsInteger(), oracle.At(0, 0).AsInteger())
        << column;
    EXPECT_EQ(Col(summary, r, "NULLS").AsInteger(),
              oracle.At(0, 1).AsInteger())
        << column;
    EXPECT_EQ(Col(summary, r, "DISTINCT").AsInteger(),
              oracle.At(0, 2).AsInteger())
        << column;
    // MIN/MAX render round-trip exact: parsed back into the column's type
    // they equal DB2's MIN/MAX bit for bit.
    for (const auto& [name, k] : {std::pair<const char*, size_t>{"MIN", 3},
                                  std::pair<const char*, size_t>{"MAX", 4}}) {
      const Value& expected = oracle.At(0, k);
      auto type = expected.Type();
      ASSERT_TRUE(type.ok()) << column << " " << name;
      auto parsed =
          Value::Varchar(Col(summary, r, name).AsVarchar()).CastTo(*type);
      ASSERT_TRUE(parsed.ok()) << column << " " << name << ": "
                               << parsed.status().ToString();
      if (expected.is_double()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(parsed->AsDouble()),
                  std::bit_cast<uint64_t>(expected.AsDouble()))
            << column << " " << name << ": "
            << Col(summary, r, name).AsVarchar();
      } else {
        EXPECT_EQ(*parsed, expected) << column << " " << name;
      }
    }
    if (numeric) {
      ExpectNear(Col(summary, r, "MEAN").AsDouble(),
                 oracle.At(0, 5).AsDouble(), column + " mean");
      ExpectNear(Col(summary, r, "STDDEV").AsDouble(),
                 oracle.At(0, 6).AsDouble(), column + " stddev");
    } else {
      EXPECT_TRUE(Col(summary, r, "MEAN").is_null()) << column;
    }
  }
  EXPECT_EQ(SortedCanonical(Accel("SELECT * FROM feats_sum")),
            SortedCanonical(summary));
}

TEST_F(AnalyticsEquivalenceTest, NonNumericErrorsSurviveBatchPath) {
  // A VARCHAR feature column is rejected before any fit work, with the
  // same message from every numeric operator.
  for (const std::string& call :
       {std::string("CALL IDAA.KMEANS('input=feats', 'output=feats_k', "
                    "'columns=x,cat', 'k=2')"),
        std::string("CALL IDAA.NORMALIZE('input=feats', 'output=feats_n', "
                    "'columns=x,cat')"),
        std::string("CALL IDAA.NAIVEBAYES('input=feats', 'label=label', "
                    "'columns=x,cat')")}) {
    auto rs = system_.Query(call);
    ASSERT_FALSE(rs.ok()) << call;
    EXPECT_NE(rs.status().message().find("column CAT is not numeric"),
              std::string::npos)
        << call << ": " << rs.status().ToString();
  }
}

// -- determinism across thread counts ---------------------------------------

/// Full-pipeline canonical capture on a fresh system with `threads` worker
/// threads: every summary row and every output AOT rendered at full double
/// precision. The kernels' chunked partial merges are fixed-order, so
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
