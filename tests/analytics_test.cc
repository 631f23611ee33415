// Analytics framework tests: algorithm kernels directly, every operator
// end-to-end through CALL, and the multi-stage pipeline runner.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analytics/apriori.h"
#include "analytics/decision_tree.h"
#include "analytics/kmeans.h"
#include "analytics/linear_regression.h"
#include "analytics/naive_bayes.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "idaa/system.h"

namespace idaa::analytics {
namespace {

// ---------------------------------------------------------------------------
// Algorithm kernels
// ---------------------------------------------------------------------------

TEST(KMeansKernelTest, SeparatesObviousClusters) {
  std::vector<std::vector<double>> points;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.Gaussian(0, 0.1), rng.Gaussian(0, 0.1)});
    points.push_back({rng.Gaussian(10, 0.1), rng.Gaussian(10, 0.1)});
  }
  KMeansResult result = RunKMeans(points, 2, 50, 7, /*pool=*/nullptr);
  ASSERT_EQ(result.centroids.size(), 2u);
  // Points alternate cluster membership perfectly.
  for (size_t i = 2; i < points.size(); i += 2) {
    EXPECT_EQ(result.assignments[i], result.assignments[0]);
    EXPECT_EQ(result.assignments[i + 1], result.assignments[1]);
  }
  EXPECT_NE(result.assignments[0], result.assignments[1]);
  EXPECT_LT(result.inertia, 10.0);
}

TEST(KMeansKernelTest, Deterministic) {
  std::vector<std::vector<double>> points;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  KMeansResult a = RunKMeans(points, 5, 20, 9, /*pool=*/nullptr);
  KMeansResult b = RunKMeans(points, 5, 20, 9, /*pool=*/nullptr);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeansKernelTest, KLargerThanPointsClamped) {
  std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  KMeansResult result = RunKMeans(points, 10, 5, 1, /*pool=*/nullptr);
  EXPECT_EQ(result.centroids.size(), 2u);
}

TEST(KMeansKernelTest, EmptyInput) {
  KMeansResult result = RunKMeans({}, 3, 5, 1, /*pool=*/nullptr);
  EXPECT_TRUE(result.centroids.empty());
}

TEST(OlsKernelTest, RecoversExactCoefficients) {
  // y = 3 + 2*x1 - 0.5*x2, no noise.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    double x1 = rng.UniformDouble(-5, 5), x2 = rng.UniformDouble(-5, 5);
    x.push_back({x1, x2});
    y.push_back(3 + 2 * x1 - 0.5 * x2);
  }
  auto result = SolveOls(x, y, /*pool=*/nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->coefficients[0], 3.0, 1e-9);
  EXPECT_NEAR(result->coefficients[1], 2.0, 1e-9);
  EXPECT_NEAR(result->coefficients[2], -0.5, 1e-9);
  EXPECT_NEAR(result->r2, 1.0, 1e-9);
  EXPECT_NEAR(result->rmse, 0.0, 1e-9);
}

TEST(OlsKernelTest, SingularSystemFails) {
  // Perfectly collinear features.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i), static_cast<double>(2 * i)});
    y.push_back(i);
  }
  EXPECT_FALSE(SolveOls(x, y, /*pool=*/nullptr).ok());
}

TEST(OlsKernelTest, FewerRowsThanParamsFails) {
  EXPECT_FALSE(SolveOls({{1.0, 2.0}}, {1.0}, /*pool=*/nullptr).ok());
}

TEST(NaiveBayesKernelTest, ClassifiesSeparatedClasses) {
  std::vector<std::vector<double>> x;
  std::vector<Value> labels;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    if (i % 2) {
      x.push_back({rng.Gaussian(0, 1)});
      labels.push_back(Value::Varchar("low"));
    } else {
      x.push_back({rng.Gaussian(20, 1)});
      labels.push_back(Value::Varchar("high"));
    }
  }
  auto model = GaussianNbModel::Fit(x, labels, /*pool=*/nullptr);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Predict({0.5}), Value::Varchar("low"));
  EXPECT_EQ(model->Predict({19.5}), Value::Varchar("high"));
  EXPECT_NEAR(model->priors().at(Value::Varchar("low")), 0.5, 1e-9);
}

TEST(DecisionTreeKernelTest, LearnsAxisAlignedSplit) {
  std::vector<std::vector<double>> x;
  std::vector<Value> labels;
  for (int i = 0; i < 100; ++i) {
    double v = i / 100.0;
    x.push_back({v});
    labels.push_back(Value::Varchar(v < 0.5 ? "left" : "right"));
  }
  auto model = DecisionTreeModel::Fit(x, labels, 3, 2);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Predict({0.1}), Value::Varchar("left"));
  EXPECT_EQ(model->Predict({0.9}), Value::Varchar("right"));
  EXPECT_LE(model->Depth(), 3u);
}

TEST(DecisionTreeKernelTest, PureInputIsSingleLeaf) {
  std::vector<std::vector<double>> x = {{1.0}, {2.0}, {3.0}};
  std::vector<Value> labels(3, Value::Varchar("same"));
  auto model = DecisionTreeModel::Fit(x, labels, 5, 1);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->NumNodes(), 1u);
}

TEST(AprioriKernelTest, FindsFrequentPairs) {
  std::vector<std::set<std::string>> txns = {
      {"beer", "chips"}, {"beer", "chips", "salsa"}, {"beer", "chips"},
      {"milk"},          {"beer"},
  };
  auto itemsets = RunApriori(txns, 0.4, 3);
  // beer: 4/5, chips: 3/5, {beer,chips}: 3/5 all frequent at 0.4.
  bool found_pair = false;
  for (const auto& is : itemsets) {
    if (is.items == std::vector<std::string>{"beer", "chips"}) {
      found_pair = true;
      EXPECT_NEAR(is.support, 0.6, 1e-9);
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(AprioriKernelTest, MinSupportPrunes) {
  std::vector<std::set<std::string>> txns = {{"a"}, {"b"}, {"a", "b"}};
  auto none = RunApriori(txns, 0.99, 2);
  EXPECT_TRUE(none.empty());
}

// ---------------------------------------------------------------------------
// Operators end-to-end via CALL
// ---------------------------------------------------------------------------

class OperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_
                    .Execute("CREATE TABLE data (x DOUBLE, y DOUBLE, "
                                "cat VARCHAR, label VARCHAR) IN ACCELERATOR")
                    .ok());
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
      bool big = i % 2 == 0;
      double x = big ? rng.Gaussian(10, 1) : rng.Gaussian(0, 1);
      double y = 2 * x + rng.Gaussian(0, 0.01);
      std::string cat = i % 3 == 0 ? "red" : (i % 3 == 1 ? "green" : "blue");
      std::string label = big ? "big" : "small";
      std::string x_text = i % 15 == 14 ? "NULL" : StrFormat("%.4f", x);
      ASSERT_TRUE(system_
                      .Execute(StrFormat(
                          "INSERT INTO data VALUES (%s, %.4f, '%s', '%s')",
                          x_text.c_str(), y, cat.c_str(), label.c_str()))
                      .ok());
    }
  }

  IdaaSystem system_;
};

TEST_F(OperatorTest, NormalizeZscore) {
  auto r = system_.Execute(
      "CALL IDAA.NORMALIZE('input=data', 'output=norm', 'columns=x,y')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rs = system_.Query("SELECT AVG(x), STDDEV(x) FROM norm");
  ASSERT_TRUE(rs.ok());
  EXPECT_NEAR(rs->At(0, 0).AsDouble(), 0.0, 1e-6);
  EXPECT_NEAR(rs->At(0, 1).AsDouble(), 1.0, 1e-6);
}

TEST_F(OperatorTest, NormalizeMinMaxBounds) {
  ASSERT_TRUE(system_
                  .Execute("CALL IDAA.NORMALIZE('input=data', "
                              "'output=norm', 'columns=y', 'method=minmax')")
                  .ok());
  auto rs = system_.Query("SELECT MIN(y), MAX(y) FROM norm");
  EXPECT_NEAR(rs->At(0, 0).AsDouble(), 0.0, 1e-9);
  EXPECT_NEAR(rs->At(0, 1).AsDouble(), 1.0, 1e-9);
}

TEST_F(OperatorTest, NormalizeNonNumericFails) {
  EXPECT_FALSE(system_
                   .Execute("CALL IDAA.NORMALIZE('input=data', "
                               "'output=norm', 'columns=cat')")
                   .ok());
}

TEST_F(OperatorTest, DiscretizeBins) {
  auto r = system_.Execute(
      "CALL IDAA.DISCRETIZE('input=data', 'output=binned', 'column=y', "
      "'bins=4')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rs = system_.Query(
      "SELECT MIN(y_bin), MAX(y_bin), COUNT(DISTINCT y_bin) FROM binned");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 0);
  EXPECT_EQ(rs->At(0, 1).AsInteger(), 3);
}

TEST_F(OperatorTest, ImputeFillsNulls) {
  auto r = system_.Execute(
      "CALL IDAA.IMPUTE('input=data', 'output=filled', 'columns=x')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rs = system_.Query("SELECT COUNT(*) FROM filled WHERE x IS NULL");
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 0);
  // Row count preserved.
  rs = system_.Query("SELECT COUNT(*) FROM filled");
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 60);
}

TEST_F(OperatorTest, OneHotCreatesIndicators) {
  auto r = system_.Execute(
      "CALL IDAA.ONEHOT('input=data', 'output=encoded', 'column=cat')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rs = system_.Query(
      "SELECT SUM(cat_red), SUM(cat_green), SUM(cat_blue) FROM encoded");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 20);
  EXPECT_EQ(rs->At(0, 1).AsInteger(), 20);
  EXPECT_EQ(rs->At(0, 2).AsInteger(), 20);
}

TEST_F(OperatorTest, SampleFraction) {
  auto r = system_.Execute(
      "CALL IDAA.SAMPLE('input=data', 'output=sampled', 'fraction=0.5', "
      "'seed=11')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rs = system_.Query("SELECT COUNT(*) FROM sampled");
  int64_t n = rs->At(0, 0).AsInteger();
  EXPECT_GT(n, 15);
  EXPECT_LT(n, 45);
}

TEST_F(OperatorTest, LinRegRecoversSlope) {
  auto r = system_.Execute(
      "CALL IDAA.LINREG('input=data', 'target=y', 'columns=x', "
      "'output=preds')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Summary rows: INTERCEPT, X, R2, RMSE, ROWS.
  const ResultSet& summary = r->rows;
  ASSERT_GE(summary.NumRows(), 4u);
  double slope = 0, r2 = 0;
  for (const Row& row : summary.rows()) {
    if (row[0].AsVarchar() == "X") slope = row[1].AsDouble();
    if (row[0].AsVarchar() == "R2") r2 = row[1].AsDouble();
  }
  EXPECT_NEAR(slope, 2.0, 0.01);
  EXPECT_GT(r2, 0.999);
  auto rs = system_.Query("SELECT MAX(ABS(residual)) FROM preds");
  ASSERT_TRUE(rs.ok());
  EXPECT_LT(rs->At(0, 0).AsDouble(), 0.1);
}

TEST_F(OperatorTest, NaiveBayesAccuracy) {
  auto r = system_.Execute(
      "CALL IDAA.NAIVEBAYES('input=data', 'label=label', 'columns=x', "
      "'output=nb_preds')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  double accuracy = 0;
  for (const Row& row : r->rows.rows()) {
    if (row[0].AsVarchar() == "TRAIN_ACCURACY") accuracy = row[1].AsDouble();
  }
  EXPECT_GT(accuracy, 0.95);
}

TEST_F(OperatorTest, DecisionTreeAccuracy) {
  auto r = system_.Execute(
      "CALL IDAA.DECISIONTREE('input=data', 'label=label', 'columns=x,y', "
      "'max_depth=4')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  double accuracy = 0;
  for (const Row& row : r->rows.rows()) {
    if (row[0].AsVarchar() == "TRAIN_ACCURACY") accuracy = row[1].AsDouble();
  }
  EXPECT_GT(accuracy, 0.95);
}

TEST_F(OperatorTest, KMeansCentroidsOutput) {
  auto r = system_.Execute(
      "CALL IDAA.KMEANS('input=data', 'output=clusters', 'columns=x', "
      "'k=2', 'centroids_output=centers', 'seed=3')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rs = system_.Query("SELECT COUNT(*) FROM centers");
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 2);
}

TEST_F(OperatorTest, AprioriOverAotTable) {
  ASSERT_TRUE(system_
                  .Execute("CREATE TABLE basket (tid INT, item VARCHAR) "
                              "IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system_
                  .Execute("INSERT INTO basket VALUES (1,'a'),(1,'b'),"
                              "(2,'a'),(2,'b'),(3,'a'),(4,'c')")
                  .ok());
  auto r = system_.Execute(
      "CALL IDAA.APRIORI('input=basket', 'tid_column=tid', "
      "'item_column=item', 'min_support=0.5', 'output=freq')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rs = system_.Query(
      "SELECT itemset, support FROM freq ORDER BY itemset");
  ASSERT_TRUE(rs.ok());
  // a (3/4), a,b (2/4), b (2/4).
  ASSERT_EQ(rs->NumRows(), 3u);
  EXPECT_EQ(rs->At(0, 0).AsVarchar(), "a");
  EXPECT_EQ(rs->At(1, 0).AsVarchar(), "a,b");
}

TEST_F(OperatorTest, OperatorRerunReplacesOutput) {
  ASSERT_TRUE(system_
                  .Execute("CALL IDAA.SAMPLE('input=data', "
                              "'output=s1', 'fraction=1.0')")
                  .ok());
  ASSERT_TRUE(system_
                  .Execute("CALL IDAA.SAMPLE('input=data', "
                              "'output=s1', 'fraction=1.0')")
                  .ok());
  auto rs = system_.Query("SELECT COUNT(*) FROM s1");
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 60);  // not 120: recreated
}

TEST_F(OperatorTest, MissingParamFails) {
  auto r = system_.Execute("CALL IDAA.KMEANS('input=data')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OperatorTest, MalformedParamFails) {
  EXPECT_FALSE(system_.Execute("CALL IDAA.KMEANS('no_equals_sign')").ok());
}

TEST_F(OperatorTest, InputMustBeOnAccelerator) {
  ASSERT_TRUE(system_.Execute("CREATE TABLE db2only (x DOUBLE)").ok());
  auto r = system_.Execute(
      "CALL IDAA.SAMPLE('input=db2only', 'output=out', 'fraction=0.5')");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ACCEL_ADD_TABLES"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Typed keys: tids, categories and labels are keyed by storage equality, so
// doubles that share a %.6g rendering stay distinct.
// ---------------------------------------------------------------------------

TEST_F(OperatorTest, AprioriKeysDoubleTidsByValue) {
  ASSERT_TRUE(system_
                  .Execute("CREATE TABLE dbasket (tid DOUBLE, item VARCHAR) "
                           "IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system_
                  .Execute("INSERT INTO dbasket VALUES (1000001, 'A'), "
                           "(1000002, 'B'), (1000003, 'C')")
                  .ok());
  // Three one-item transactions: every item has support 1/3, so nothing
  // reaches 0.5.
  auto none = system_.Query(
      "CALL IDAA.APRIORI('input=dbasket', 'tid_column=tid', "
      "'item_column=item', 'min_support=0.5')");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->NumRows(), 0u) << none->ToString();
  auto singles = system_.Query(
      "CALL IDAA.APRIORI('input=dbasket', 'tid_column=tid', "
      "'item_column=item', 'min_support=0.3', 'output=dsets')");
  ASSERT_TRUE(singles.ok()) << singles.status().ToString();
  auto sets =
      system_.Query("SELECT itemset, size, support FROM dsets ORDER BY itemset");
  ASSERT_TRUE(sets.ok()) << sets.status().ToString();
  ASSERT_EQ(sets->NumRows(), 3u) << sets->ToString();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(sets->At(r, 1).AsInteger(), 1);
    EXPECT_DOUBLE_EQ(sets->At(r, 2).AsDouble(), 1.0 / 3.0);
  }
}

TEST_F(OperatorTest, OneHotAndNaiveBayesKeyDoublesByValue) {
  ASSERT_TRUE(system_
                  .Execute("CREATE TABLE dcat (x DOUBLE, code DOUBLE) "
                           "IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system_
                  .Execute("INSERT INTO dcat VALUES (0.5, 1000001), "
                           "(0.6, 1000001), (9.5, 1000002), (9.6, 1000002)")
                  .ok());
  auto onehot = system_.Query(
      "CALL IDAA.ONEHOT('input=dcat', 'output=dcat_hot', 'column=code')");
  ASSERT_TRUE(onehot.ok()) << onehot.status().ToString();
  auto hot = system_.Query(
      "SELECT code_1000001, code_1000002 FROM dcat_hot ORDER BY x");
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  ASSERT_EQ(hot->NumRows(), 4u);
  EXPECT_EQ(hot->At(0, 0).AsInteger(), 1);
  EXPECT_EQ(hot->At(0, 1).AsInteger(), 0);
  EXPECT_EQ(hot->At(3, 0).AsInteger(), 0);
  EXPECT_EQ(hot->At(3, 1).AsInteger(), 1);

  auto nb = system_.Query(
      "CALL IDAA.NAIVEBAYES('input=dcat', 'label=code', 'columns=x')");
  ASSERT_TRUE(nb.ok()) << nb.status().ToString();
  std::vector<std::string> priors;
  for (const Row& row : nb->rows()) {
    if (row[0].AsVarchar().rfind("PRIOR_", 0) == 0) {
      priors.push_back(row[0].AsVarchar());
      EXPECT_DOUBLE_EQ(row[1].AsDouble(), 0.5);
    }
  }
  EXPECT_EQ(priors, (std::vector<std::string>{"PRIOR_1000001",
                                               "PRIOR_1000002"}));
}

// ---------------------------------------------------------------------------
// Pipeline runner
// ---------------------------------------------------------------------------

TEST_F(OperatorTest, MultiStagePipelineAllOnAccelerator) {
  Pipeline pipeline("churn-prep");
  pipeline
      .AddStage("filter",
                "CREATE TABLE p1 (x DOUBLE, y DOUBLE) IN ACCELERATOR")
      .AddStage("load p1",
                "INSERT INTO p1 SELECT x, y FROM data WHERE x IS NOT NULL")
      .AddStage("aggregate",
                "CREATE TABLE p2 (bucket INTEGER, avg_y DOUBLE) "
                "IN ACCELERATOR")
      .AddStage("load p2",
                "INSERT INTO p2 SELECT CAST(x AS INTEGER) % 4, AVG(y) "
                "FROM p1 GROUP BY CAST(x AS INTEGER) % 4");
  auto report = pipeline.Run(system_.MakeSqlExecutor());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->stages.size(), 4u);
  // The two INSERT ... SELECT stages ran on the accelerator.
  EXPECT_TRUE(report->stages[1].on_accelerator);
  EXPECT_TRUE(report->stages[3].on_accelerator);
  auto rs = system_.Query("SELECT COUNT(*) FROM p2");
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(rs->At(0, 0).AsInteger(), 0);
}

TEST_F(OperatorTest, PipelineStopsOnFailure) {
  Pipeline pipeline("bad");
  pipeline.AddStage("ok", "CREATE TABLE okt (x INT) IN ACCELERATOR")
      .AddStage("fails", "INSERT INTO nosuch VALUES (1)")
      .AddStage("never", "INSERT INTO okt VALUES (1)");
  auto report = pipeline.Run(system_.MakeSqlExecutor());
  ASSERT_FALSE(report.ok());
  // Third stage never ran.
  auto rs = system_.Query("SELECT COUNT(*) FROM okt");
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 0);
}

}  // namespace
}  // namespace idaa::analytics
