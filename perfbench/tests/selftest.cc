// Tests of the benchmark's own machinery: seeded streams, the percentile
// rule and the result oracle.

#include <gtest/gtest.h>

#include <cmath>

#include "gen.h"
#include "oracle.h"
#include "stats.h"

namespace perfbench {
namespace {

using idaa::DataType;
using idaa::ResultSet;
using idaa::Schema;
using idaa::Value;

std::vector<std::string> ReadPrefix(uint64_t seed, size_t n) {
  ReadStream stream(StreamSeed(seed, kReaderStream), 1'000'000, 10'000,
                    {StmtClass::kLookup, StmtClass::kScan, StmtClass::kJoin,
                     StmtClass::kReport});
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(stream.Next().sql);
  return out;
}

std::vector<std::string> TxnPrefix(uint64_t seed, size_t n) {
  OrderEntryStream stream(StreamSeed(seed, kWriterStream), 200'000, 10'000);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    OrderTxn t = stream.Next();
    out.push_back(t.insert_sql + ";" + t.update_sql);
  }
  return out;
}

TEST(StreamTest, SameSeedSameStream) {
  EXPECT_EQ(ReadPrefix(7, 200), ReadPrefix(7, 200));
  EXPECT_EQ(TxnPrefix(7, 100), TxnPrefix(7, 100));
  EXPECT_EQ(MakeEltPlan(7).stage_sql, MakeEltPlan(7).stage_sql);
  EXPECT_EQ(OrderRow(7, 123, 10'000), OrderRow(7, 123, 10'000));
  EXPECT_EQ(RawRow(7, 5, 10'000), RawRow(7, 5, 10'000));
}

TEST(StreamTest, DifferentSeedDifferentStream) {
  EXPECT_NE(ReadPrefix(7, 200), ReadPrefix(8, 200));
  EXPECT_NE(TxnPrefix(7, 100), TxnPrefix(8, 100));
  EXPECT_NE(OrderRow(7, 123, 10'000), OrderRow(8, 123, 10'000));
}

TEST(StreamTest, ClientsHaveIndependentStreams) {
  EXPECT_NE(StreamSeed(7, kReaderStream), StreamSeed(7, kWriterStream));
}

TEST(StreamTest, RoundsCoverEveryClassOnce) {
  ReadStream stream(StreamSeed(3, kReaderStream), 1'000'000, 10'000,
                    {StmtClass::kLookup, StmtClass::kScan, StmtClass::kJoin,
                     StmtClass::kReport});
  for (int round = 0; round < 50; ++round) {
    std::vector<int> seen(kNumClasses, 0);
    for (int i = 0; i < 4; ++i) {
      ReadStmt s = stream.Next();
      ++seen[static_cast<int>(s.cls)];
      EXPECT_EQ(s.round_end, i == 3);
    }
    for (int c = 0; c < 4; ++c) EXPECT_EQ(seen[c], 1);
  }
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50.0);
  EXPECT_EQ(Percentile(v, 90), 90.0);
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  std::vector<double> v(20, 1.0);
  EXPECT_TRUE(Percentile(v, 50).has_value());   // 10 above rank 10
  v.pop_back();
  EXPECT_FALSE(Percentile(v, 50).has_value());  // only 9 above
  std::vector<double> w(1000, 1.0);
  EXPECT_TRUE(Percentile(w, 99).has_value());
  w.resize(999);
  EXPECT_FALSE(Percentile(w, 99).has_value());
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(200), 95);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
}

TEST(PercentileTest, FailuresCountAsMissingTheLimit) {
  std::vector<double> v(30, 1.0);
  for (int i = 0; i < 16; ++i) v[i] = kFailedLatency;
  EXPECT_TRUE(std::isinf(*Percentile(v, 50)));
}

TEST(MedianTest, EvenAndOdd) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

ResultSet Sample() {
  ResultSet rs(Schema({{"TIER", DataType::kVarchar, true},
                       {"N", DataType::kInteger, true},
                       {"S", DataType::kDouble, true}}));
  rs.Append({Value::Varchar("GOLD"), Value::Integer(10), Value::Double(1.5)});
  rs.Append({Value::Varchar("BASIC"), Value::Integer(7),
             Value::Double(0.1 + 0.2)});
  return rs;
}

TEST(OracleTest, AcceptsReorderedAndRoundedRows) {
  ResultSet got = Sample();
  std::swap(got.mutable_rows()[0], got.mutable_rows()[1]);
  got.mutable_rows()[0][2] = Value::Double(0.3);  // summed in another order
  EXPECT_FALSE(CompareResults(got, Sample()).has_value());
}

TEST(OracleTest, FlagsPlantedWrongResult) {
  ResultSet got = Sample();
  got.mutable_rows()[1][1] = Value::Integer(8);
  EXPECT_TRUE(CompareResults(got, Sample()).has_value());
  ResultSet wrong_sum = Sample();
  wrong_sum.mutable_rows()[0][2] = Value::Double(1.5001);
  EXPECT_TRUE(CompareResults(wrong_sum, Sample()).has_value());
  ResultSet missing = Sample();
  missing.mutable_rows().pop_back();
  EXPECT_TRUE(CompareResults(missing, Sample()).has_value());
}

TEST(OracleTest, ExactRenderDistinguishesLastBit) {
  ResultSet a = Sample(), b = Sample();
  b.mutable_rows()[1][2] = Value::Double(0.3);
  EXPECT_NE(ExactRender(a), ExactRender(b));
  EXPECT_EQ(ExactRender(a), ExactRender(Sample()));
}

}  // namespace
}  // namespace perfbench
