// Tests for the tracing/profiling subsystem: span trees and attributes,
// latency histogram percentile math, the histogram registry, the slow-query
// log, and end-to-end EXPLAIN ANALYZE for DB2-routed, accelerator-routed
// and AOT-delegated statements — including the accelerated star-join
// acceptance case (per-slice scan timings, zone-map rows skipped, boundary
// bytes, coordinator merge).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/trace.h"
#include "idaa/system.h"

namespace idaa {
namespace {

// ---------------------------------------------------------------------------
// QueryTrace / TraceSpan
// ---------------------------------------------------------------------------

TEST(QueryTraceTest, SpanNestingAndAttributes) {
  QueryTrace trace;
  TraceSpan root(&trace, "statement");
  root.Attr("rows", uint64_t{5});
  {
    TraceSpan child(root.context(), "route");
    child.Attr("target", "DB2");
    {
      TraceSpan grandchild(child.context(), "db2.scan t");
      grandchild.Attr("rows", uint64_t{3});
    }
  }
  root.End();

  auto spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "statement");
  EXPECT_EQ(spans[0].parent, QueryTrace::kNoParent);
  EXPECT_EQ(spans[1].name, "route");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].name, "db2.scan t");
  EXPECT_EQ(spans[2].parent, 1u);
  for (const auto& span : spans) EXPECT_FALSE(span.open);

  auto rows = trace.RenderRows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].depth, 0u);
  EXPECT_EQ(rows[1].depth, 1u);
  EXPECT_EQ(rows[2].depth, 2u);
  EXPECT_EQ(rows[0].attributes, "rows=5");
  EXPECT_EQ(rows[1].attributes, "target=DB2");

  std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("statement"), std::string::npos);
  EXPECT_NE(rendered.find("  route"), std::string::npos);
  EXPECT_NE(rendered.find("    db2.scan t"), std::string::npos);
}

TEST(QueryTraceTest, SiblingsRenderInCreationOrder) {
  QueryTrace trace;
  TraceSpan root(&trace, "statement");
  { TraceSpan a(root.context(), "first"); }
  { TraceSpan b(root.context(), "second"); }
  { TraceSpan c(root.context(), "third"); }
  root.End();
  auto rows = trace.RenderRows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1].name, "first");
  EXPECT_EQ(rows[2].name, "second");
  EXPECT_EQ(rows[3].name, "third");
}

TEST(QueryTraceTest, NullTraceSpanIsNoOp) {
  TraceContext empty;
  TraceSpan span(empty, "whatever");
  EXPECT_FALSE(static_cast<bool>(span));
  span.Attr("k", "v");  // must not crash
  span.Attr("n", uint64_t{7});
  span.End();
  TraceSpan child(span.context(), "child");
  EXPECT_FALSE(static_cast<bool>(child));
}

TEST(QueryTraceTest, InvalidParentBecomesRoot) {
  QueryTrace trace;
  size_t id = trace.BeginSpan("orphan", /*parent=*/12345);
  trace.EndSpan(id);
  auto spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, QueryTrace::kNoParent);
}

TEST(QueryTraceTest, BoundaryBytesAccumulate) {
  QueryTrace trace;
  EXPECT_EQ(trace.boundary_bytes(), 0u);
  trace.AddBoundaryBytes(100);
  trace.AddBoundaryBytes(28);
  EXPECT_EQ(trace.boundary_bytes(), 128u);
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.P99(), 0u);
  EXPECT_EQ(h.Percentile(0.0), 0u);
}

TEST(LatencyHistogramTest, SingleSampleIsExactEverywhere) {
  LatencyHistogram h;
  h.Record(1234);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), 1234u);
  EXPECT_EQ(h.Max(), 1234u);
  EXPECT_EQ(h.Mean(), 1234.0);
  EXPECT_EQ(h.P50(), 1234u);
  EXPECT_EQ(h.P95(), 1234u);
  EXPECT_EQ(h.P99(), 1234u);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndBounded) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  uint64_t prev = 0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "non-monotone at p=" << p;
    EXPECT_GE(v, h.Min());
    EXPECT_LE(v, h.Max());
    prev = v;
  }
  // p50 of 1..1000 must land in the right order of magnitude (power-of-two
  // buckets: the true median 500 falls in bucket [256, 512)).
  EXPECT_GE(h.P50(), 256u);
  EXPECT_LE(h.P50(), 1000u);
}

TEST(LatencyHistogramTest, ZeroValueSamples) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(20);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.P50(), 0u);
}

TEST(HistogramRegistryTest, StableReferencesAndSnapshot) {
  HistogramRegistry registry;
  LatencyHistogram& a = registry.GetOrCreate("a");
  LatencyHistogram& b = registry.GetOrCreate("b");
  a.Record(5);
  EXPECT_EQ(&registry.GetOrCreate("a"), &a);
  EXPECT_EQ(&registry.GetOrCreate("b"), &b);
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "a");
  EXPECT_EQ(snapshot[0].second.count, 1u);
  EXPECT_EQ(snapshot[0].second.p50, 5u);
  EXPECT_EQ(snapshot[1].second.count, 0u);
}

// ---------------------------------------------------------------------------
// SlowQueryLog (unit; end-to-end coverage lives in features_test.cc)
// ---------------------------------------------------------------------------

TEST(SlowQueryLogTest, DisabledUntilThresholdSet) {
  SlowQueryLog log;
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.MaybeRecord("SELECT 1", 999999, 0, ""));
  EXPECT_EQ(log.Size(), 0u);
  log.set_threshold_us(10);
  EXPECT_TRUE(log.enabled());
}

TEST(SlowQueryLogTest, CapacityEvictsOldest) {
  SlowQueryLog log;
  log.set_threshold_us(0);
  log.set_capacity(2);
  EXPECT_TRUE(log.MaybeRecord("q1", 1, 0, ""));
  EXPECT_TRUE(log.MaybeRecord("q2", 2, 0, ""));
  EXPECT_TRUE(log.MaybeRecord("q3", 3, 0, ""));
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].sql, "q2");
  EXPECT_EQ(entries[1].sql, "q3");
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE end to end
// ---------------------------------------------------------------------------

struct StageRow {
  std::string stage;   // trimmed of indentation
  int64_t duration_us;
  std::string detail;
};

std::vector<StageRow> StageRows(const ResultSet& rs) {
  std::vector<StageRow> out;
  for (size_t r = 0; r < rs.NumRows(); ++r) {
    StageRow row;
    std::string raw = rs.At(r, 0).AsVarchar();
    row.stage = raw.substr(raw.find_first_not_of(' '));
    row.duration_us = rs.At(r, 1).AsInteger();
    row.detail = rs.At(r, 2).is_null() ? "" : rs.At(r, 2).AsVarchar();
    out.push_back(std::move(row));
  }
  return out;
}

bool HasStage(const std::vector<StageRow>& rows, const std::string& name) {
  for (const auto& row : rows) {
    if (row.stage.find(name) != std::string::npos) return true;
  }
  return false;
}

// Sum of an integer attribute ("key=<n>") over all stages matching `stage`.
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

TEST(ExplainAnalyzeTest, Db2RoutedStatement) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE plain (a INT, b INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO plain VALUES (1, 10), (2, 20)")
                  .ok());
  auto rs = system.Query("EXPLAIN ANALYZE SELECT * FROM plain WHERE a = 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto rows = StageRows(*rs);
  EXPECT_TRUE(HasStage(rows, "route"));
  EXPECT_TRUE(HasStage(rows, "db2.execute"));
  EXPECT_TRUE(HasStage(rows, "db2.lock_wait"));
  EXPECT_TRUE(HasStage(rows, "db2.scan PLAIN"));
  EXPECT_FALSE(HasStage(rows, "accel.execute"));
  // Index access path is named.
  bool found_access_path = false;
  for (const auto& row : rows) {
    if (row.stage.find("db2.scan") != std::string::npos) {
      found_access_path =
          row.detail.find("access_path=") != std::string::npos;
    }
  }
  EXPECT_TRUE(found_access_path);
}

TEST(ExplainAnalyzeTest, AcceleratorRoutedStatement) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE sales (id INT, amount DOUBLE)")
                  .ok());
  ASSERT_TRUE(
      system.Execute("INSERT INTO sales VALUES (1, 5.0), (2, 7.5)").ok());
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('sales')").ok());
  system.SetAccelerationMode(federation::AccelerationMode::kAll);
  auto rs = system.Query("EXPLAIN ANALYZE SELECT SUM(amount) FROM sales");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto rows = StageRows(*rs);
  EXPECT_TRUE(HasStage(rows, "accel.execute"));
  EXPECT_TRUE(HasStage(rows, "accel.slice_scan"));
  EXPECT_TRUE(HasStage(rows, "xfer.from_accel"));
  EXPECT_FALSE(HasStage(rows, "db2.execute"));
  // Route stage names the accelerator target.
  for (const auto& row : rows) {
    if (row.stage == "route") {
      EXPECT_NE(row.detail.find("target=ACCELERATOR"), std::string::npos);
    }
  }
  EXPECT_GT(SumAttr(rows, "xfer", "bytes"), 0u);
}

TEST(ExplainAnalyzeTest, AotDelegatedStatement) {
  IdaaSystem system;
  ASSERT_TRUE(
      system.Execute("CREATE TABLE aot (x INT, y DOUBLE) IN ACCELERATOR")
          .ok());
  ASSERT_TRUE(
      system.Execute("INSERT INTO aot VALUES (1, 1.0), (2, 4.0)").ok());
  auto rs =
      system.Query("EXPLAIN ANALYZE SELECT x, SUM(y) FROM aot GROUP BY x");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto rows = StageRows(*rs);
  EXPECT_TRUE(HasStage(rows, "accel.execute"));
  EXPECT_TRUE(HasStage(rows, "accel.slice_aggregation"));
  EXPECT_TRUE(HasStage(rows, "accel.coordinator_merge"));
  EXPECT_FALSE(HasStage(rows, "db2.execute"));
}

TEST(ExplainAnalyzeTest, PlainExplainStillStatic) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  auto rs = system.Query("EXPLAIN SELECT * FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // The static report keeps its ASPECT/DETAIL shape and does not execute.
  EXPECT_EQ(rs->schema().Column(0).name, "ASPECT");
  bool has_target = false;
  for (size_t r = 0; r < rs->NumRows(); ++r) {
    if (rs->At(r, 0).AsVarchar() == "TARGET") has_target = true;
  }
  EXPECT_TRUE(has_target);
}

// Acceptance: EXPLAIN ANALYZE on an accelerated star join reports per-slice
// scan timings, zone-map rows skipped, transfer bytes and the coordinator
// merge.
TEST(ExplainAnalyzeTest, StarJoinReportsSliceAndZoneMapDetail) {
  SystemOptions options;
  options.accelerator.num_slices = 2;
  options.accelerator.zone_size = 16;
  IdaaSystem system(options);
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE fact (id INT, k INT, v DOUBLE) "
                              "IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE dim (k INT, label VARCHAR) "
                        "IN ACCELERATOR")
          .ok());
  ASSERT_TRUE(system
                  .Execute("INSERT INTO dim VALUES (0, 'zero'), "
                              "(1, 'one'), (2, 'two'), (3, 'three')")
                  .ok());
  // 200 fact rows in ascending id order: round-robin slicing keeps each
  // slice's zone-map extents tight on id, so `id < 50` prunes whole zones.
  for (int base = 0; base < 200; base += 50) {
    std::string insert = "INSERT INTO fact VALUES ";
    for (int i = base; i < base + 50; ++i) {
      if (i != base) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 4) +
                ", 1.5)";
    }
    ASSERT_TRUE(system.Execute(insert).ok());
  }

  const std::string query =
      "EXPLAIN ANALYZE SELECT d.label, SUM(f.v) FROM fact f "
      "JOIN dim d ON f.k = d.k WHERE f.id < 50 GROUP BY d.label";
  auto rs = system.Query(query);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto rows = StageRows(*rs);

  // The default plan is the batch join: build + probe phases with their
  // own accounting.
  EXPECT_TRUE(HasStage(rows, "accel.batch_join_build"));
  EXPECT_TRUE(HasStage(rows, "accel.batch_join_probe"));
  EXPECT_GT(SumAttr(rows, "accel.batch_join_build", "build_rows"), 0u);
  EXPECT_GT(SumAttr(rows, "accel.batch_join_probe", "matches"), 0u);

  // Per-slice scans with zone-map accounting.
  size_t slice_scans = 0;
  for (const auto& row : rows) {
    if (row.stage == "accel.slice_scan" &&
        row.detail.find("zone_map_skipped=") != std::string::npos) {
      ++slice_scans;
    }
  }
  EXPECT_GE(slice_scans, options.accelerator.num_slices);
  EXPECT_GT(SumAttr(rows, "accel.slice_scan", "zone_map_skipped"), 0u);
  // rows_scanned counts rows visited in zones the zone maps could not prune,
  // so it sits between the true match count (50) and the full table (200).
  const size_t rows_scanned = SumAttr(rows, "accel.slice_scan", "rows_scanned");
  EXPECT_GE(rows_scanned, 50u);
  EXPECT_LT(rows_scanned, 200u);

  // Boundary transfer with byte counts, and the coordinator merge.
  EXPECT_GT(SumAttr(rows, "xfer", "bytes"), 0u);
  EXPECT_TRUE(HasStage(rows, "accel.coordinator_merge"));
  EXPECT_GT(SumAttr(rows, "statement", "boundary_bytes"), 0u);

  // A fact predicate that is not an exact range conjunction makes the
  // batch join decline: the coordinator join runs over morsel scans, the
  // fact scan reporting its residual step. No row-at-a-time broadcast
  // join exists any more.
  auto coord_rs = system.Query(
      "EXPLAIN ANALYZE SELECT d.label, SUM(f.v) FROM fact f "
      "JOIN dim d ON f.k = d.k WHERE f.id < 50 OR f.id > 190 "
      "GROUP BY d.label");
  ASSERT_TRUE(coord_rs.ok()) << coord_rs.status().ToString();
  auto coord_rows = StageRows(*coord_rs);
  EXPECT_FALSE(HasStage(coord_rows, "accel.broadcast_dims"));
  EXPECT_FALSE(HasStage(coord_rows, "accel.batch_join_probe"));
  EXPECT_TRUE(HasStage(coord_rows, "accel.batch_scan"));
  bool residual = false;
  for (const auto& row : coord_rows) {
    if (row.stage == "accel.batch_scan" &&
        row.detail.find("residual=true") != std::string::npos) {
      residual = true;
    }
  }
  EXPECT_TRUE(residual);
}

// ---------------------------------------------------------------------------
// Per-statement-kind latency histograms
// ---------------------------------------------------------------------------

TEST(SqlLatencyHistogramTest, RecordsPerStatementKind) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1), (2)").ok());
  ASSERT_TRUE(system.Execute("SELECT * FROM t").ok());
  ASSERT_TRUE(system.Execute("SELECT COUNT(*) FROM t").ok());
  auto& histograms = system.histograms();
  EXPECT_EQ(histograms.GetOrCreate("sql.latency.select").Count(), 2u);
  EXPECT_EQ(histograms.GetOrCreate("sql.latency.insert").Count(), 1u);
  EXPECT_EQ(histograms.GetOrCreate("sql.latency.create_table").Count(), 1u);
}

}  // namespace
}  // namespace idaa
