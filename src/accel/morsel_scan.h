// Shared helpers for morsel-driven batch scans: per-table scan
// compilation, worker sizing, projection masks and the EXPLAIN ANALYZE
// accounting attrs emitted on scan/morsel spans. Used by the batch scan,
// batch aggregation and batch join paths.

#pragma once

#include <algorithm>
#include <cstdio>
#include <vector>

#include "accel/column_table.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "sql/binder.h"

namespace idaa::accel {

/// A scan predicate compiled for every slice of one table (dictionary
/// codes are slice-local, so each slice gets its own compilation). The
/// column ranges the predicate implies drive zone-map pruning and the
/// compiled per-slice filter; when the predicate is not exactly their
/// conjunction, `residual` holds the full predicate, evaluated on each
/// late-materialized surviving row.
struct BatchScanPlan {
  std::vector<ColumnRange> ranges;
  std::vector<BatchPredicate> per_slice;
  const sql::BoundExpr* residual = nullptr;
};

/// True when `predicate` (nullable) is exactly a conjunction of column
/// ranges, i.e. its batch scan needs no residual step.
inline bool IsExactScanPredicate(const sql::BoundExpr* predicate) {
  if (predicate == nullptr) return true;
  bool exact = false;
  ExtractColumnRanges(*predicate, &exact);
  return exact;
}

/// Compile `predicate` (nullable) for every slice of `table`. Callers hold
/// the table's scan pin: the compiled predicates bake in slice-local
/// dictionary codes that a Groom rebuild would re-intern.
inline BatchScanPlan PrepareBatchScan(const ColumnTable& table,
                                      const sql::BoundExpr* predicate) {
  BatchScanPlan out;
  if (predicate != nullptr) {
    bool exact = false;
    out.ranges = ExtractColumnRanges(*predicate, &exact);
    if (!exact) out.residual = predicate;
  }
  out.per_slice.reserve(table.num_slices());
  for (size_t s = 0; s < table.num_slices(); ++s) {
    out.per_slice.push_back(table.CompilePredicateForSlice(s, out.ranges));
  }
  return out;
}

inline size_t MorselWorkerCount(ThreadPool* pool, size_t num_morsels) {
  size_t cap = pool != nullptr ? pool->num_threads() : 1;
  return std::max<size_t>(1, std::min(cap, std::max<size_t>(num_morsels, 1)));
}

/// Gather combined-layout column indexes referenced by a bound tree.
inline void CollectColumns(const sql::BoundExpr& expr,
                           std::vector<uint8_t>* flags) {
  if (expr.kind == sql::BoundExprKind::kColumn && expr.index < flags->size()) {
    (*flags)[expr.index] = 1;
  }
  for (const auto& child : expr.children) CollectColumns(*child, flags);
}

/// Per-table projection masks: which columns the plan actually touches.
/// Scan predicates are table-local and handled per table; everything else
/// addresses the combined layout.
inline std::vector<std::vector<uint8_t>> ComputeProjections(
    const sql::BoundSelect& plan) {
  size_t combined_width = 0;
  for (const auto& bt : plan.tables) {
    combined_width += bt.info->schema.NumColumns();
  }
  std::vector<uint8_t> combined(combined_width, 0);
  auto collect = [&](const sql::BoundExprPtr& e) {
    if (e) CollectColumns(*e, &combined);
  };
  collect(plan.where);
  for (const auto& bt : plan.tables) collect(bt.join_on);
  for (const auto& g : plan.group_keys) CollectColumns(*g, &combined);
  for (const auto& agg : plan.aggregates) collect(agg.arg);
  for (const auto& e : plan.select_exprs) CollectColumns(*e, &combined);
  collect(plan.having);
  for (const auto& ob : plan.order_by) CollectColumns(*ob.expr, &combined);

  std::vector<std::vector<uint8_t>> per_table;
  per_table.reserve(plan.tables.size());
  for (const auto& bt : plan.tables) {
    size_t width = bt.info->schema.NumColumns();
    std::vector<uint8_t> flags(width, 0);
    for (size_t c = 0; c < width; ++c) flags[c] = combined[bt.offset + c];
    if (bt.scan_predicate) CollectColumns(*bt.scan_predicate, &flags);
    per_table.push_back(std::move(flags));
  }
  return per_table;
}

/// Emit the per-morsel scan accounting as an accel.slice_scan span.
/// Records the observed per-morsel selectivity so
/// adaptive-routing consumers can see skew between morsels.
inline void RecordMorselSpan(TraceSpan& span, const Morsel& morsel,
                             const BatchScanStats& before,
                             const BatchScanStats& after) {
  const uint64_t scanned = after.rows_scanned - before.rows_scanned;
  const uint64_t selected = after.rows_selected - before.rows_selected;
  span.Attr("slice", static_cast<uint64_t>(morsel.slice));
  span.Attr("rows_scanned", scanned);
  span.Attr("rows_selected", selected);
  span.Attr("zone_map_skipped",
            static_cast<uint64_t>(after.rows_skipped_zone_map -
                                  before.rows_skipped_zone_map));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                scanned > 0 ? static_cast<double>(selected) / scanned : 0.0);
  span.Attr("selectivity", buf);
}

inline void RecordBatchAttrs(TraceSpan& span, const BatchScanStats& total) {
  span.Attr("batch_path", "true");
  span.Attr("morsels", static_cast<uint64_t>(total.morsels));
  span.Attr("batches", static_cast<uint64_t>(total.batches));
  span.Attr("encoded_eval_rows",
            static_cast<uint64_t>(total.rows_encoded_eval));
  span.Attr("decode_fallback_rows",
            static_cast<uint64_t>(total.rows_decode_fallback));
  char buf[32];
  double selectivity =
      total.rows_scanned > 0
          ? static_cast<double>(total.rows_selected) / total.rows_scanned
          : 0.0;
  std::snprintf(buf, sizeof(buf), "%.3f", selectivity);
  span.Attr("selectivity", buf);
}

/// Storage-layout summary of the scanned table on the scan span: zone
/// counts per encoding and the footprint the encoded zones have vs. what
/// the same rows would cost as flat arrays (EXPLAIN ANALYZE visibility
/// into what compaction bought).
inline void RecordEncodingAttrs(TraceSpan& span, const ColumnTable& table) {
  const TableEncodingStats enc = table.EncodingStats();
  if (enc.columns.encoded_rows == 0) return;
  span.Attr("enc_zones_plain", static_cast<uint64_t>(enc.columns.zones_plain));
  span.Attr("enc_zones_rle", static_cast<uint64_t>(enc.columns.zones_rle));
  span.Attr("enc_zones_for", static_cast<uint64_t>(enc.columns.zones_for));
  span.Attr("enc_bytes", static_cast<uint64_t>(enc.columns.encoded_bytes));
  span.Attr("enc_raw_bytes", static_cast<uint64_t>(enc.columns.raw_bytes));
  span.Attr("enc_hot_rows", static_cast<uint64_t>(enc.hot_rows));
}

inline void AddScanMetrics(MetricsRegistry* metrics,
                           const BatchScanStats& total) {
  if (metrics == nullptr) return;
  metrics->Add(metric::kAccelRowsScanned, total.rows_scanned);
  metrics->Add(metric::kAccelRowsSkippedZoneMap, total.rows_skipped_zone_map);
  metrics->Add(metric::kAccelRowsEncodedEval, total.rows_encoded_eval);
  metrics->Add(metric::kAccelRowsDecodeFallback, total.rows_decode_fallback);
}

}  // namespace idaa::accel
