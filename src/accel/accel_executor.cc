#include "accel/accel_executor.h"

#include <atomic>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "accel/batch_join.h"
#include "accel/morsel_scan.h"
#include "accel/partial_agg.h"
#include "sql/expression_eval.h"

namespace idaa::accel {

/// Plans whose aggregation can run at the slices (SPU-side): one table,
/// no residual predicate (neither a WHERE left over after pushdown nor a
/// scan predicate the morsel scan must re-check per row), plain-column
/// group keys, plain-column (or COUNT(*)) non-DISTINCT aggregate
/// arguments.
bool EligibleForSliceAggregation(const sql::BoundSelect& plan) {
  if (plan.tables.size() != 1 || !plan.has_aggregation) return false;
  if (plan.where) return false;
  if (!IsExactScanPredicate(plan.tables[0].scan_predicate.get())) {
    return false;
  }
  for (const auto& key : plan.group_keys) {
    if (key->kind != sql::BoundExprKind::kColumn) return false;
  }
  for (const auto& agg : plan.aggregates) {
    if (agg.distinct) return false;
    if (agg.arg && agg.arg->kind != sql::BoundExprKind::kColumn) return false;
  }
  return true;
}

namespace {

/// Morsel-driven GROUP BY / aggregation at the slices for an
/// EligibleForSliceAggregation plan (so its scan needs no residual step):
/// each worker accumulates into its own raw-keyed partial (dictionary
/// codes qualified by slice id when a group key is VARCHAR). Returns the
/// worker partials merged in worker order but NOT finalized — the
/// single-instance path finalizes immediately, the sharded scatter path
/// merges the per-shard partials first.
Result<AggPartial> SliceAggregation(const sql::BoundSelect& plan,
                                    const AccelTableResolver& resolver,
                                    TxnId reader, Csn snapshot,
                                    const TransactionManager& tm,
                                    ThreadPool* pool, MetricsRegistry* metrics,
                                    TraceContext tc,
                                    const BatchOptions& batch) {
  IDAA_ASSIGN_OR_RETURN(const ColumnTable* resolved, resolver(plan.tables[0]));
  const ColumnTable& table = *resolved;
  TraceSpan agg_span(tc, "accel.slice_aggregation");
  // How each aggregate consumes its argument: raw int64/double fast paths
  // for INTEGER/DOUBLE columns, counter-only for COUNT, and the boxed
  // Value path for types whose min/max must keep their logical type
  // (DATE/TIMESTAMP/BOOLEAN/VARCHAR).
  enum class ArgMode { kRow, kCount, kInt64, kDouble, kValue };
  const Schema& schema = table.schema();
  std::vector<ArgMode> modes(plan.aggregates.size(), ArgMode::kRow);
  std::vector<size_t> arg_cols(plan.aggregates.size(), 0);
  for (size_t a = 0; a < plan.aggregates.size(); ++a) {
    const auto& agg = plan.aggregates[a];
    if (agg.func == sql::AggFunc::kCountStar) continue;
    arg_cols[a] = agg.arg->index;
    if (agg.func == sql::AggFunc::kCount) {
      modes[a] = ArgMode::kCount;
    } else {
      switch (schema.Column(arg_cols[a]).type) {
        case DataType::kInteger:
          modes[a] = ArgMode::kInt64;
          break;
        case DataType::kDouble:
          modes[a] = ArgMode::kDouble;
          break;
        default:
          modes[a] = ArgMode::kValue;
      }
    }
  }
  bool varchar_key = false;
  for (const auto& key : plan.group_keys) {
    if (schema.Column(key->index).type == DataType::kVarchar) {
      varchar_key = true;
    }
  }
  const size_t key_base = varchar_key ? 1 : 0;

  auto pin = table.PinForScan();
  const BatchScanPlan bp =
      PrepareBatchScan(table, plan.tables[0].scan_predicate.get());
  const std::vector<Morsel> morsels = table.PlanMorsels(batch.morsel_size);
  const size_t num_workers = MorselWorkerCount(pool, morsels.size());

  struct Worker {
    TransactionManager::VisibilityChecker visibility;
    std::vector<uint32_t> sel;
    BatchScanStats stats;
    std::unordered_map<std::vector<uint64_t>, size_t, RawKeyHash> index;
    AggPartial partial;
    std::vector<uint64_t> raw_key;
  };
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(
        Worker{TransactionManager::VisibilityChecker(&tm, reader, snapshot),
               {},
               {},
               {},
               {},
               std::vector<uint64_t>(key_base + plan.group_keys.size() * 2)});
  }

  auto run = [&](size_t w, size_t mi) {
    Worker& wk = workers[w];
    const Morsel& m = morsels[mi];
    const BatchScanStats before = wk.stats;
    TraceSpan morsel_span(agg_span.context(), "accel.slice_scan");
    table.ScanMorsel(
        m, bp.ranges, &bp.per_slice[m.slice], wk.visibility, &wk.sel,
        &wk.stats, [&](const ColumnBatch& b) {
          const auto& columns = *b.columns;
          if (b.sel_count == 0) return;
          // One cursor per aggregate argument: sel is ascending, so reads
          // over encoded zones stay amortized O(1), and RunEnd exposes RLE
          // runs to the scalar fold below.
          std::vector<ColumnCursor> arg_curs;
          arg_curs.reserve(plan.aggregates.size());
          for (size_t a = 0; a < plan.aggregates.size(); ++a) {
            arg_curs.emplace_back(*columns[arg_cols[a]]);
          }
          if (plan.group_keys.empty()) {
            // Scalar aggregation: one group for the whole table, resolved
            // once per batch. Each aggregate then walks sel independently,
            // folding whole RLE runs into one accumulator update.
            if (wk.partial.keys.empty()) {
              wk.index.emplace(wk.raw_key, 0);
              wk.partial.keys.emplace_back();
              std::vector<sql::AggregateAccumulator> accs;
              accs.reserve(plan.aggregates.size());
              for (const auto& agg : plan.aggregates) accs.emplace_back(agg);
              wk.partial.accumulators.push_back(std::move(accs));
            }
            auto& accs = wk.partial.accumulators[0];
            for (size_t a = 0; a < plan.aggregates.size(); ++a) {
              if (modes[a] == ArgMode::kRow) {
                accs[a].AccumulateRowRun(b.sel_count);
                continue;
              }
              ColumnCursor& cur = arg_curs[a];
              if (modes[a] == ArgMode::kValue) {
                for (size_t k = 0; k < b.sel_count; ++k) {
                  accs[a].Accumulate(cur.Get(b.AbsoluteRow(k)));
                }
                continue;
              }
              size_t k = 0;
              while (k < b.sel_count) {
                const size_t i = b.AbsoluteRow(k);
                const size_t run_end = cur.RunEnd(i);
                size_t k2 = k + 1;
                while (k2 < b.sel_count && b.AbsoluteRow(k2) < run_end) {
                  ++k2;
                }
                const uint64_t n = k2 - k;
                if (cur.IsNull(i)) {
                  accs[a].AccumulateNullRun(n);
                } else {
                  switch (modes[a]) {
                    case ArgMode::kCount:
                      accs[a].AccumulateCountNonNullRun(n);
                      break;
                    case ArgMode::kInt64:
                      accs[a].AccumulateInt64Run(cur.Int(i), n);
                      break;
                    default:
                      accs[a].AccumulateDoubleRun(cur.Double(i), n);
                  }
                }
                k = k2;
              }
            }
            return;
          }
          std::vector<ColumnCursor> key_curs;
          key_curs.reserve(plan.group_keys.size());
          for (const auto& key : plan.group_keys) {
            key_curs.emplace_back(*columns[key->index]);
          }
          // Grouped aggregation folds on group-key runs: every selected
          // row inside the maximal run shared by ALL group keys belongs
          // to the same group, so the key extraction + hash probe happen
          // once per run (a GROOM-clustered key collapses a zone to a
          // handful of probes), and each aggregate folds its own argument
          // runs inside the group run exactly like the scalar path.
          size_t k = 0;
          while (k < b.sel_count) {
            const size_t i = b.AbsoluteRow(k);
            size_t key_run_end = key_curs[0].RunEnd(i);
            for (size_t g = 1; g < plan.group_keys.size(); ++g) {
              key_run_end = std::min(key_run_end, key_curs[g].RunEnd(i));
            }
            size_t k2 = k + 1;
            while (k2 < b.sel_count && b.AbsoluteRow(k2) < key_run_end) {
              ++k2;
            }
            if (varchar_key) wk.raw_key[0] = m.slice;
            for (size_t g = 0; g < plan.group_keys.size(); ++g) {
              RawKeyOf(key_curs[g], i, &wk.raw_key[key_base + 2 * g],
                       &wk.raw_key[key_base + 2 * g + 1]);
            }
            auto it = wk.index.find(wk.raw_key);
            size_t group;
            if (it == wk.index.end()) {
              group = wk.partial.keys.size();
              wk.index.emplace(wk.raw_key, group);
              std::vector<Value> key_values;
              key_values.reserve(plan.group_keys.size());
              for (const auto& key : plan.group_keys) {
                key_values.push_back(columns[key->index]->Get(i));
              }
              wk.partial.keys.push_back(std::move(key_values));
              std::vector<sql::AggregateAccumulator> accs;
              accs.reserve(plan.aggregates.size());
              for (const auto& agg : plan.aggregates) accs.emplace_back(agg);
              wk.partial.accumulators.push_back(std::move(accs));
            } else {
              group = it->second;
            }
            auto& accs = wk.partial.accumulators[group];
            for (size_t a = 0; a < plan.aggregates.size(); ++a) {
              if (modes[a] == ArgMode::kRow) {
                accs[a].AccumulateRowRun(k2 - k);
                continue;
              }
              ColumnCursor& cur = arg_curs[a];
              if (modes[a] == ArgMode::kValue) {
                for (size_t kk = k; kk < k2; ++kk) {
                  accs[a].Accumulate(cur.Get(b.AbsoluteRow(kk)));
                }
                continue;
              }
              size_t kk = k;
              while (kk < k2) {
                const size_t ri = b.AbsoluteRow(kk);
                const size_t run_end = cur.RunEnd(ri);
                size_t kk2 = kk + 1;
                while (kk2 < k2 && b.AbsoluteRow(kk2) < run_end) {
                  ++kk2;
                }
                const uint64_t n = kk2 - kk;
                if (cur.IsNull(ri)) {
                  accs[a].AccumulateNullRun(n);
                } else {
                  switch (modes[a]) {
                    case ArgMode::kCount:
                      accs[a].AccumulateCountNonNullRun(n);
                      break;
                    case ArgMode::kInt64:
                      accs[a].AccumulateInt64Run(cur.Int(ri), n);
                      break;
                    default:
                      accs[a].AccumulateDoubleRun(cur.Double(ri), n);
                  }
                }
                kk = kk2;
              }
            }
            k = k2;
          }
        });
    RecordMorselSpan(morsel_span, m, before, wk.stats);
  };
  if (pool != nullptr && morsels.size() > 1) {
    pool->ParallelForDynamic(morsels.size(), num_workers, run);
  } else {
    for (size_t mi = 0; mi < morsels.size(); ++mi) run(0, mi);
  }

  BatchScanStats total;
  std::vector<AggPartial> partials;
  partials.reserve(workers.size());
  for (Worker& wk : workers) {
    total.Merge(wk.stats);
    partials.push_back(std::move(wk.partial));
  }
  AddScanMetrics(metrics, total);
  RecordBatchAttrs(agg_span, total);
  RecordEncodingAttrs(agg_span, table);
  return MergeAggPartialsRaw(&partials);
}

}  // namespace

namespace {

/// Per-morsel outcome of a MorselScan.
struct MorselOutcome {
  Status status;
  size_t kept = 0;  ///< rows surviving the residual step
};

/// The morsel loop shared by the row scan and the columnar INSERT ... SELECT
/// scan. For each morsel, `consume(mi, batch)` runs under the table's data
/// lock once per surviving batch; `finish(mi, &kept, &rejected)` then runs
/// after ScanMorsel has released the lock — arbitrary expression work
/// (residual predicates, projections) must not stall writers — and
/// reports the rows it kept and rejected. A failing finish stops the pull
/// of further morsels; every morsel before it was pulled earlier and
/// completes, so the first failing morsel in morsel order is always
/// processed. Honors `limit_cap`: stops once the first `limit_cap` kept
/// rows are known. Returns the per-morsel outcomes, with the scan's
/// accounting recorded on `span` and in `metrics`.
template <typename Consume, typename Finish>
std::vector<MorselOutcome> MorselScan(
    const ColumnTable& table, const BatchScanPlan& bp,
    const std::vector<Morsel>& morsels, TxnId reader, Csn snapshot,
    const TransactionManager& tm, ThreadPool* pool, MetricsRegistry* metrics,
    TraceSpan& span, std::optional<size_t> limit_cap, const Consume& consume,
    const Finish& finish) {
  const size_t num_workers = MorselWorkerCount(pool, morsels.size());
  struct Worker {
    TransactionManager::VisibilityChecker visibility;
    std::vector<uint32_t> sel;
    BatchScanStats stats;
    uint64_t residual_rejected = 0;
  };
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(
        Worker{TransactionManager::VisibilityChecker(&tm, reader, snapshot),
               {},
               {},
               0});
  }

  std::vector<MorselOutcome> outcomes(morsels.size());
  std::mutex progress_mu;
  std::vector<int64_t> done(morsels.size(), -1);
  size_t prefix = 0;
  size_t prefix_rows = 0;
  std::atomic<bool> stop{false};

  auto run = [&](size_t w, size_t mi) {
    if (stop.load(std::memory_order_relaxed)) return;
    Worker& wk = workers[w];
    const Morsel& m = morsels[mi];
    const BatchScanStats before = wk.stats;
    TraceSpan morsel_span(span.context(), "accel.slice_scan");
    table.ScanMorsel(m, bp.ranges, &bp.per_slice[m.slice], wk.visibility,
                     &wk.sel, &wk.stats,
                     [&](const ColumnBatch& b) { consume(mi, b); });
    RecordMorselSpan(morsel_span, m, before, wk.stats);
    MorselOutcome& out = outcomes[mi];
    uint64_t rejected = 0;
    out.status = finish(mi, &out.kept, &rejected);
    wk.residual_rejected += rejected;
    if (!out.status.ok()) {
      stop.store(true, std::memory_order_relaxed);
    } else if (limit_cap.has_value()) {
      std::lock_guard<std::mutex> lock(progress_mu);
      done[mi] = static_cast<int64_t>(out.kept);
      while (prefix < done.size() && done[prefix] >= 0) {
        prefix_rows += static_cast<size_t>(done[prefix]);
        ++prefix;
      }
      if (prefix_rows >= *limit_cap) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (pool != nullptr && morsels.size() > 1) {
    pool->ParallelForDynamic(morsels.size(), num_workers, run);
  } else {
    for (size_t mi = 0; mi < morsels.size(); ++mi) run(0, mi);
  }

  BatchScanStats total;
  uint64_t residual_rejected = 0;
  for (const Worker& wk : workers) {
    total.Merge(wk.stats);
    residual_rejected += wk.residual_rejected;
  }
  AddScanMetrics(metrics, total);
  RecordBatchAttrs(span, total);
  RecordEncodingAttrs(span, table);
  if (bp.residual != nullptr) {
    span.Attr("residual", "true");
    span.Attr("residual_rejected_rows", residual_rejected);
  }
  return outcomes;
}

/// Evaluate `filters` (nulls skipped) in order on each row; keep[r] says
/// whether row r passed all of them. A row rejected by one filter is not
/// shown to the next, as in the scan-then-filter row pipeline.
Status ApplyFilters(const std::vector<const sql::BoundExpr*>& filters,
                    const std::vector<Row>& rows, std::vector<uint8_t>* keep,
                    uint64_t* rejected) {
  keep->assign(rows.size(), 1);
  for (const sql::BoundExpr* filter : filters) {
    if (filter == nullptr) continue;
    for (size_t r = 0; r < rows.size(); ++r) {
      if ((*keep)[r] == 0) continue;
      IDAA_ASSIGN_OR_RETURN(bool pass, sql::EvalPredicate(*filter, rows[r]));
      if (!pass) {
        (*keep)[r] = 0;
        ++*rejected;
      }
    }
  }
  return Status::OK();
}

/// Late-materialize `b`'s selected rows into `rows`: one full-width Row
/// per selected row, holding the columns with mask[c] set (every column
/// when `mask` is null) and NULL elsewhere. Cursors keep the reads
/// amortized O(1) per element over encoded zones (sel is ascending).
void MaterializeRows(const ColumnBatch& b, const std::vector<uint8_t>* mask,
                     std::vector<Row>* rows) {
  const size_t width = b.columns->size();
  std::vector<ColumnCursor> cursors;
  cursors.reserve(width);
  for (size_t c = 0; c < width; ++c) cursors.emplace_back(*(*b.columns)[c]);
  rows->reserve(rows->size() + b.sel_count);
  for (size_t k = 0; k < b.sel_count; ++k) {
    const size_t i = b.AbsoluteRow(k);
    Row row(width);
    for (size_t c = 0; c < width; ++c) {
      if (mask == nullptr || (*mask)[c]) row[c] = cursors[c].Get(i);
    }
    rows->push_back(std::move(row));
  }
}

/// The columnar INSERT ... SELECT leg of the morsel scan: a single-table
/// plan without aggregation, DISTINCT, ORDER BY or LIMIT writes each
/// morsel's survivors into one ColumnarRows in the target's layout. Bare
/// columns of the target's type are copied by a typed gather under the
/// data lock, together with scratch rows holding only the inputs of the
/// residual, the WHERE and the expression items (casts included); after
/// the lock is released the filters run on the scratch rows, the gathered
/// columns are compacted to the survivors and the expression items are
/// evaluated and cast. Returns the batches in morsel order, or the first
/// failing morsel's error.
Result<std::vector<ColumnarRows>> ParallelScanInto(
    const ColumnTable& table, const sql::BoundSelect& plan,
    const InsertLayout& layout, TxnId reader, Csn snapshot,
    const TransactionManager& tm, ThreadPool* pool, MetricsRegistry* metrics,
    TraceContext tc, const BatchOptions& batch) {
  TraceSpan span(tc, "accel.batch_scan");
  span.Attr("into", "columnar");
  auto pin = table.PinForScan();
  const BatchScanPlan bp =
      PrepareBatchScan(table, plan.tables[0].scan_predicate.get());
  const std::vector<Morsel> morsels = table.PlanMorsels(batch.morsel_size);
  const size_t width = table.schema().NumColumns();
  const std::vector<const sql::BoundExpr*> filters = {bp.residual,
                                                      plan.where.get()};
  const std::vector<uint8_t> scratch_cols =
      ScratchColumns(layout, width, filters);
  const bool need_scratch =
      layout.has_exprs || bp.residual != nullptr || plan.where != nullptr;

  struct MorselOut {
    ColumnarRows rows;
    std::vector<Row> scratch;
    size_t count = 0;
  };
  std::vector<MorselOut> outs(morsels.size());
  for (MorselOut& out : outs) out.rows.columns.resize(layout.targets.size());
  auto consume = [&](size_t mi, const ColumnBatch& b) {
    MorselOut& out = outs[mi];
    auto row_at = [&b](size_t k) { return b.AbsoluteRow(k); };
    for (size_t c = 0; c < layout.targets.size(); ++c) {
      const InsertLayout::Target& t = layout.targets[c];
      if (t.source != InsertLayout::Target::Source::kColumn) continue;
      ColumnCursor cur(*(*b.columns)[t.column]);
      GatherCells(cur, b.sel_count, row_at, &out.rows.columns[c]);
    }
    if (need_scratch) MaterializeRows(b, &scratch_cols, &out.scratch);
    out.count += b.sel_count;
  };
  auto finish = [&](size_t mi, size_t* kept, uint64_t* rejected) -> Status {
    MorselOut& out = outs[mi];
    size_t n = out.count;
    if (bp.residual != nullptr || plan.where != nullptr) {
      std::vector<uint8_t> keep;
      IDAA_RETURN_IF_ERROR(ApplyFilters(filters, out.scratch, &keep, rejected));
      if (*rejected > 0) {
        KeepRows(keep, &out.rows);
        KeepIf(keep, &out.scratch);
        n = out.scratch.size();
      }
    }
    if (layout.has_exprs) {
      for (const Row& row : out.scratch) {
        IDAA_RETURN_IF_ERROR(AppendExprCells(layout, row, &out.rows));
      }
    }
    std::vector<Row>().swap(out.scratch);
    FinishColumnar(layout, n, &out.rows);
    *kept = n;
    return Status::OK();
  };
  std::vector<MorselOutcome> outcomes =
      MorselScan(table, bp, morsels, reader, snapshot, tm, pool, metrics,
                 span, std::nullopt, consume, finish);
  std::vector<ColumnarRows> batches;
  batches.reserve(morsels.size());
  size_t rows = 0;
  for (size_t mi = 0; mi < morsels.size(); ++mi) {
    IDAA_RETURN_IF_ERROR(outcomes[mi].status);
    rows += outs[mi].rows.num_rows;
    batches.push_back(std::move(outs[mi].rows));
  }
  span.Attr("rows", static_cast<uint64_t>(rows));
  return batches;
}

}  // namespace

Result<std::vector<Row>> ParallelScan(
    const ColumnTable& table, const sql::BoundExpr* predicate, TxnId reader,
    Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
    MetricsRegistry* metrics, const std::vector<uint8_t>* projection,
    TraceContext tc, const BatchOptions& batch,
    std::optional<size_t> limit_cap) {
  TraceSpan span(tc, "accel.batch_scan");
  auto pin = table.PinForScan();
  const BatchScanPlan bp = PrepareBatchScan(table, predicate);
  const std::vector<Morsel> morsels = table.PlanMorsels(batch.morsel_size);

  std::vector<std::vector<Row>> morsel_rows(morsels.size());
  auto consume = [&](size_t mi, const ColumnBatch& b) {
    MaterializeRows(b, projection, &morsel_rows[mi]);
  };
  // Residual step: the full predicate on the materialized rows.
  auto finish = [&](size_t mi, size_t* kept, uint64_t* rejected) -> Status {
    std::vector<Row>& rows = morsel_rows[mi];
    if (bp.residual != nullptr) {
      std::vector<uint8_t> keep;
      IDAA_RETURN_IF_ERROR(ApplyFilters({bp.residual}, rows, &keep, rejected));
      KeepIf(keep, &rows);
    }
    *kept = rows.size();
    return Status::OK();
  };
  std::vector<MorselOutcome> outcomes =
      MorselScan(table, bp, morsels, reader, snapshot, tm, pool, metrics,
                 span, limit_cap, consume, finish);

  // Concatenate in morsel (= slice) order up to the cap. The rows and
  // errors walked here all lie in the processed prefix, so both the
  // first-N trim and the reported error are deterministic.
  std::vector<Row> out;
  for (size_t mi = 0; mi < morsels.size(); ++mi) {
    if (limit_cap.has_value() && out.size() >= *limit_cap) break;
    IDAA_RETURN_IF_ERROR(outcomes[mi].status);
    for (Row& row : morsel_rows[mi]) {
      if (limit_cap.has_value() && out.size() >= *limit_cap) break;
      out.push_back(std::move(row));
    }
  }
  span.Attr("rows", static_cast<uint64_t>(out.size()));
  return out;
}

Result<ResultSet> ExecuteAccelSelect(const sql::BoundSelect& plan,
                                     const AccelTableResolver& resolver,
                                     TxnId reader, Csn snapshot,
                                     const TransactionManager& tm,
                                     ThreadPool* pool,
                                     MetricsRegistry* metrics,
                                     TraceContext tc,
                                     const BatchOptions& batch) {
  // Single table: aggregation computed at the slices.
  if (EligibleForSliceAggregation(plan)) {
    IDAA_ASSIGN_OR_RETURN(AggPartial partial,
                          SliceAggregation(plan, resolver, reader, snapshot,
                                           tm, pool, metrics, tc, batch));
    TraceSpan merge_span(tc, "accel.coordinator_merge");
    IDAA_ASSIGN_OR_RETURN(std::vector<Row> post_rows,
                          FinalizeAggPartial(plan, std::move(partial)));
    merge_span.Attr("groups", static_cast<uint64_t>(post_rows.size()));
    merge_span.End();
    return exec::FinalizeSelect(plan, std::move(post_rows));
  }
  if (plan.tables.size() >= 2) {
    // Vectorized hash join (build over raw columns, morsel-parallel probe,
    // dictionary-code keys, sideways zone pruning); the coordinator
    // JoinIterator below runs the shapes it declines.
    IDAA_ASSIGN_OR_RETURN(
        auto joined, TryBatchJoin(plan, resolver, reader, snapshot, tm, pool,
                                  metrics, tc, batch));
    if (joined.has_value()) return std::move(*joined);
  }

  // Single-table scans whose result only passes through projection + LIMIT
  // can stop early: the scan needs to produce at most `limit_cap` rows.
  const std::optional<size_t> limit_cap = exec::ScanOutputCap(plan);
  std::vector<std::vector<uint8_t>> projections = ComputeProjections(plan);
  exec::TableSource source = [&](size_t index) -> Result<std::vector<Row>> {
    const sql::BoundTable& bt = plan.tables[index];
    IDAA_ASSIGN_OR_RETURN(const ColumnTable* table, resolver(bt));
    return ParallelScan(*table, bt.scan_predicate.get(), reader, snapshot, tm,
                        pool, metrics, &projections[index], tc, batch,
                        limit_cap);
  };
  exec::ExecutorOptions options;
  options.metrics = nullptr;  // morsel scans account their own rows
  options.apply_scan_predicates = false;
  return exec::ExecuteBoundSelect(plan, source, options);
}

bool ColumnarInsertEligible(const sql::BoundSelect& plan) {
  return !plan.tables.empty() && !plan.has_aggregation && !plan.distinct &&
         plan.order_by.empty() && !plan.limit.has_value() && !plan.having;
}

Result<std::optional<std::vector<ColumnarRows>>> ExecuteAccelSelectInto(
    const sql::BoundSelect& plan, const InsertLayout& layout,
    const AccelTableResolver& resolver, TxnId reader, Csn snapshot,
    const TransactionManager& tm, ThreadPool* pool, MetricsRegistry* metrics,
    TraceContext tc, const BatchOptions& batch) {
  using Batches = std::vector<ColumnarRows>;
  if (!ColumnarInsertEligible(plan)) return std::optional<Batches>();
  if (plan.tables.size() == 1) {
    IDAA_ASSIGN_OR_RETURN(const ColumnTable* table, resolver(plan.tables[0]));
    IDAA_ASSIGN_OR_RETURN(Batches batches,
                          ParallelScanInto(*table, plan, layout, reader,
                                           snapshot, tm, pool, metrics, tc,
                                           batch));
    return std::optional<Batches>(std::move(batches));
  }
  return TryBatchJoinInto(plan, layout, resolver, reader, snapshot, tm, pool,
                          metrics, tc, batch);
}

Result<std::optional<AggPartial>> ExecuteAccelSelectPartial(
    const sql::BoundSelect& plan, const AccelTableResolver& resolver,
    TxnId reader, Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
    MetricsRegistry* metrics, TraceContext tc, const BatchOptions& batch) {
  if (EligibleForSliceAggregation(plan)) {
    IDAA_ASSIGN_OR_RETURN(AggPartial partial,
                          SliceAggregation(plan, resolver, reader, snapshot,
                                           tm, pool, metrics, tc, batch));
    return std::optional<AggPartial>(std::move(partial));
  }
  if (plan.tables.size() >= 2) {
    // Every shard holds full copies of the broadcast dimensions, so the
    // batch join builds locally and only the unfinalized group partials
    // of its aggregate-mode probe leave the shard.
    return TryBatchJoinPartial(plan, resolver, reader, snapshot, tm, pool,
                               metrics, tc, batch);
  }
  return std::optional<AggPartial>();
}

}  // namespace idaa::accel
