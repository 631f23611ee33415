// Accelerator-side query execution: parallel, zone-map-pruned, vectorized
// slice scans feeding the shared coordinator runtime.

#pragma once

#include "accel/column_table.h"
#include "accel/columnar_insert.h"
#include "accel/partial_agg.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/select_runtime.h"
#include "sql/binder.h"
#include "txn/transaction_manager.h"

namespace idaa::accel {

/// Per-statement knobs of the morsel-driven scans, resolved from
/// AcceleratorOptions.
struct BatchOptions {
  size_t morsel_size = kDefaultMorselSize;
};

/// Scan all slices of a table in parallel, applying `predicate` inside the
/// scan, and concatenate the results in slice order (deterministic). The
/// scan is morsel-driven (fixed row ranges pulled from a shared cursor):
/// zone-map pruning and selection-vector filtering on the column ranges
/// the predicate implies, late materialization of the `projection`
/// columns, then — when the predicate is not exactly those ranges — the
/// residual step evaluates the full predicate on each materialized row.
/// A residual error returns the first failing morsel's error in morsel
/// order. Honors `limit_cap`: stops pulling morsels once the first
/// `limit_cap` rows surviving the residual are known. With a trace
/// context, each morsel records a span with its scan/zone-map accounting.
Result<std::vector<Row>> ParallelScan(
    const ColumnTable& table, const sql::BoundExpr* predicate, TxnId reader,
    Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
    MetricsRegistry* metrics,
    const std::vector<uint8_t>* projection = nullptr, TraceContext tc = {},
    const BatchOptions& batch = {},
    std::optional<size_t> limit_cap = std::nullopt);

/// True when the plan's aggregation can run at the data slices (one
/// table, a scan predicate that is exactly a conjunction of column ranges
/// and no other residual predicate, plain-column keys and arguments, no
/// DISTINCT) — exposed so EXPLAIN and execution read one rule.
bool EligibleForSliceAggregation(const sql::BoundSelect& plan);

/// Resolve plan.tables[i] to accelerator column tables.
using AccelTableResolver =
    std::function<Result<const ColumnTable*>(const sql::BoundTable&)>;

/// Execute a bound SELECT fully on the accelerator under
/// (reader, snapshot) visibility: slice aggregation, the batch join, or
/// morsel scans feeding the coordinator runtime. With a trace context,
/// the chosen operator, per-morsel scans (zone-map rows skipped, rows
/// scanned) and the coordinator merge are recorded as spans.
Result<ResultSet> ExecuteAccelSelect(const sql::BoundSelect& plan,
                                     const AccelTableResolver& resolver,
                                     TxnId reader, Csn snapshot,
                                     const TransactionManager& tm,
                                     ThreadPool* pool,
                                     MetricsRegistry* metrics,
                                     TraceContext tc = {},
                                     const BatchOptions& batch = {});

/// True when an INSERT ... SELECT of `plan` can write the scan or join
/// output straight into the target's columns: no aggregation, DISTINCT,
/// ORDER BY, HAVING or LIMIT, i.e. every surviving FROM row is one output
/// row, in scan order.
bool ColumnarInsertEligible(const sql::BoundSelect& plan);

/// The columnar leg of an AOT INSERT ... SELECT: run `plan` with its output
/// written by the morsel scan (one table) or the batch join's materialize
/// mode straight into `layout`'s target columns — one ColumnarRows per
/// morsel, in morsel order, so appending them in order stores exactly what
/// appending the SELECT's rows would. nullopt when the plan is not
/// ColumnarInsertEligible or the batch join declines it; the caller then
/// runs ExecuteAccelSelect and RowsToColumnar.
Result<std::optional<std::vector<ColumnarRows>>> ExecuteAccelSelectInto(
    const sql::BoundSelect& plan, const InsertLayout& layout,
    const AccelTableResolver& resolver, TxnId reader, Csn snapshot,
    const TransactionManager& tm, ThreadPool* pool, MetricsRegistry* metrics,
    TraceContext tc = {}, const BatchOptions& batch = {});

/// Shard-scatter entry: run the local share of an aggregation plan and
/// return ONE unfinalized partial for this accelerator instance — its
/// slice/morsel partials merged in the same deterministic order the
/// single-instance path uses, but not finalized. The sharded coordinator
/// merges the shard partials in shard order through MergeAggPartials, so
/// group contents are identical to running the whole table on one
/// instance. Covers the single-table slice aggregation and batch joins
/// against broadcast dimensions whose aggregation runs in the probe;
/// nullopt means the plan's shape cannot produce mergeable partials here
/// and the caller must row-gather instead.
Result<std::optional<AggPartial>> ExecuteAccelSelectPartial(
    const sql::BoundSelect& plan, const AccelTableResolver& resolver,
    TxnId reader, Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
    MetricsRegistry* metrics, TraceContext tc = {},
    const BatchOptions& batch = {});

}  // namespace idaa::accel
