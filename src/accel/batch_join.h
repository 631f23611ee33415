// Batch-native hash join: partitioned build over the dimension tables'
// raw column arrays (no Row materialization), morsel-parallel probe that
// consumes the base scan's selection vectors, dictionary-code comparison
// for VARCHAR equi-keys, and sideways information passing (join-key
// min/max + Bloom filters pushed into the probe scan's zone-map pruning).
// The coordinator JoinIterator runs the shapes this path declines.

#pragma once

#include <optional>

#include "accel/accel_executor.h"

namespace idaa::accel {

/// Execute a multi-table SELECT with the vectorized batch join. Returns
/// nullopt (the caller runs the coordinator join) when the plan shape is
/// ineligible: a join key does not probe the base table, key types differ
/// across a key pair, a key is DOUBLE-typed (bit-pattern equality would
/// diverge from SQL equality on -0.0/0.0), or a scan predicate is not
/// exactly a conjunction of column ranges. Inner, left-outer and cross
/// joins with residual non-equi conjuncts are handled; results are
/// identical to the coordinator join.
Result<std::optional<ResultSet>> TryBatchJoin(
    const sql::BoundSelect& plan, const AccelTableResolver& resolver,
    TxnId reader, Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
    MetricsRegistry* metrics, TraceContext tc, const BatchOptions& batch);

/// Shard-scatter leg of the batch join: for plans TryBatchJoin accepts
/// whose aggregation runs inside the probe (every dimension keyed, no
/// residual WHERE or join conjuncts, plain-column keys and arguments, no
/// DISTINCT), returns the probe partials merged in worker order but NOT
/// finalized. Any other shape returns nullopt.
Result<std::optional<AggPartial>> TryBatchJoinPartial(
    const sql::BoundSelect& plan, const AccelTableResolver& resolver,
    TxnId reader, Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
    MetricsRegistry* metrics, TraceContext tc, const BatchOptions& batch);

/// Columnar leg of the batch join for an AOT INSERT ... SELECT of a
/// ColumnarInsertEligible plan: the materialize-mode probe writes every
/// surviving combined row straight into `layout`'s target columns, one
/// batch per probe morsel in morsel order (see ExecuteAccelSelectInto).
/// nullopt when TryBatchJoin would decline the plan.
Result<std::optional<std::vector<ColumnarRows>>> TryBatchJoinInto(
    const sql::BoundSelect& plan, const InsertLayout& layout,
    const AccelTableResolver& resolver, TxnId reader, Csn snapshot,
    const TransactionManager& tm, ThreadPool* pool, MetricsRegistry* metrics,
    TraceContext tc, const BatchOptions& batch);

}  // namespace idaa::accel
