// AnalyticsInput: a pinned, morsel-planned batch view of one accelerator
// input table — the only read path of the analytics operators.
//
// Opening an input takes the table's scan pin (ColumnTable::PinForScan) and
// holds it until the input is destroyed — for the whole duration of an
// operator run — so GROOM cannot rebuild slices (and shift row indexes)
// between an operator's passes, while writers keep appending and deleting
// freely. All scans share one morsel plan; per-morsel results are indexed
// by morsel and concatenated/merged in ascending morsel order (slice
// order, then row order within a slice), so every read sees the rows in
// the same sequence whatever the thread count.

#pragma once

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "accel/column_table.h"
#include "common/result.h"
#include "common/row.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "txn/transaction_manager.h"

namespace idaa::analytics {

class AnalyticsInput {
 public:
  /// Pins `table` and plans its morsels; see AnalyticsContext::OpenInput.
  AnalyticsInput(const accel::ColumnTable* table, const TransactionManager* tm,
                 TxnId reader, Csn snapshot, ThreadPool* pool);

  AnalyticsInput(const AnalyticsInput&) = delete;
  AnalyticsInput& operator=(const AnalyticsInput&) = delete;

  const Schema& schema() const { return table_->schema(); }
  size_t num_morsels() const { return morsels_.size(); }

  /// Morsel-parallel scan: `fn(worker, morsel_index, batch)` receives every
  /// non-empty visible batch. `worker` < the pool's worker count lets the
  /// callback keep lock-free per-worker scratch; `morsel_index` orders the
  /// per-morsel partial states for the coordinator's deterministic merge.
  /// Each morsel is handed to exactly one worker; a per-morsel child span
  /// (`stage`.morsel) records its row accounting when tracing is on.
  using BatchFn = std::function<void(size_t worker, size_t morsel_index,
                                     const accel::ColumnBatch& batch)>;
  accel::BatchScanStats Scan(const BatchFn& fn, TraceContext tc,
                             const std::string& stage) const;

  /// Materialize all visible rows, concatenated in morsel order.
  std::vector<Row> GatherRows(TraceContext tc) const;

  /// Morsel-parallel columnar gather: every visible row as a column-major
  /// staging buffer, concatenated in morsel order — the same content and
  /// row order as GatherRows, without per-row Row/Value boxing.
  /// kNotSupported when a column's type has no ColumnarRows representation
  /// (callers read such tables with GatherRows).
  Result<accel::ColumnarRows> GatherColumnar(TraceContext tc) const;

  /// Morsel-parallel numeric feature extraction straight off the raw column
  /// arrays (no per-row Value boxing). Rows with a NULL in any selected
  /// column are skipped. Errors (CheckNumericColumns) before any scan if a
  /// selected column is VARCHAR. `total_rows`/`skipped_rows` receive the
  /// visible row count and the NULL-skipped count.
  Result<std::vector<std::vector<double>>> ExtractFeatures(
      const std::vector<size_t>& columns, TraceContext tc,
      size_t* total_rows = nullptr, size_t* skipped_rows = nullptr) const;

  /// Like ExtractFeatures but also materializes the label column as typed
  /// values (classes are keyed by storage equality); rows with a NULL label
  /// or NULL feature are skipped.
  struct LabeledFeatures {
    std::vector<std::vector<double>> features;
    std::vector<Value> labels;
    size_t total_rows = 0;
    size_t skipped_rows = 0;
  };
  Result<LabeledFeatures> ExtractLabeledFeatures(
      const std::vector<size_t>& feature_cols, size_t label_col,
      TraceContext tc) const;

  ThreadPool* pool() const { return pool_; }

 private:
  const accel::ColumnTable* table_;
  const TransactionManager* tm_;
  TxnId reader_;
  Csn snapshot_;
  ThreadPool* pool_;
  std::shared_lock<std::shared_mutex> pin_;  // held for the input's lifetime
  std::vector<accel::Morsel> morsels_;
  std::vector<accel::BatchPredicate> per_slice_;  // compiled empty predicate
};

}  // namespace idaa::analytics
