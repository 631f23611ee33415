// IdaaLoader: the standalone high-speed ingestion tool ("IDAA Loader").
// Loads external data in batches either into regular DB2 tables (which then
// re-replicate to the accelerator) or *directly* into accelerator tables —
// including AOTs — bypassing DB2 data movement entirely.
//
// The load runs as a multi-stage parallel pipeline under bounded queues:
//
//   reader (caller thread)          1 thread   splits the source into
//                                              record chunks of batch_size
//   parse/convert workers           N threads  raw record -> typed row ->
//                                              columnar staging, per-field
//                                              validation, reject capture
//   commit                          1 thread   applies batches strictly in
//                                              input order: columnar wire +
//                                              ColumnTable::InsertColumnar
//                                              for direct loads, Db2Engine
//                                              (+ replication) otherwise
//
// Both queues are bounded by queue_depth, so memory stays O(queue depth)
// regardless of input size. The pipeline is the only load path; at
// num_workers = 1 it is the benchmarks' single-worker baseline.

#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/trace.h"
#include "db2/db2_engine.h"
#include "federation/transfer_channel.h"
#include "loader/record_source.h"
#include "txn/transaction_manager.h"

namespace idaa::loader {

/// Resolves the accelerator hosting a table's accelerator-side data.
using AcceleratorResolver =
    std::function<Result<accel::Accelerator*>(const TableInfo&)>;

/// max_rejects value meaning "never abort on bad records".
inline constexpr size_t kUnlimitedRejects = static_cast<size_t>(-1);

/// Live commit progress, updated by the commit stage after every durable
/// commit. Pass one via LoadOptions::progress to observe how far a load
/// got even when it ultimately fails — `batches_committed` is the resume
/// token for the re-run. Must outlive the Load() call.
struct LoadProgress {
  std::atomic<uint64_t> batches_committed{0};
  std::atomic<uint64_t> rows_committed{0};
};

struct LoadOptions {
  /// Records per batch (chunking is by record count, including records
  /// that end up rejected, so batch boundaries are stable across re-runs).
  size_t batch_size = 1024;
  /// Commit after every batch (the loader's normal restartable mode);
  /// false = one all-or-nothing transaction for the whole load.
  bool commit_per_batch = true;
  /// Parse/convert workers (>= 1; 0 is rejected as InvalidArgument).
  size_t num_workers = 4;
  /// Bound on queued record chunks and on parsed batches awaiting commit.
  size_t queue_depth = 8;
  /// Bad-record budget: malformed records (parse/convert/constraint
  /// errors) are diverted to the reject report instead of aborting, until
  /// more than max_rejects have accumulated. 0 = abort on the first bad
  /// record; kUnlimitedRejects = never abort.
  size_t max_rejects = 0;
  /// When non-empty, every rejected raw record is appended to this file as
  /// "<record-index>,<error>,<raw record>" CSV lines.
  std::string reject_file;
  /// Number of batches a previous (failed) restartable run already
  /// committed: the commit stage skips them, so the re-run loads each
  /// record exactly once. Take it from LoadProgress::batches_committed or
  /// LoadReport::resume_token. Only valid with commit_per_batch.
  size_t resume_token = 0;
  /// Backoff schedule for retryable failures on channel / accelerator
  /// crossings (fault-injector integration; terminal errors still abort).
  RetryPolicy retry;
  /// Optional live progress sink (see LoadProgress).
  LoadProgress* progress = nullptr;
  /// When set, the load records trace spans (read/parse/commit stages,
  /// per-batch applies, retries) under this context.
  TraceContext trace;
};

/// One diverted bad record.
struct RejectedRecord {
  uint64_t record_index = 0;  ///< 0-based ordinal in the input stream
  std::string error;
  std::string raw;  ///< raw record text (empty for typed sources)
};

struct LoadReport {
  size_t rows_loaded = 0;
  size_t batches = 0;  ///< batches applied by this run
  size_t bytes = 0;
  size_t rows_rejected = 0;
  size_t batches_skipped = 0;  ///< already committed before resume_token
  /// Resume token after this run: total batches durably committed in
  /// input order (pass as LoadOptions::resume_token to continue).
  size_t resume_token = 0;
  /// High-water mark of batches queued in the pipeline (backpressure
  /// bound: never exceeds LoadOptions::queue_depth).
  size_t peak_queued_batches = 0;
  size_t workers = 0;
  uint64_t retries = 0;
  uint64_t duration_us = 0;
  bool direct = false;    ///< direct-to-accelerator vs via-DB2
  bool columnar = false;  ///< committed via the columnar fast path
  /// First few rejected records (full reject stream goes to reject_file).
  std::vector<RejectedRecord> reject_samples;

  double RowsPerSec() const {
    return duration_us > 0 ? rows_loaded / (duration_us / 1e6) : 0.0;
  }

  /// EXPLAIN-style load report: mode, stage configuration, throughput,
  /// queue high-water mark, reject and retry accounting.
  std::string Render() const;
};

class IdaaLoader {
 public:
  IdaaLoader(Catalog* catalog, db2::Db2Engine* db2,
             AcceleratorResolver resolver,
             federation::TransferChannel* channel, TransactionManager* tm,
             MetricsRegistry* metrics)
      : catalog_(catalog), db2_(db2), resolver_(std::move(resolver)),
        channel_(channel), tm_(tm), metrics_(metrics) {}

  /// Load the full source into `table_name`. AOTs take the direct
  /// to-accelerator path; DB2-resident tables go through the DB2 engine
  /// (accelerated tables additionally re-replicate — the expensive legacy
  /// route the benchmarks compare against). Thread-safe: concurrent loads
  /// into distinct tables run independent pipelines.
  Result<LoadReport> Load(const std::string& table_name, RecordSource* source,
                          const LoadOptions& options = {});

 private:
  Result<LoadReport> LoadPipelined(const TableInfo& info, RecordSource* source,
                                   const LoadOptions& options);

  Catalog* catalog_;
  db2::Db2Engine* db2_;
  AcceleratorResolver resolver_;
  federation::TransferChannel* channel_;
  TransactionManager* tm_;
  MetricsRegistry* metrics_;
};

}  // namespace idaa::loader
