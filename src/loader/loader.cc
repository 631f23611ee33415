#include "loader/loader.h"

#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "loader/load_pipeline.h"

namespace idaa::loader {

namespace {

constexpr size_t kMaxRejectSamples = 16;

bool ColumnarCapable(const Schema& schema) {
  for (const ColumnDef& col : schema.columns()) {
    if (col.type != DataType::kInteger && col.type != DataType::kDouble &&
        col.type != DataType::kVarchar) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string LoadReport::Render() const {
  std::ostringstream os;
  os << "LOAD REPORT\n";
  os << "  mode: "
     << (direct ? (columnar ? "direct-to-accelerator (columnar)"
                            : "direct-to-accelerator (row)")
                : "via-DB2")
     << "\n";
  os << "  pipeline: " << workers << " workers\n";
  os << "  rows: " << rows_loaded << " loaded, " << rows_rejected
     << " rejected, " << bytes << " bytes\n";
  os << "  batches: " << batches << " applied";
  if (batches_skipped > 0) {
    os << ", " << batches_skipped << " skipped (resume)";
  }
  os << ", resume_token=" << resume_token << "\n";
  os << "  peak queued batches: " << peak_queued_batches << "\n";
  os << "  retries: " << retries << "\n";
  os << "  duration: " << duration_us << "us ("
     << static_cast<uint64_t>(RowsPerSec()) << " rows/s)\n";
  for (const RejectedRecord& r : reject_samples) {
    os << "  reject record " << r.record_index << ": " << r.error << "\n";
  }
  return os.str();
}

Result<LoadReport> IdaaLoader::LoadPipelined(const TableInfo& info,
                                             RecordSource* source,
                                             const LoadOptions& options) {
  LoadReport report;
  report.workers = options.num_workers;
  report.direct = info.kind == TableKind::kAcceleratorOnly;
  report.resume_token = options.resume_token;

  accel::Accelerator* accelerator = nullptr;
  if (report.direct) {
    IDAA_ASSIGN_OR_RETURN(accelerator, resolver_(info));
  }
  // The columnar wire + InsertColumnar fast path covers exactly the types
  // ColumnarRows can stage; anything else ships as rows.
  report.columnar = report.direct && ColumnarCapable(info.schema);

  std::ofstream reject_out;
  if (!options.reject_file.empty()) {
    reject_out.open(options.reject_file, std::ios::trunc);
    if (!reject_out.is_open()) {
      return Status::IoError("cannot open reject file: " +
                             options.reject_file);
    }
  }

  Transaction* txn = tm_->Begin();
  size_t rejects_total = 0;
  std::string first_reject_error;

  auto commit = [&](ParsedBatch&& batch) -> Status {
    TraceSpan span(options.trace, "load.batch");
    span.Attr("seq", batch.seq);

    // Reject accounting runs before the resume-skip check and strictly in
    // batch order, so the reject budget trips at the same record for every
    // worker count and on every re-run.
    for (RejectedRecord& reject : batch.rejects) {
      ++rejects_total;
      if (first_reject_error.empty()) first_reject_error = reject.error;
      if (reject_out.is_open()) {
        reject_out << FormatCsvLine({std::to_string(reject.record_index),
                                     reject.error, reject.raw})
                   << "\n";
      }
      if (report.reject_samples.size() < kMaxRejectSamples) {
        report.reject_samples.push_back(std::move(reject));
      }
    }
    if (!batch.rejects.empty()) {
      metrics_->Add(metric::kLoaderRowsRejected, batch.rejects.size());
    }
    if (options.max_rejects != kUnlimitedRejects &&
        rejects_total > options.max_rejects) {
      return Status::InvalidArgument(
          "load aborted: " + std::to_string(rejects_total) +
          " records rejected (max_rejects=" +
          std::to_string(options.max_rejects) +
          "); first error: " + first_reject_error);
    }

    if (batch.seq < options.resume_token) {
      // A previous restartable run already committed this batch.
      ++report.batches_skipped;
      span.Attr("skipped", std::string("resume"));
      return Status::OK();
    }

    const size_t num_rows =
        batch.use_columnar ? batch.columnar.num_rows : batch.rows.size();
    if (num_rows > 0) {
      if (report.direct) {
        RetryOutcome outcome = RetryWithBackoff(
            options.retry, span.context(), [&]() -> Status {
              // Accelerator entry points validate readiness before any
              // apply, so a failed attempt left no partial state and the
              // whole ship+load is safe to retry.
              if (batch.use_columnar) {
                auto shipped = channel_->SendColumnarToAccelerator(
                    batch.columnar, info.schema, span.context());
                if (!shipped.ok()) return shipped.status();
                return accelerator->LoadColumnar(info.name, *shipped,
                                                 txn->id());
              }
              auto shipped = channel_->SendRowsToAccelerator(batch.rows,
                                                             span.context());
              if (!shipped.ok()) return shipped.status();
              return accelerator->LoadRows(info.name, *shipped, txn->id());
            });
        if (outcome.retries > 0) {
          report.retries += outcome.retries;
          metrics_->Add(metric::kLoaderRetries, outcome.retries);
        }
        IDAA_RETURN_IF_ERROR(outcome.status);
      } else {
        IDAA_ASSIGN_OR_RETURN(size_t inserted,
                              db2_->InsertRows(info, std::move(batch.rows),
                                               txn));
        (void)inserted;
      }
    }

    report.rows_loaded += num_rows;
    report.bytes += batch.bytes;
    ++report.batches;
    span.Attr("rows", num_rows);
    metrics_->Add(metric::kLoaderRowsIngested, num_rows);
    if (options.commit_per_batch) {
      IDAA_RETURN_IF_ERROR(tm_->Commit(txn));
      db2_->lock_manager().ReleaseAll(txn->id());
      metrics_->Increment(metric::kLoaderBatchesCommitted);
      txn = tm_->Begin();
      report.resume_token = batch.seq + 1;
      if (options.progress != nullptr) {
        options.progress->batches_committed.store(report.resume_token,
                                                  std::memory_order_relaxed);
        options.progress->rows_committed.fetch_add(num_rows,
                                                   std::memory_order_relaxed);
      }
    }
    return Status::OK();
  };

  PipelineStats stats;
  Status pipeline_status = RunLoadPipeline(
      source, info.schema, report.columnar, options, commit, &stats);
  report.peak_queued_batches = stats.peak_queued_batches;
  report.rows_rejected = rejects_total;

  if (!pipeline_status.ok()) {
    (void)tm_->Abort(txn);
    db2_->lock_manager().ReleaseAll(txn->id());
    return pipeline_status;
  }
  IDAA_RETURN_IF_ERROR(tm_->Commit(txn));
  db2_->lock_manager().ReleaseAll(txn->id());
  if (!options.commit_per_batch) {
    metrics_->Increment(metric::kLoaderBatchesCommitted);
    if (options.progress != nullptr) {
      options.progress->rows_committed.fetch_add(report.rows_loaded,
                                                 std::memory_order_relaxed);
    }
  }
  metrics_->Add(metric::kLoaderBytesIngested, report.bytes);
  return report;
}

Result<LoadReport> IdaaLoader::Load(const std::string& table_name,
                                    RecordSource* source,
                                    const LoadOptions& options) {
  IDAA_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->GetTable(table_name));
  if (options.resume_token > 0 && !options.commit_per_batch) {
    return Status::InvalidArgument(
        "resume_token requires commit_per_batch (atomic loads are "
        "all-or-nothing)");
  }
  if (options.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }

  TraceSpan load_span(options.trace, "load");
  load_span.Attr("table", info->name);
  LoadOptions opts = options;
  opts.trace = load_span.context();

  const uint64_t start_ns = TraceNowNs();
  Result<LoadReport> result = LoadPipelined(*info, source, opts);
  if (!result.ok()) return result.status();
  result->duration_us = (TraceNowNs() - start_ns) / 1000;
  load_span.Attr("rows", result->rows_loaded);
  load_span.Attr("batches", result->batches);
  if (result->rows_rejected > 0) {
    load_span.Attr("rejects", result->rows_rejected);
  }
  return result;
}

}  // namespace idaa::loader
