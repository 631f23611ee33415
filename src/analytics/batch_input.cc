#include "analytics/batch_input.h"

#include <algorithm>

#include "analytics/operator.h"

namespace idaa::analytics {

namespace {

/// Numeric view of a raw column element, matching Value::ToDouble for the
/// int-backed types (INTEGER/DATE/TIMESTAMP/BOOLEAN as int64).
inline double RawNumeric(const accel::Column& col, size_t i) {
  return col.type() == DataType::kDouble
             ? col.RawDouble(i)
             : static_cast<double>(col.RawInt(i));
}

}  // namespace

AnalyticsInput::AnalyticsInput(const accel::ColumnTable* table,
                               const TransactionManager* tm, TxnId reader,
                               Csn snapshot, ThreadPool* pool)
    : table_(table), tm_(tm), reader_(reader), snapshot_(snapshot),
      pool_(pool), pin_(table->PinForScan()),
      morsels_(table->PlanMorsels(table->options().morsel_size)) {
  // Analytics inputs carry no predicate: the empty conjunction per slice.
  per_slice_.reserve(table_->num_slices());
  for (size_t s = 0; s < table_->num_slices(); ++s) {
    per_slice_.push_back(table_->CompilePredicateForSlice(s, {}));
  }
}

accel::BatchScanStats AnalyticsInput::Scan(const BatchFn& fn, TraceContext tc,
                                           const std::string& stage) const {
  TraceSpan span(tc, stage);
  const size_t num_workers =
      std::max<size_t>(1, std::min(pool_ != nullptr ? pool_->num_threads() : 1,
                                   std::max<size_t>(morsels_.size(), 1)));
  struct Worker {
    TransactionManager::VisibilityChecker visibility;
    std::vector<uint32_t> sel;
    accel::BatchScanStats stats;
  };
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(Worker{
        TransactionManager::VisibilityChecker(tm_, reader_, snapshot_),
        {},
        {}});
  }

  static const std::vector<accel::ColumnRange> kNoRanges;
  auto run = [&](size_t w, size_t mi) {
    Worker& wk = workers[w];
    const accel::Morsel& m = morsels_[mi];
    const accel::BatchScanStats before = wk.stats;
    TraceSpan morsel_span(span.context(), stage + ".morsel");
    table_->ScanMorsel(m, kNoRanges, &per_slice_[m.slice], wk.visibility,
                       &wk.sel, &wk.stats,
                       [&](const accel::ColumnBatch& batch) {
                         fn(w, mi, batch);
                       });
    morsel_span.Attr("slice", static_cast<uint64_t>(m.slice));
    morsel_span.Attr("rows_scanned", static_cast<uint64_t>(
                                         wk.stats.rows_scanned -
                                         before.rows_scanned));
  };
  if (pool_ != nullptr && morsels_.size() > 1) {
    pool_->ParallelForDynamic(morsels_.size(), num_workers, run);
  } else {
    for (size_t mi = 0; mi < morsels_.size(); ++mi) run(0, mi);
  }

  accel::BatchScanStats total;
  for (const Worker& wk : workers) total.Merge(wk.stats);
  span.Attr("batch_path", "true");
  span.Attr("morsels", static_cast<uint64_t>(total.morsels));
  span.Attr("rows_selected", static_cast<uint64_t>(total.rows_selected));
  span.Attr("partial_merges", static_cast<uint64_t>(morsels_.size()));
  return total;
}

std::vector<Row> AnalyticsInput::GatherRows(TraceContext tc) const {
  const size_t width = schema().NumColumns();
  std::vector<std::vector<Row>> morsel_rows(morsels_.size());
  accel::BatchScanStats total = Scan(
      [&](size_t, size_t mi, const accel::ColumnBatch& batch) {
        std::vector<Row>& rows = morsel_rows[mi];
        rows.reserve(batch.sel_count);
        for (size_t k = 0; k < batch.sel_count; ++k) {
          const size_t i = batch.AbsoluteRow(k);
          Row row(width);
          for (size_t c = 0; c < width; ++c) {
            row[c] = (*batch.columns)[c]->Get(i);
          }
          rows.push_back(std::move(row));
        }
      },
      tc, "analytics.gather");

  std::vector<Row> out;
  out.reserve(total.rows_selected);
  for (std::vector<Row>& rows : morsel_rows) {
    for (Row& row : rows) out.push_back(std::move(row));
  }
  return out;
}

Result<accel::ColumnarRows> AnalyticsInput::GatherColumnar(
    TraceContext tc) const {
  const Schema& s = schema();
  const size_t width = s.NumColumns();
  for (size_t c = 0; c < width; ++c) {
    DataType t = s.Column(c).type;
    if (t != DataType::kDouble && t != DataType::kInteger &&
        t != DataType::kVarchar) {
      return Status::NotSupported("column " + s.Column(c).name +
                                  " has no columnar gather representation");
    }
  }

  std::vector<accel::ColumnarRows> partials(morsels_.size());
  Scan(
      [&](size_t, size_t mi, const accel::ColumnBatch& batch) {
        accel::ColumnarRows& part = partials[mi];
        if (part.columns.empty()) part.columns.resize(width);
        part.num_rows += batch.sel_count;
        for (size_t c = 0; c < width; ++c) {
          const accel::Column& col = *(*batch.columns)[c];
          accel::ColumnarRows::Col& dst = part.columns[c];
          for (size_t k = 0; k < batch.sel_count; ++k) {
            const size_t i = batch.AbsoluteRow(k);
            const bool is_null = col.IsNull(i);
            dst.nulls.push_back(is_null ? 1 : 0);
            switch (col.type()) {
              case DataType::kDouble:
                dst.doubles.push_back(is_null ? 0.0 : col.RawDouble(i));
                break;
              case DataType::kInteger:
                dst.ints.push_back(is_null ? 0 : col.RawInt(i));
                break;
              default:
                dst.strings.push_back(is_null ? std::string()
                                              : col.DictEntry(col.RawCode(i)));
            }
          }
        }
      },
      tc, "analytics.gather");

  accel::ColumnarRows out;
  out.columns.resize(width);
  size_t total = 0;
  for (const accel::ColumnarRows& part : partials) total += part.num_rows;
  out.num_rows = total;
  for (size_t c = 0; c < width; ++c) {
    accel::ColumnarRows::Col& dst = out.columns[c];
    dst.nulls.reserve(total);
    switch (s.Column(c).type) {
      case DataType::kDouble:
        dst.doubles.reserve(total);
        break;
      case DataType::kInteger:
        dst.ints.reserve(total);
        break;
      default:
        dst.strings.reserve(total);
    }
  }
  for (accel::ColumnarRows& part : partials) {
    if (part.columns.empty()) continue;
    for (size_t c = 0; c < width; ++c) {
      accel::ColumnarRows::Col& src = part.columns[c];
      accel::ColumnarRows::Col& dst = out.columns[c];
      dst.nulls.insert(dst.nulls.end(), src.nulls.begin(), src.nulls.end());
      dst.doubles.insert(dst.doubles.end(), src.doubles.begin(),
                         src.doubles.end());
      dst.ints.insert(dst.ints.end(), src.ints.begin(), src.ints.end());
      dst.strings.insert(dst.strings.end(),
                         std::make_move_iterator(src.strings.begin()),
                         std::make_move_iterator(src.strings.end()));
    }
  }
  return out;
}

Result<std::vector<std::vector<double>>> AnalyticsInput::ExtractFeatures(
    const std::vector<size_t>& columns, TraceContext tc, size_t* total_rows,
    size_t* skipped_rows) const {
  IDAA_RETURN_IF_ERROR(CheckNumericColumns(schema(), columns));
  struct Partial {
    std::vector<std::vector<double>> features;
    size_t rows = 0;
  };
  std::vector<Partial> partials(morsels_.size());
  Scan(
      [&](size_t, size_t mi, const accel::ColumnBatch& batch) {
        Partial& part = partials[mi];
        part.features.reserve(batch.sel_count);
        for (size_t k = 0; k < batch.sel_count; ++k) {
          const size_t i = batch.AbsoluteRow(k);
          ++part.rows;
          std::vector<double> feature;
          feature.reserve(columns.size());
          bool skip = false;
          for (size_t c : columns) {
            const accel::Column& col = *(*batch.columns)[c];
            if (col.IsNull(i)) {
              skip = true;
              break;
            }
            feature.push_back(RawNumeric(col, i));
          }
          if (!skip) part.features.push_back(std::move(feature));
        }
      },
      tc, "analytics.extract");

  std::vector<std::vector<double>> features;
  size_t total = 0;
  for (Partial& part : partials) total += part.rows;
  features.reserve(total);
  for (Partial& part : partials) {
    for (auto& f : part.features) features.push_back(std::move(f));
  }
  if (total_rows != nullptr) *total_rows = total;
  if (skipped_rows != nullptr) *skipped_rows = total - features.size();
  return features;
}

Result<AnalyticsInput::LabeledFeatures>
AnalyticsInput::ExtractLabeledFeatures(const std::vector<size_t>& feature_cols,
                                       size_t label_col,
                                       TraceContext tc) const {
  IDAA_RETURN_IF_ERROR(CheckNumericColumns(schema(), feature_cols));
  struct Partial {
    std::vector<std::vector<double>> features;
    std::vector<Value> labels;
    size_t rows = 0;
  };
  std::vector<Partial> partials(morsels_.size());
  Scan(
      [&](size_t, size_t mi, const accel::ColumnBatch& batch) {
        Partial& part = partials[mi];
        const accel::Column& label = *(*batch.columns)[label_col];
        for (size_t k = 0; k < batch.sel_count; ++k) {
          const size_t i = batch.AbsoluteRow(k);
          ++part.rows;
          if (label.IsNull(i)) continue;
          std::vector<double> feature;
          feature.reserve(feature_cols.size());
          bool skip = false;
          for (size_t c : feature_cols) {
            const accel::Column& col = *(*batch.columns)[c];
            if (col.IsNull(i)) {
              skip = true;
              break;
            }
            feature.push_back(RawNumeric(col, i));
          }
          if (skip) continue;
          part.features.push_back(std::move(feature));
          part.labels.push_back(label.Get(i));
        }
      },
      tc, "analytics.extract");

  LabeledFeatures out;
  for (Partial& part : partials) out.total_rows += part.rows;
  out.features.reserve(out.total_rows);
  out.labels.reserve(out.total_rows);
  for (Partial& part : partials) {
    for (auto& f : part.features) out.features.push_back(std::move(f));
    for (auto& l : part.labels) out.labels.push_back(std::move(l));
  }
  out.skipped_rows = out.total_rows - out.features.size();
  return out;
}

// ---- AnalyticsContext glue (lives here so operator.cc stays free of the
// batch machinery) ----------------------------------------------------------

Result<std::unique_ptr<AnalyticsInput>> AnalyticsContext::OpenInput(
    const std::string& name) {
  IDAA_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->GetTable(name));
  if (info->kind == TableKind::kDb2Only) {
    return Status::InvalidArgument(
        "table " + info->name +
        " is not on the accelerator; add it with ACCEL_ADD_TABLES first");
  }
  IDAA_ASSIGN_OR_RETURN(const accel::ColumnTable* table,
                        static_cast<const accel::Accelerator*>(accelerator_)
                            ->GetTable(info->name));
  return std::make_unique<AnalyticsInput>(table, tm_, txn_->id(),
                                          txn_->snapshot_csn(),
                                          accelerator_->thread_pool());
}

}  // namespace idaa::analytics
