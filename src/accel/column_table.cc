#include "accel/column_table.h"

#include <algorithm>
#include <string_view>

#include "sql/expression_eval.h"

namespace idaa::accel {

using sql::BoundExpr;
using sql::EvalExpr;
using sql::EvalPredicate;

ColumnTable::Slice::Slice(const Schema& schema, size_t zone_size)
    : zone_map(schema.NumColumns(), zone_size) {
  columns.reserve(schema.NumColumns());
  for (const auto& col : schema.columns()) {
    columns.push_back(std::make_unique<Column>(col.type));
  }
}

void ColumnTable::Slice::Reserve(size_t n) {
  for (auto& col : columns) col->Reserve(n);
  createxid.reserve(n);
  deletexid.reserve(n);
}

Status ColumnTable::Slice::Append(const Row& row, TxnId txn) {
  size_t row_index = NumRows();
  for (size_t c = 0; c < columns.size(); ++c) {
    IDAA_RETURN_IF_ERROR(columns[c]->Append(row[c]));
    zone_map.Observe(row_index, c, row[c]);
  }
  createxid.push_back(txn);
  deletexid.push_back(kInvalidTxnId);
  return Status::OK();
}

Row ColumnTable::Slice::MaterializeRow(size_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const auto& col : columns) row.push_back(col->Get(i));
  return row;
}

ColumnTable::ColumnTable(Schema schema,
                         std::optional<size_t> distribution_column,
                         const AcceleratorOptions& options)
    : schema_(std::move(schema)),
      distribution_column_(distribution_column),
      options_(options),
      encoding_enabled_(options.enable_encoding) {
  slices_.reserve(options_.num_slices);
  for (size_t i = 0; i < options_.num_slices; ++i) {
    slices_.emplace_back(schema_, options_.zone_size);
  }
}

size_t ColumnTable::SliceFor(const Row& row) {
  if (distribution_column_) {
    return row[*distribution_column_].Hash() % slices_.size();
  }
  return round_robin_next_++ % slices_.size();
}

Status ColumnTable::Insert(const std::vector<Row>& rows, TxnId txn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (rows.size() > 1) {
    // Bulk ingest (loader / replication apply): pre-size every slice for
    // its share so per-row appends stop reallocating. Hashed distribution
    // is roughly uniform; round-robin exactly so.
    size_t per_slice = rows.size() / slices_.size() + 1;
    for (Slice& slice : slices_) slice.Reserve(slice.NumRows() + per_slice);
  }
  for (const Row& row : rows) {
    IDAA_ASSIGN_OR_RETURN(Row coerced, CoerceRowToSchema(row, schema_));
    IDAA_RETURN_IF_ERROR(schema_.ValidateRow(coerced));
    IDAA_RETURN_IF_ERROR(slices_[SliceFor(coerced)].Append(coerced, txn));
  }
  return Status::OK();
}

namespace {

/// Append one staged column's cells (the ascending staging rows in `sel`)
/// to `dst`, observing zone stats one zone-sized run at a time. The run
/// extrema are tracked on the raw typed values; the resulting zone stats
/// are identical to per-cell ZoneMap::Observe.
template <typename T, typename GetCell, typename AppendCell, typename Box>
void AppendColumnRuns(const std::vector<uint32_t>& sel, size_t base,
                      size_t zone_size, size_t column, ZoneMap& zone_map,
                      const ColumnarRows::Col& col, Column& dst,
                      const GetCell& get, const AppendCell& append,
                      const Box& box) {
  const bool has_nulls = !col.nulls.empty();
  size_t k = 0;
  while (k < sel.size()) {
    const size_t abs = base + k;  // slice row index of the run's first row
    const size_t seg = std::min(sel.size() - k, zone_size - abs % zone_size);
    T lo{}, hi{};
    bool any = false, null_seen = false;
    for (size_t j = k; j < k + seg; ++j) {
      const uint32_t r = sel[j];
      if (has_nulls && col.nulls[r] != 0) {
        dst.AppendRawNull();
        null_seen = true;
        continue;
      }
      T v = get(col, r);
      append(dst, v);
      if (!any) {
        lo = hi = v;
        any = true;
      } else if (v < lo) {
        lo = v;
      } else if (hi < v) {
        hi = v;
      }
    }
    zone_map.ObserveRun(abs, column, seg, any ? box(lo) : Value::Null(),
                        any ? box(hi) : Value::Null(), null_seen);
    k += seg;
  }
}

}  // namespace

Status ColumnTable::InsertColumnar(std::span<const ColumnarRows> batches,
                                   TxnId txn) {
  // Validate every staged batch up front so the loop below cannot fail
  // mid-append: a failed statement appends nothing.
  for (const ColumnarRows& data : batches) {
    IDAA_RETURN_IF_ERROR(ValidateColumnar(schema_, data));
  }
  auto cell_is_null = [](const ColumnarRows::Col& col, size_t r) {
    return !col.nulls.empty() && col.nulls[r] != 0;
  };

  std::unique_lock<std::shared_mutex> lock(mu_);
  // Scatter order replicates row-at-a-time SliceFor exactly: every row's
  // target slice is fixed up front (same round-robin / hash sequence over
  // the batches in order), then each slice's rows are appended in
  // ascending staging order — their arrival order — column by column, so
  // the stored state is identical to inserting the same rows via Insert().
  // The column-by-column walk lets zone-map maintenance fold into one
  // ObserveRun per zone-sized run instead of one Value-boxed Observe per
  // cell.
  std::vector<std::vector<uint32_t>> slice_of(batches.size());
  std::vector<size_t> slice_rows(slices_.size(), 0);
  for (size_t b = 0; b < batches.size(); ++b) {
    const ColumnarRows& data = batches[b];
    slice_of[b].resize(data.num_rows);
    for (size_t r = 0; r < data.num_rows; ++r) {
      const size_t s =
          distribution_column_
              ? ColumnarCell(data.columns[*distribution_column_],
                             schema_.Column(*distribution_column_).type, r)
                        .Hash() %
                    slices_.size()
              : round_robin_next_++ % slices_.size();
      slice_of[b][r] = static_cast<uint32_t>(s);
      ++slice_rows[s];
    }
  }
  std::vector<uint32_t> sel;
  for (size_t s = 0; s < slices_.size(); ++s) {
    if (slice_rows[s] == 0) continue;
    Slice& slice = slices_[s];
    slice.Reserve(slice.NumRows() + slice_rows[s]);
    const size_t zone_size = slice.zone_map.zone_size();
    for (size_t b = 0; b < batches.size(); ++b) {
      const ColumnarRows& data = batches[b];
      sel.clear();
      for (size_t r = 0; r < data.num_rows; ++r) {
        if (slice_of[b][r] == s) sel.push_back(static_cast<uint32_t>(r));
      }
      if (sel.empty()) continue;
      const size_t base = slice.NumRows();
      for (size_t c = 0; c < data.columns.size(); ++c) {
        const ColumnarRows::Col& col = data.columns[c];
        Column& dst = *slice.columns[c];
        switch (dst.type()) {
          case DataType::kDouble:
            AppendColumnRuns<double>(
                sel, base, zone_size, c, slice.zone_map, col, dst,
                [](const ColumnarRows::Col& sc, uint32_t r) {
                  return sc.doubles[r];
                },
                [](Column& d, double v) { d.AppendRawDouble(v); },
                [](double v) { return Value::Double(v); });
            break;
          case DataType::kVarchar: {
            // Dictionary-encoded strings: track run extrema by reference
            // against the staged vector (no per-cell Value boxing), then
            // fold zone-map maintenance into one ObserveRun per zone-sized
            // run — two boxed extrema per run instead of one per cell.
            // Final zone stats are identical to per-cell Observe.
            size_t k = 0;
            while (k < sel.size()) {
              const size_t abs = base + k;
              const size_t seg =
                  std::min(sel.size() - k, zone_size - abs % zone_size);
              const std::string* lo = nullptr;
              const std::string* hi = nullptr;
              bool null_seen = false;
              for (size_t j = k; j < k + seg; ++j) {
                const uint32_t r = sel[j];
                if (cell_is_null(col, r)) {
                  dst.AppendRawNull();
                  null_seen = true;
                  continue;
                }
                const std::string& v = col.strings[r];
                dst.AppendRawVarchar(v);
                if (lo == nullptr) {
                  lo = hi = &v;
                } else if (v < *lo) {
                  lo = &v;
                } else if (*hi < v) {
                  hi = &v;
                }
              }
              slice.zone_map.ObserveRun(
                  abs, c, seg,
                  lo != nullptr ? Value::Varchar(*lo) : Value::Null(),
                  hi != nullptr ? Value::Varchar(*hi) : Value::Null(),
                  null_seen);
              k += seg;
            }
            break;
          }
          default: {
            // INTEGER/DATE/TIMESTAMP/BOOLEAN share the int64 storage; the
            // zone-map extrema are boxed in the column's own type.
            const DataType type = dst.type();
            AppendColumnRuns<int64_t>(
                sel, base, zone_size, c, slice.zone_map, col, dst,
                [](const ColumnarRows::Col& sc, uint32_t r) {
                  return sc.ints[r];
                },
                [](Column& d, int64_t v) { d.AppendRawInt(v); },
                [type](int64_t v) { return IntCellValue(type, v); });
          }
        }
      }
      for (size_t j = 0; j < sel.size(); ++j) {
        slice.createxid.push_back(txn);
        slice.deletexid.push_back(kInvalidTxnId);
      }
    }
  }
  return Status::OK();
}

Result<size_t> ColumnTable::DeleteWhere(const BoundExpr* predicate, TxnId txn,
                                        Csn snapshot,
                                        const TransactionManager& tm) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t deleted = 0;
  for (Slice& slice : slices_) {
    for (size_t i = 0; i < slice.NumRows(); ++i) {
      if (!tm.IsVisible(slice.createxid[i], slice.deletexid[i], txn, snapshot)) {
        continue;
      }
      if (predicate != nullptr) {
        Row row = slice.MaterializeRow(i);
        IDAA_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate, row));
        if (!pass) continue;
      }
      // First-writer-wins conflict detection against concurrent deleters.
      TxnId current = slice.deletexid[i];
      if (current != kInvalidTxnId && current != txn) {
        TxnState state = tm.StateOf(current);
        if (state == TxnState::kActive) {
          return Status::Conflict(
              "row is being deleted by a concurrent transaction");
        }
        if (state == TxnState::kCommitted) {
          // Deleted by a transaction that committed after our snapshot
          // (otherwise the row would have been invisible): WW conflict.
          return Status::Conflict(
              "row was deleted by a newer committed transaction");
        }
        // Aborted deleter: its mark is void, we may take over.
      }
      slice.deletexid[i] = txn;
      ++deleted;
    }
  }
  return deleted;
}

Result<bool> ColumnTable::DeleteOneMatching(const Row& image, TxnId txn,
                                            Csn snapshot,
                                            const TransactionManager& tm) {
  IDAA_ASSIGN_OR_RETURN(Row coerced, CoerceRowToSchema(image, schema_));
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (Slice& slice : slices_) {
    for (size_t i = 0; i < slice.NumRows(); ++i) {
      if (!tm.IsVisible(slice.createxid[i], slice.deletexid[i], txn, snapshot)) {
        continue;
      }
      if (slice.MaterializeRow(i) != coerced) continue;
      TxnId current = slice.deletexid[i];
      if (current != kInvalidTxnId && current != txn &&
          tm.StateOf(current) != TxnState::kAborted) {
        continue;  // claimed by someone else; try another identical row
      }
      slice.deletexid[i] = txn;
      return true;
    }
  }
  return false;
}

Result<size_t> ColumnTable::UpdateWhere(
    const std::vector<std::pair<size_t, const BoundExpr*>>& assignments,
    const BoundExpr* predicate, TxnId txn, Csn snapshot,
    const TransactionManager& tm) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Collect new versions first, then delete+append (update = delete+insert,
  // the Netezza model; the new version may hash to a different slice).
  struct Pending {
    Slice* slice;
    size_t row_index;
    Row new_row;
  };
  std::vector<Pending> pending;
  for (Slice& slice : slices_) {
    for (size_t i = 0; i < slice.NumRows(); ++i) {
      if (!tm.IsVisible(slice.createxid[i], slice.deletexid[i], txn, snapshot)) {
        continue;
      }
      Row row = slice.MaterializeRow(i);
      if (predicate != nullptr) {
        IDAA_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate, row));
        if (!pass) continue;
      }
      TxnId current = slice.deletexid[i];
      if (current != kInvalidTxnId && current != txn) {
        TxnState state = tm.StateOf(current);
        if (state == TxnState::kActive || state == TxnState::kCommitted) {
          return Status::Conflict("update conflicts with concurrent delete");
        }
      }
      Row new_row = row;
      for (const auto& [col, expr] : assignments) {
        IDAA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, row));
        if (!v.is_null() && !ValueMatchesType(v, schema_.Column(col).type)) {
          IDAA_ASSIGN_OR_RETURN(v, v.CastTo(schema_.Column(col).type));
        }
        new_row[col] = std::move(v);
      }
      IDAA_RETURN_IF_ERROR(schema_.ValidateRow(new_row));
      pending.push_back({&slice, i, std::move(new_row)});
    }
  }
  for (Pending& p : pending) {
    p.slice->deletexid[p.row_index] = txn;
    IDAA_RETURN_IF_ERROR(slices_[SliceFor(p.new_row)].Append(p.new_row, txn));
  }
  return pending.size();
}

Result<size_t> ColumnTable::CountVisible(TxnId reader, Csn snapshot,
                                         const TransactionManager& tm) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  TransactionManager::VisibilityChecker visibility(&tm, reader, snapshot);
  size_t count = 0;
  for (const Slice& slice : slices_) {
    for (size_t i = 0; i < slice.NumRows(); ++i) {
      if (visibility.IsVisible(slice.createxid[i], slice.deletexid[i])) {
        ++count;
      }
    }
  }
  return count;
}

namespace {

// Rebuild one column of a grooming slice: append the kept elements of
// `src` (decoding encoded source zones back to raw values) and feed the
// zone map one ObserveRun per zone-sized run, with extrema tracked on the
// PRE-ENCODING raw values. Boxing only the two extrema per run keeps the
// resulting zone stats identical to per-cell Observe while never letting
// an encoded representation (frame deltas, run indexes) leak into pruning
// bounds — sideways join Bloom ranges compare against these.
template <typename T, typename GetRaw, typename AppendCell, typename Box>
void RebuildColumnRuns(const Column& src, const std::vector<size_t>& keep,
                       size_t zone_size, size_t column, ZoneMap& zone_map,
                       Column& dst, const GetRaw& get, const AppendCell& append,
                       const Box& box) {
  size_t k = 0;
  while (k < keep.size()) {
    const size_t seg = std::min(keep.size() - k, zone_size - k % zone_size);
    T lo{}, hi{};
    bool any = false, null_seen = false;
    for (size_t j = k; j < k + seg; ++j) {
      const size_t i = keep[j];
      if (src.IsNull(i)) {
        dst.AppendRawNull();
        null_seen = true;
        continue;
      }
      T v = get(src, i);
      append(dst, v);
      if (!any) {
        lo = hi = v;
        any = true;
      } else if (v < lo) {
        lo = v;
      } else if (hi < v) {
        hi = v;
      }
    }
    zone_map.ObserveRun(k, column, seg, any ? box(lo) : Value::Null(),
                        any ? box(hi) : Value::Null(), null_seen);
    k += seg;
  }
}

}  // namespace

GroomStats ColumnTable::Groom(Csn horizon, const TransactionManager& tm) {
  // Rebuilding a slice shifts row indexes, so wait out pinned scans first
  // (lock order: groom_mu_ then mu_, matching the scan paths). Compaction
  // into encoded zones also happens only here, under both locks held
  // exclusively: raw tail views and cursors held by scans never outlive
  // their pin.
  std::unique_lock<std::shared_mutex> groom_lock(groom_mu_);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const bool encode = encoding_enabled_.load(std::memory_order_relaxed);
  GroomStats stats;
  for (Slice& slice : slices_) {
    size_t n = slice.NumRows();
    stats.rows_examined += n;
    // Decide survivors.
    std::vector<size_t> keep;
    keep.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      TxnState created = tm.StateOf(slice.createxid[i]);
      if (created == TxnState::kAborted) continue;  // never existed
      TxnId dx = slice.deletexid[i];
      if (dx != kInvalidTxnId) {
        TxnState deleted = tm.StateOf(dx);
        if (deleted == TxnState::kAborted) {
          slice.deletexid[i] = kInvalidTxnId;  // clear void delete mark
        } else if (deleted == TxnState::kCommitted &&
                   tm.CommitCsnOf(dx) <= horizon) {
          continue;  // no active snapshot can still see it
        }
      }
      keep.push_back(i);
    }
    if (keep.size() < n) {
      stats.rows_reclaimed += n - keep.size();
      Slice rebuilt(schema_, options_.zone_size);
      rebuilt.Reserve(keep.size());
      for (size_t c = 0; c < slice.columns.size(); ++c) {
        const Column& src = *slice.columns[c];
        Column& dst = *rebuilt.columns[c];
        const DataType type = src.type();
        switch (type) {
          case DataType::kDouble:
            RebuildColumnRuns<double>(
                src, keep, options_.zone_size, c, rebuilt.zone_map, dst,
                [](const Column& s, size_t i) { return s.RawDouble(i); },
                [](Column& d, double v) { d.AppendRawDouble(v); },
                [](double v) { return Value::Double(v); });
            break;
          case DataType::kVarchar:
            // String extrema compare by content; values re-intern through
            // the rebuilt column's dictionary (dropping codes only dead
            // rows used).
            RebuildColumnRuns<std::string_view>(
                src, keep, options_.zone_size, c, rebuilt.zone_map, dst,
                [](const Column& s, size_t i) {
                  return std::string_view(s.DictEntry(s.RawCode(i)));
                },
                [](Column& d, std::string_view v) {
                  d.AppendRawVarchar(std::string(v));
                },
                [](std::string_view v) {
                  return Value::Varchar(std::string(v));
                });
            break;
          default:
            // Int-family storage; box extrema back to the schema type so
            // zone stats compare exactly as per-cell Observe did.
            RebuildColumnRuns<int64_t>(
                src, keep, options_.zone_size, c, rebuilt.zone_map, dst,
                [](const Column& s, size_t i) { return s.RawInt(i); },
                [](Column& d, int64_t v) { d.AppendRawInt(v); },
                [type](int64_t v) {
                  switch (type) {
                    case DataType::kBoolean:
                      return Value::Boolean(v != 0);
                    case DataType::kDate:
                      return Value::Date(static_cast<int32_t>(v));
                    case DataType::kTimestamp:
                      return Value::Timestamp(v);
                    default:
                      return Value::Integer(v);
                  }
                });
            break;
        }
      }
      for (size_t i : keep) {
        rebuilt.createxid.push_back(slice.createxid[i]);
        rebuilt.deletexid.push_back(slice.deletexid[i]);
      }
      slice = std::move(rebuilt);
    }
    if (encode) {
      // Fold every full zone of the (possibly just-rebuilt) slice into its
      // per-zone encoding; the partial zone at the end stays the hot tail.
      // All columns of a slice advance in lockstep, so count one column.
      bool first = true;
      for (auto& col : slice.columns) {
        const size_t before = col->encoded_zone_count();
        col->CompactZones(options_.zone_size);
        if (first) {
          stats.zones_compacted += col->encoded_zone_count() - before;
          first = false;
        }
      }
    }
  }
  if (stats.zones_compacted > 0 || stats.rows_reclaimed > 0) {
    compaction_epoch_.fetch_add(1, std::memory_order_release);
  }
  return stats;
}

TableEncodingStats ColumnTable::EncodingStats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  TableEncodingStats out;
  for (const Slice& slice : slices_) {
    size_t encoded = 0;
    for (const auto& col : slice.columns) {
      ColumnEncodingStats s = col->EncodingStats();
      encoded = s.encoded_rows;  // same for every column of the slice
      out.columns.Merge(s);
    }
    out.hot_rows += slice.NumRows() - encoded;
  }
  out.compaction_epoch = compaction_epoch_.load(std::memory_order_acquire);
  return out;
}

std::vector<Morsel> ColumnTable::PlanMorsels(size_t morsel_size) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const size_t zone = options_.zone_size;
  // Zone-align the morsel size so zone-map pruning stays whole-zone.
  const size_t step =
      std::max(zone, (std::max<size_t>(morsel_size, 1) + zone - 1) / zone * zone);
  std::vector<Morsel> morsels;
  for (size_t s = 0; s < slices_.size(); ++s) {
    const size_t n = slices_[s].NumRows();
    for (size_t b = 0; b < n; b += step) {
      morsels.push_back({s, b, std::min(b + step, n)});
    }
  }
  return morsels;
}

BatchPredicate ColumnTable::CompilePredicateForSlice(
    size_t slice_index, const std::vector<ColumnRange>& ranges) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CompileBatchPredicate(ranges, slices_[slice_index].columns);
}

std::vector<uint32_t> ColumnTable::MapDictionaryCodes(
    size_t slice_index, size_t column, const Column& target) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Column& col = *slices_[slice_index].columns[column];
  std::vector<uint32_t> map(col.DictSize(), 0);
  for (size_t code = 0; code < map.size(); ++code) {
    int64_t t = target.LookupCode(col.DictEntry(static_cast<uint32_t>(code)));
    if (t >= 0) map[code] = static_cast<uint32_t>(t) + 1;
  }
  return map;
}

void ColumnTable::ScanMorsel(const Morsel& morsel,
                             const std::vector<ColumnRange>& ranges,
                             const BatchPredicate* predicate,
                             const TransactionManager::VisibilityChecker& visibility,
                             std::vector<uint32_t>* sel, BatchScanStats* stats,
                             const BatchConsumer& consumer,
                             const ZoneFilter* zone_filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Slice& slice = slices_[morsel.slice];
  ++stats->morsels;
  sel->clear();
  if (predicate != nullptr && predicate->never_matches) return;
  const size_t zone_size = options_.zone_size;
  const size_t end = std::min(morsel.row_end, slice.NumRows());
  // morsel.row_begin is zone-aligned by PlanMorsels.
  for (size_t zone_start = morsel.row_begin; zone_start < end;
       zone_start += zone_size) {
    const size_t zone_end = std::min(zone_start + zone_size, end);
    if (options_.enable_zone_maps && !ranges.empty() &&
        !slice.zone_map.ZoneCanMatch(zone_start / zone_size, ranges)) {
      stats->rows_skipped_zone_map += zone_end - zone_start;
      continue;
    }
    if (options_.enable_zone_maps && zone_filter != nullptr &&
        !(*zone_filter)(slice.zone_map, zone_start / zone_size)) {
      stats->rows_skipped_zone_map += zone_end - zone_start;
      continue;
    }
    stats->rows_scanned += zone_end - zone_start;
    FilterVisibility(slice.createxid.data(), slice.deletexid.data(),
                     zone_start, zone_end, morsel.row_begin, visibility, sel);
  }
  if (predicate != nullptr && !sel->empty()) {
    ApplyBatchPredicate(*predicate, slice.columns, morsel.row_begin, sel,
                        stats);
  }
  stats->rows_selected += sel->size();
  if (sel->empty()) return;
  ++stats->batches;
  ColumnBatch batch;
  batch.columns = &slice.columns;
  batch.row_begin = morsel.row_begin;
  batch.row_count = end - morsel.row_begin;
  batch.sel = sel->data();
  batch.sel_count = sel->size();
  consumer(batch);
}

size_t ColumnTable::NumVersions() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = 0;
  for (const Slice& slice : slices_) total += slice.NumRows();
  return total;
}

std::string ColumnTable::SliceContentString(size_t slice_index) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (slice_index >= slices_.size()) return std::string();
  const Slice& slice = slices_[slice_index];
  std::string out;
  for (size_t i = 0; i < slice.NumRows(); ++i) {
    Row row = slice.MaterializeRow(i);
    for (const Value& v : row) {
      out += v.is_null() ? "<null>" : v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

size_t ColumnTable::ByteSize() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = 0;
  for (const Slice& slice : slices_) {
    for (const auto& col : slice.columns) total += col->ByteSize();
    total += slice.createxid.size() * 2 * sizeof(TxnId);
  }
  return total;
}

}  // namespace idaa::accel
