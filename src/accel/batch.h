// Vectorized batch execution for the accelerator: selection-vector views
// over raw column arrays, compiled conjunctive predicates evaluated
// column-at-a-time, and bulk MVCC visibility resolution. Batches never
// materialize per-row Values — data stays in the columnar arrays until the
// surviving tuples are projected (late materialization).

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "accel/column.h"
#include "accel/zone_map.h"
#include "txn/transaction_manager.h"

namespace idaa::accel {

/// Default number of rows a morsel covers (rounded up to a whole number of
/// zones at planning time).
inline constexpr size_t kDefaultMorselSize = 4096;

/// A fixed-size row range of one slice, pulled by scan workers from a
/// shared atomic cursor (morsel-driven scheduling).
struct Morsel {
  size_t slice = 0;
  size_t row_begin = 0;
  size_t row_end = 0;  // exclusive, snapshot at planning time
};

/// A view over the columns of one slice restricted to the rows named by a
/// selection vector. Offsets are relative to `row_begin` so they fit in
/// 32 bits regardless of slice size. Valid only while the producing scan
/// holds the table's data lock.
struct ColumnBatch {
  const std::vector<std::unique_ptr<Column>>* columns = nullptr;
  size_t row_begin = 0;   // absolute row index of offset 0
  size_t row_count = 0;   // rows covered by the morsel
  const uint32_t* sel = nullptr;  // surviving offsets, ascending
  size_t sel_count = 0;

  size_t AbsoluteRow(size_t k) const { return row_begin + sel[k]; }
};

/// One comparison of a compiled predicate, specialized to the physical
/// representation of its column so the inner loop touches raw arrays only.
struct CompiledCompare {
  enum class Rep {
    kInt,        // int64 storage vs int64 literal (exact)
    kIntAsDouble,  // int64 storage vs double literal (Value::Compare rule)
    kDouble,     // double storage vs double literal
    kCode,       // VARCHAR equality on dictionary codes
    kCodeTable,  // VARCHAR ordering via a per-code pass table
  };
  size_t column = 0;
  sql::BinaryOp op = sql::BinaryOp::kEq;
  Rep rep = Rep::kInt;
  int64_t int_literal = 0;
  double double_literal = 0.0;
  uint32_t code_literal = 0;
  // Fused range (e.g. BETWEEN): when has_upper is true, op/int_literal/
  // double_literal hold the lower bound and upper_op/upper_int/upper_double
  // the upper bound; both are applied in a single pass over the column.
  bool has_upper = false;
  sql::BinaryOp upper_op = sql::BinaryOp::kLtEq;
  int64_t upper_int = 0;
  double upper_double = 0.0;
  // kCodeTable: pass_table[code] != 0 iff the dictionary entry satisfies
  // the comparison. Codes minted after compilation (concurrent appends)
  // index past the end and fail, which is correct: their rows postdate the
  // scan snapshot and are filtered by visibility anyway.
  std::vector<uint8_t> pass_table;
};

/// A conjunction of compiled comparisons for one slice. Dictionary codes
/// are slice-local, so a predicate compiled for slice i must not be used
/// on slice j.
struct BatchPredicate {
  std::vector<CompiledCompare> compares;
  // True when some conjunct can never match on this slice (e.g. a VARCHAR
  // equality literal absent from the dictionary, or an incomparable
  // literal type, which Value::Compare-based scans also drop).
  bool never_matches = false;
};

/// Per-worker scan accounting, merged into metrics / trace attributes.
struct BatchScanStats {
  size_t morsels = 0;
  size_t batches = 0;          // non-empty batches handed to the consumer
  size_t rows_scanned = 0;     // rows visited after zone pruning
  size_t rows_skipped_zone_map = 0;
  size_t rows_selected = 0;    // rows surviving visibility + predicate
  // Predicate rows evaluated directly on an encoded zone (run-at-a-time on
  // RLE, packed extraction on FOR, bitmap-null plain) vs. rows that had to
  // decode the zone into scratch first (no direct kernel for that
  // predicate shape × encoding).
  size_t rows_encoded_eval = 0;
  size_t rows_decode_fallback = 0;

  void Merge(const BatchScanStats& o) {
    morsels += o.morsels;
    batches += o.batches;
    rows_scanned += o.rows_scanned;
    rows_skipped_zone_map += o.rows_skipped_zone_map;
    rows_selected += o.rows_selected;
    rows_encoded_eval += o.rows_encoded_eval;
    rows_decode_fallback += o.rows_decode_fallback;
  }
};

/// Compile `ranges` (the AND-of-comparisons ExtractColumnRanges returns)
/// against one slice's columns. Every comparison has a vectorized form;
/// literals the column type cannot compare against (Value::Compare
/// errors) compile to never_matches. Must be called with the slice's data
/// lock held (it reads the dictionary).
BatchPredicate CompileBatchPredicate(
    const std::vector<ColumnRange>& ranges,
    const std::vector<std::unique_ptr<Column>>& columns);

/// Append to `sel` the offsets (relative to `sel_base`) of rows in
/// [range_begin, range_end) visible under `visibility` — bulk MVCC
/// resolution over the raw createxid/deletexid arrays.
void FilterVisibility(const TxnId* createxid, const TxnId* deletexid,
                      size_t range_begin, size_t range_end, size_t sel_base,
                      const TransactionManager::VisibilityChecker& visibility,
                      std::vector<uint32_t>* sel);

/// Run the compiled conjunction column-at-a-time, compacting `sel` in
/// place after each comparison. NULL operands fail every comparison.
/// Encoded zones are evaluated on their encoded form where a direct kernel
/// exists (see BatchScanStats::rows_encoded_eval), decoding into scratch
/// otherwise; the hot tail runs the flat-array loops. `stats` (optional)
/// accumulates the per-path row counts.
void ApplyBatchPredicate(const BatchPredicate& predicate,
                         const std::vector<std::unique_ptr<Column>>& columns,
                         size_t sel_base, std::vector<uint32_t>* sel,
                         BatchScanStats* stats = nullptr);

/// (null_flag, bits) raw group-key encoding of column element i: doubles
/// contribute their bit pattern, VARCHARs their dictionary code (callers
/// must qualify with the slice id — codes are slice-local), everything
/// else the int64 representation.
inline void RawKeyOf(const Column& col, size_t i, uint64_t* null_flag,
                     uint64_t* bits) {
  if (col.IsNull(i)) {
    *null_flag = 1;
    *bits = 0;
    return;
  }
  *null_flag = 0;
  switch (col.type()) {
    case DataType::kDouble: {
      double d = col.RawDouble(i);
      uint64_t b;
      static_assert(sizeof(b) == sizeof(d));
      std::memcpy(&b, &d, sizeof(b));
      *bits = b;
      break;
    }
    case DataType::kVarchar:
      *bits = col.RawCode(i);
      break;
    default:
      *bits = static_cast<uint64_t>(col.RawInt(i));
  }
}

/// Cursor variant of RawKeyOf for ascending consumers (group-key and join
/// probe loops): identical key encoding, amortized O(1) reads on encoded
/// zones instead of a per-element run search.
inline void RawKeyOf(ColumnCursor& cur, size_t i, uint64_t* null_flag,
                     uint64_t* bits) {
  if (cur.IsNull(i)) {
    *null_flag = 1;
    *bits = 0;
    return;
  }
  *null_flag = 0;
  switch (cur.type()) {
    case DataType::kDouble: {
      double d = cur.Double(i);
      uint64_t b;
      static_assert(sizeof(b) == sizeof(d));
      std::memcpy(&b, &d, sizeof(b));
      *bits = b;
      break;
    }
    case DataType::kVarchar:
      *bits = cur.Code(i);
      break;
    default:
      *bits = static_cast<uint64_t>(cur.Int(i));
  }
}

}  // namespace idaa::accel
