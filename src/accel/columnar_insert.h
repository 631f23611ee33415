// Columnar staging for bulk appends: the ColumnarRows buffer that
// ColumnTable::InsertColumnar consumes, the cell helpers that fill it with
// CoerceRowToSchema's cast rule, and the InsertLayout that maps an AOT
// INSERT ... SELECT's output onto the target table's columns, so scans and
// joins can write their survivors straight into the target's layout.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/column.h"
#include "common/result.h"
#include "common/row.h"
#include "common/schema.h"
#include "sql/binder.h"

namespace idaa::accel {

/// Column-major staging buffer for bulk appends: per column, exactly the
/// typed vector matching the schema type is populated (sized num_rows;
/// `nulls` is optional — empty means no NULLs, and values at NULL
/// positions are ignored).
struct ColumnarRows {
  struct Col {
    std::vector<double> doubles;       ///< DOUBLE
    std::vector<int64_t> ints;         ///< INTEGER/DATE/TIMESTAMP/BOOLEAN
    std::vector<std::string> strings;  ///< VARCHAR
    std::vector<uint8_t> nulls;        ///< optional; 1 = NULL at that row
  };
  size_t num_rows = 0;
  std::vector<Col> columns;
};

/// The checks InsertColumnar runs before appending anything: one staged
/// column per schema column, each sized num_rows, and no NULL in a NOT NULL
/// column.
Status ValidateColumnar(const Schema& schema, const ColumnarRows& rows);

/// The Value a raw int64 cell stands for in a column of `type` (INTEGER,
/// DATE, TIMESTAMP or BOOLEAN), as Column::Get would box it.
Value IntCellValue(DataType type, int64_t v);

/// Staged cell `r` of `col`, a column of `type`, as a Value.
Value ColumnarCell(const ColumnarRows::Col& col, DataType type, size_t r);

/// Append `v` to `col`, a column of `type`, cast by CoerceRowToSchema's
/// rule (NULL and values already of `type` pass through, anything else is
/// CastTo(type)). `nulls` is kept sized to the column's length. Fails when
/// the cast fails.
Status AppendCell(const Value& v, DataType type, ColumnarRows::Col* col);

/// Rows of a SELECT's output in the layout of `schema`: item i of each row
/// lands in column mapping[i], unmapped columns are NULL, every cell cast
/// by AppendCell. The one bridge from row-producing shapes (aggregation,
/// ORDER BY, LIMIT, DISTINCT, DB2 or cross-accelerator sources) into
/// InsertColumnar.
Result<ColumnarRows> RowsToColumnar(const std::vector<Row>& rows,
                                    const std::vector<size_t>& mapping,
                                    const Schema& schema);

/// Split `rows` into `parts` batches by row: row r goes to part_of[r],
/// keeping the row order within each part.
std::vector<ColumnarRows> SplitColumnar(const ColumnarRows& rows,
                                        const std::vector<size_t>& part_of,
                                        size_t parts);

/// How an INSERT ... SELECT's output fills the target table's columns.
struct InsertLayout {
  struct Target {
    enum class Source : uint8_t {
      kNull,    ///< no select item maps here: NULL
      kColumn,  ///< a bare FROM column of the target's type: typed gather
      kExpr,    ///< any other item: EvalExpr on a scratch row, then a cast
    };
    Source source = Source::kNull;
    DataType type = DataType::kInteger;  ///< the target column's type
    size_t column = 0;                   ///< kColumn: combined-layout index
    const sql::BoundExpr* expr = nullptr;  ///< kExpr
  };
  std::vector<Target> targets;  ///< one per target column
  bool has_exprs = false;
};

/// Layout of `plan`'s select items in `target`: item i lands in column
/// mapping[i]. A bare column whose type differs from its target column's
/// is a kExpr item, so its cast runs only on rows the filters kept.
InsertLayout MakeInsertLayout(const sql::BoundSelect& plan,
                              const std::vector<size_t>& mapping,
                              const Schema& target);

/// Combined-layout columns (of `width`) that scratch rows must hold: the
/// inputs of the layout's kExpr items and of `filters` (nulls skipped).
std::vector<uint8_t> ScratchColumns(
    const InsertLayout& layout, size_t width,
    const std::vector<const sql::BoundExpr*>& filters);

/// Gather position meaning "no source row" (a left-outer join's padding):
/// the gathered cell is NULL.
inline constexpr size_t kPadRow = static_cast<size_t>(-1);

/// Append `src`'s cells at positions row_at(0..n-1) to `out`, a staged
/// column of `src`'s own type (a kColumn target), by a typed copy. kPadRow
/// gathers NULL.
template <typename RowAt>
void GatherCells(ColumnCursor& src, size_t n, const RowAt& row_at,
                 ColumnarRows::Col* out) {
  const size_t base = out->nulls.size();
  out->nulls.resize(base + n);
  uint8_t* nulls = out->nulls.data() + base;
  switch (src.type()) {
    case DataType::kDouble: {
      out->doubles.resize(base + n);
      double* dst = out->doubles.data() + base;
      for (size_t k = 0; k < n; ++k) {
        const size_t i = row_at(k);
        if (i == kPadRow || src.IsNull(i)) {
          nulls[k] = 1;
        } else {
          dst[k] = src.Double(i);
        }
      }
      break;
    }
    case DataType::kVarchar:
      out->strings.resize(base + n);
      for (size_t k = 0; k < n; ++k) {
        const size_t i = row_at(k);
        if (i == kPadRow || src.IsNull(i)) {
          nulls[k] = 1;
        } else {
          out->strings[base + k] = src.column().DictEntry(src.Code(i));
        }
      }
      break;
    default: {
      out->ints.resize(base + n);
      int64_t* dst = out->ints.data() + base;
      for (size_t k = 0; k < n; ++k) {
        const size_t i = row_at(k);
        if (i == kPadRow || src.IsNull(i)) {
          nulls[k] = 1;
        } else {
          dst[k] = src.Int(i);
        }
      }
    }
  }
}

/// Evaluate the layout's kExpr items on `scratch` (a combined-layout row
/// holding at least their input columns) and append them to `out`.
Status AppendExprCells(const InsertLayout& layout, const Row& scratch,
                       ColumnarRows* out);

/// Keep only the elements r with keep[r] != 0, in order, when `v` has
/// keep.size() elements; leave it alone otherwise.
template <typename T>
void KeepIf(const std::vector<uint8_t>& keep, std::vector<T>* v) {
  if (v->size() != keep.size()) return;
  size_t kept = 0;
  for (size_t r = 0; r < keep.size(); ++r) {
    if (keep[r] == 0) continue;
    if (kept != r) (*v)[kept] = std::move((*v)[r]);
    ++kept;
  }
  v->resize(kept);
}

/// KeepIf on every column already filled to keep.size() rows (the gathered
/// columns; expression and NULL columns are filled after filtering).
void KeepRows(const std::vector<uint8_t>& keep, ColumnarRows* out);

/// Close a batch of `num_rows` rows: fill the layout's kNull columns and
/// set num_rows.
void FinishColumnar(const InsertLayout& layout, size_t num_rows,
                    ColumnarRows* out);

}  // namespace idaa::accel
