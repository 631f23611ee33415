#include "accel/columnar_insert.h"

#include "accel/morsel_scan.h"
#include "sql/expression_eval.h"

namespace idaa::accel {

Status ValidateColumnar(const Schema& schema, const ColumnarRows& data) {
  if (data.columns.size() != schema.NumColumns()) {
    return Status::InvalidArgument("columnar insert: column count mismatch");
  }
  for (size_t c = 0; c < data.columns.size(); ++c) {
    const ColumnarRows::Col& col = data.columns[c];
    const ColumnDef& def = schema.Column(c);
    size_t values = 0;
    switch (def.type) {
      case DataType::kDouble:
        values = col.doubles.size();
        break;
      case DataType::kVarchar:
        values = col.strings.size();
        break;
      default:
        values = col.ints.size();
    }
    if (values != data.num_rows ||
        (!col.nulls.empty() && col.nulls.size() != data.num_rows)) {
      return Status::InvalidArgument("columnar insert: column " + def.name +
                                     " is not sized to num_rows");
    }
    if (!def.nullable) {
      for (uint8_t null : col.nulls) {
        if (null != 0) {
          return Status::ConstraintViolation(
              "NULL value for NOT NULL column " + def.name);
        }
      }
    }
  }
  return Status::OK();
}

Value IntCellValue(DataType type, int64_t v) {
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
}

Value ColumnarCell(const ColumnarRows::Col& col, DataType type, size_t r) {
  if (!col.nulls.empty() && col.nulls[r] != 0) return Value::Null();
  switch (type) {
    case DataType::kDouble:
      return Value::Double(col.doubles[r]);
    case DataType::kVarchar:
      return Value::Varchar(col.strings[r]);
    default:
      return IntCellValue(type, col.ints[r]);
  }
}

Status AppendCell(const Value& v, DataType type, ColumnarRows::Col* col) {
  if (!v.is_null() && !ValueMatchesType(v, type)) {
    IDAA_ASSIGN_OR_RETURN(Value cast, v.CastTo(type));
    return AppendCell(cast, type, col);
  }
  const Value& cast = v;
  const bool null = cast.is_null();
  col->nulls.push_back(null ? 1 : 0);
  switch (type) {
    case DataType::kDouble:
      col->doubles.push_back(null ? 0.0 : cast.AsDouble());
      break;
    case DataType::kVarchar:
      col->strings.push_back(null ? std::string() : cast.AsVarchar());
      break;
    case DataType::kBoolean:
      col->ints.push_back(!null && cast.AsBoolean() ? 1 : 0);
      break;
    case DataType::kDate:
      col->ints.push_back(null ? 0 : cast.AsDate());
      break;
    case DataType::kTimestamp:
      col->ints.push_back(null ? 0 : cast.AsTimestamp());
      break;
    default:
      col->ints.push_back(null ? 0 : cast.AsInteger());
  }
  return Status::OK();
}

Result<ColumnarRows> RowsToColumnar(const std::vector<Row>& rows,
                                    const std::vector<size_t>& mapping,
                                    const Schema& schema) {
  const size_t width = schema.NumColumns();
  std::vector<int64_t> item_of(width, -1);
  for (size_t i = 0; i < mapping.size(); ++i) {
    item_of[mapping[i]] = static_cast<int64_t>(i);
  }
  ColumnarRows out;
  out.num_rows = rows.size();
  out.columns.resize(width);
  const Value null;
  for (size_t c = 0; c < width; ++c) {
    const DataType type = schema.Column(c).type;
    ColumnarRows::Col& col = out.columns[c];
    for (const Row& row : rows) {
      IDAA_RETURN_IF_ERROR(AppendCell(
          item_of[c] < 0 ? null : row[static_cast<size_t>(item_of[c])], type,
          &col));
    }
  }
  return out;
}

std::vector<ColumnarRows> SplitColumnar(const ColumnarRows& rows,
                                        const std::vector<size_t>& part_of,
                                        size_t parts) {
  std::vector<ColumnarRows> out(parts);
  for (ColumnarRows& part : out) part.columns.resize(rows.columns.size());
  for (size_t r = 0; r < rows.num_rows; ++r) {
    ColumnarRows& part = out[part_of[r]];
    ++part.num_rows;
    for (size_t c = 0; c < rows.columns.size(); ++c) {
      const ColumnarRows::Col& src = rows.columns[c];
      ColumnarRows::Col& dst = part.columns[c];
      if (!src.doubles.empty()) dst.doubles.push_back(src.doubles[r]);
      if (!src.ints.empty()) dst.ints.push_back(src.ints[r]);
      if (!src.strings.empty()) dst.strings.push_back(src.strings[r]);
      if (!src.nulls.empty()) dst.nulls.push_back(src.nulls[r]);
    }
  }
  return out;
}

InsertLayout MakeInsertLayout(const sql::BoundSelect& plan,
                              const std::vector<size_t>& mapping,
                              const Schema& target) {
  using Source = InsertLayout::Target::Source;
  InsertLayout layout;
  layout.targets.resize(target.NumColumns());
  for (size_t c = 0; c < target.NumColumns(); ++c) {
    layout.targets[c].type = target.Column(c).type;
  }
  for (size_t i = 0; i < mapping.size(); ++i) {
    InsertLayout::Target& t = layout.targets[mapping[i]];
    const sql::BoundExpr& expr = *plan.select_exprs[i];
    if (expr.kind == sql::BoundExprKind::kColumn &&
        expr.result_type == t.type) {
      t.source = Source::kColumn;
      t.column = expr.index;
    } else {
      t.source = Source::kExpr;
      t.expr = &expr;
      layout.has_exprs = true;
    }
  }
  return layout;
}

std::vector<uint8_t> ScratchColumns(
    const InsertLayout& layout, size_t width,
    const std::vector<const sql::BoundExpr*>& filters) {
  std::vector<uint8_t> scratch(width, 0);
  for (const InsertLayout::Target& t : layout.targets) {
    if (t.expr != nullptr) CollectColumns(*t.expr, &scratch);
  }
  for (const sql::BoundExpr* f : filters) {
    if (f != nullptr) CollectColumns(*f, &scratch);
  }
  return scratch;
}

Status AppendExprCells(const InsertLayout& layout, const Row& scratch,
                       ColumnarRows* out) {
  for (size_t c = 0; c < layout.targets.size(); ++c) {
    const InsertLayout::Target& t = layout.targets[c];
    if (t.expr == nullptr) continue;
    IDAA_ASSIGN_OR_RETURN(Value v, sql::EvalExpr(*t.expr, scratch));
    IDAA_RETURN_IF_ERROR(AppendCell(v, t.type, &out->columns[c]));
  }
  return Status::OK();
}

void KeepRows(const std::vector<uint8_t>& keep, ColumnarRows* out) {
  for (ColumnarRows::Col& col : out->columns) {
    KeepIf(keep, &col.doubles);
    KeepIf(keep, &col.ints);
    KeepIf(keep, &col.strings);
    KeepIf(keep, &col.nulls);
  }
}

void FinishColumnar(const InsertLayout& layout, size_t num_rows,
                    ColumnarRows* out) {
  for (size_t c = 0; c < layout.targets.size(); ++c) {
    if (layout.targets[c].source != InsertLayout::Target::Source::kNull) {
      continue;
    }
    ColumnarRows::Col& col = out->columns[c];
    col.nulls.assign(num_rows, 1);
    switch (layout.targets[c].type) {
      case DataType::kDouble:
        col.doubles.assign(num_rows, 0.0);
        break;
      case DataType::kVarchar:
        col.strings.assign(num_rows, std::string());
        break;
      default:
        col.ints.assign(num_rows, 0);
    }
  }
  out->num_rows = num_rows;
}

}  // namespace idaa::accel
