#include "sql/ast.h"

#include "common/string_util.h"

namespace idaa::sql {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kConcatOp: return "||";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNotEq: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLtEq: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGtEq: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

namespace {

std::string QuoteSqlString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

std::string LiteralToSql(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_varchar()) return QuoteSqlString(v.AsVarchar());
  if (v.is_date()) return "DATE " + QuoteSqlString(FormatDate(v.AsDate()));
  if (v.is_timestamp()) return "TIMESTAMP " + std::to_string(v.AsTimestamp());
  return v.ToString();
}

}  // namespace

std::string Expr::ToSql() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return LiteralToSql(literal);
    case ExprKind::kColumnRef:
      return table_qualifier.empty() ? column_name
                                     : table_qualifier + "." + column_name;
    case ExprKind::kStar:
      return "*";
    case ExprKind::kUnary:
      return std::string(unary_op == UnaryOp::kNeg ? "-" : "NOT ") + "(" +
             children[0]->ToSql() + ")";
    case ExprKind::kBinary:
      return "(" + children[0]->ToSql() + " " + BinaryOpToString(binary_op) +
             " " + children[1]->ToSql() + ")";
    case ExprKind::kFunctionCall: {
      std::string out = function_name + "(";
      if (distinct) out += "DISTINCT ";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToSql();
      }
      return out + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t pairs = (children.size() - (has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children[2 * i]->ToSql() + " THEN " +
               children[2 * i + 1]->ToSql();
      }
      if (has_else) out += " ELSE " + children.back()->ToSql();
      return out + " END";
    }
    case ExprKind::kInList: {
      std::string out = "(" + children[0]->ToSql();
      out += negated ? " NOT IN (" : " IN (";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToSql();
      }
      return out + "))";
    }
    case ExprKind::kBetween:
      return "(" + children[0]->ToSql() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             children[1]->ToSql() + " AND " + children[2]->ToSql() + ")";
    case ExprKind::kIsNull:
      return "(" + children[0]->ToSql() + (negated ? " IS NOT NULL" : " IS NULL") +
             ")";
    case ExprKind::kLike:
      return "(" + children[0]->ToSql() + (negated ? " NOT LIKE " : " LIKE ") +
             children[1]->ToSql() + ")";
    case ExprKind::kCast:
      return "CAST(" + children[0]->ToSql() + " AS " +
             DataTypeToString(cast_type) + ")";
    case ExprKind::kParam:
      return "?";
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto copy = std::make_unique<Expr>();
  copy->kind = kind;
  copy->literal = literal;
  copy->table_qualifier = table_qualifier;
  copy->column_name = column_name;
  copy->unary_op = unary_op;
  copy->binary_op = binary_op;
  copy->function_name = function_name;
  copy->distinct = distinct;
  copy->has_else = has_else;
  copy->negated = negated;
  copy->cast_type = cast_type;
  copy->param_index = param_index;
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table_qualifier = std::move(table);
  e->column_name = std::move(column);
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeFunctionCall(std::string name, std::vector<ExprPtr> args,
                         bool distinct) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunctionCall;
  e->function_name = ToUpper(name);
  e->distinct = distinct;
  e->children = std::move(args);
  return e;
}

ExprPtr MakeCast(ExprPtr operand, DataType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCast;
  e->cast_type = type;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeParam(size_t index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kParam;
  e->param_index = index;
  return e;
}

bool IsAggregateFunction(const std::string& upper_name) {
  return upper_name == "COUNT" || upper_name == "SUM" || upper_name == "AVG" ||
         upper_name == "MIN" || upper_name == "MAX" ||
         upper_name == "STDDEV" || upper_name == "VARIANCE";
}

// ---------------------------------------------------------------------------
// Statement::ToSql
// ---------------------------------------------------------------------------

std::string SelectStatement::ToSql() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].expr->ToSql();
    if (!items[i].alias.empty()) out += " AS " + items[i].alias;
  }
  if (from) {
    out += " FROM " + from->table_name;
    if (!from->alias.empty()) out += " " + from->alias;
    for (const auto& join : joins) {
      switch (join.type) {
        case JoinType::kInner: out += " JOIN "; break;
        case JoinType::kLeft: out += " LEFT JOIN "; break;
        case JoinType::kCross: out += " CROSS JOIN "; break;
      }
      out += join.table.table_name;
      if (!join.table.alias.empty()) out += " " + join.table.alias;
      if (join.on) out += " ON " + join.on->ToSql();
    }
  }
  if (where) out += " WHERE " + where->ToSql();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToSql();
    }
  }
  if (having) out += " HAVING " + having->ToSql();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToSql();
      out += order_by[i].ascending ? " ASC" : " DESC";
    }
  }
  if (limit) out += " LIMIT " + std::to_string(*limit);
  return out;
}

std::string InsertStatement::ToSql() const {
  std::string out = "INSERT INTO " + table_name;
  if (!columns.empty()) {
    out += " (";
    out += Join(columns, ", ");
    out += ")";
  }
  if (select) {
    out += " " + select->ToSql();
    return out;
  }
  out += " VALUES ";
  for (size_t r = 0; r < values_rows.size(); ++r) {
    if (r > 0) out += ", ";
    out += "(";
    for (size_t c = 0; c < values_rows[r].size(); ++c) {
      if (c > 0) out += ", ";
      out += values_rows[r][c]->ToSql();
    }
    out += ")";
  }
  return out;
}

std::string UpdateStatement::ToSql() const {
  std::string out = "UPDATE " + table_name + " SET ";
  for (size_t i = 0; i < assignments.size(); ++i) {
    if (i > 0) out += ", ";
    out += assignments[i].first + " = " + assignments[i].second->ToSql();
  }
  if (where) out += " WHERE " + where->ToSql();
  return out;
}

std::string DeleteStatement::ToSql() const {
  std::string out = "DELETE FROM " + table_name;
  if (where) out += " WHERE " + where->ToSql();
  return out;
}

std::string CreateTableStatement::ToSql() const {
  std::string out = "CREATE TABLE ";
  if (if_not_exists) out += "IF NOT EXISTS ";
  out += table_name;
  if (!columns.empty()) {
    out += " (";
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += columns[i].name;
      out += " ";
      out += DataTypeToString(columns[i].type);
      if (columns[i].not_null) out += " NOT NULL";
    }
    out += ")";
  }
  if (in_accelerator) {
    out += " IN ACCELERATOR";
    if (accelerator_name) out += " " + *accelerator_name;
  }
  if (distribute_by) out += " DISTRIBUTE BY (" + *distribute_by + ")";
  if (as_select) out += " AS " + as_select->ToSql();
  return out;
}

std::string DropTableStatement::ToSql() const {
  std::string out = "DROP TABLE ";
  if (if_exists) out += "IF EXISTS ";
  return out + table_name;
}

std::string GrantStatement::ToSql() const {
  return "GRANT " + Join(privileges, ", ") + " ON " + object_name + " TO " +
         grantee;
}

std::string RevokeStatement::ToSql() const {
  return "REVOKE " + Join(privileges, ", ") + " ON " + object_name + " TO " +
         grantee;
}

std::string ExplainStatement::ToSql() const {
  return (analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ") +
         (insert ? insert->ToSql() : select->ToSql());
}

const char* StatementKindToString(StatementKind kind) {
  switch (kind) {
    case StatementKind::kSelect: return "select";
    case StatementKind::kInsert: return "insert";
    case StatementKind::kUpdate: return "update";
    case StatementKind::kDelete: return "delete";
    case StatementKind::kCreateTable: return "create_table";
    case StatementKind::kDropTable: return "drop_table";
    case StatementKind::kGrant: return "grant";
    case StatementKind::kRevoke: return "revoke";
    case StatementKind::kCall: return "call";
    case StatementKind::kExplain: return "explain";
  }
  return "unknown";
}

std::string CallStatement::ToSql() const {
  std::string out = "CALL " + procedure_name + "(";
  for (size_t i = 0; i < arguments.size(); ++i) {
    if (i > 0) out += ", ";
    out += LiteralToSql(arguments[i]);
  }
  return out + ")";
}

}  // namespace idaa::sql
