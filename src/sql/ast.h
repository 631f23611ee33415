// Abstract syntax tree for the implemented SQL subset.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace idaa::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class BinaryOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod, kConcatOp,
  kEq, kNotEq, kLt, kLtEq, kGt, kGtEq,
  kAnd, kOr,
};

enum class UnaryOp : uint8_t { kNeg, kNot };

const char* BinaryOpToString(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind : uint8_t {
  kLiteral,
  kColumnRef,
  kStar,        ///< bare * in select list or COUNT(*)
  kUnary,
  kBinary,
  kFunctionCall,
  kCase,
  kInList,
  kBetween,
  kIsNull,
  kLike,
  kCast,
  kParam,       ///< ? parameter marker; must be substituted before binding
};

/// Single variant-style AST node; `kind` selects which members are valid.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string table_qualifier;  ///< may be empty
  std::string column_name;

  // kUnary
  UnaryOp unary_op = UnaryOp::kNeg;

  // kBinary
  BinaryOp binary_op = BinaryOp::kAdd;

  // kFunctionCall
  std::string function_name;  ///< upper-cased
  bool distinct = false;      ///< COUNT(DISTINCT x)

  // kCase: children = [when1, then1, when2, then2, ..., else?]
  bool has_else = false;

  // kInList / kBetween / kIsNull / kLike
  bool negated = false;

  // kCast
  DataType cast_type = DataType::kInteger;

  // kParam: 0-based position among the statement's parameter markers,
  // in source-text order.
  size_t param_index = 0;

  /// Operands; meaning depends on kind:
  ///  kUnary: [operand]; kBinary: [lhs, rhs]; kFunctionCall: args;
  ///  kInList: [probe, item...]; kBetween: [probe, lo, hi];
  ///  kIsNull: [operand]; kLike: [operand, pattern]; kCast: [operand].
  std::vector<ExprPtr> children;

  /// Render back to SQL text (parenthesized; round-trips through the parser).
  std::string ToSql() const;

  /// Deep copy.
  ExprPtr Clone() const;
};

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string table, std::string column);
ExprPtr MakeStar();
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeFunctionCall(std::string name, std::vector<ExprPtr> args,
                         bool distinct = false);
ExprPtr MakeCast(ExprPtr operand, DataType type);
ExprPtr MakeParam(size_t index);

/// True for COUNT/SUM/AVG/MIN/MAX/STDDEV/VARIANCE by (upper-case) name.
bool IsAggregateFunction(const std::string& upper_name);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind : uint8_t {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kDropTable,
  kGrant,
  kRevoke,
  kCall,
  kExplain,
};

/// Lower-case statement kind name ("select", "insert", ...), used e.g. for
/// per-statement-kind latency histogram names.
const char* StatementKindToString(StatementKind kind);

struct Statement {
  virtual ~Statement() = default;
  virtual StatementKind kind() const = 0;
  /// Round-trippable SQL text of the statement (used by the federation layer
  /// when shipping a statement to the accelerator).
  virtual std::string ToSql() const = 0;
};

using StatementPtr = std::unique_ptr<Statement>;

enum class JoinType : uint8_t { kInner, kLeft, kCross };

/// FROM-clause element: base table with optional alias.
struct TableRef {
  std::string table_name;
  std::string alias;  ///< empty => table name
  std::string EffectiveName() const { return alias.empty() ? table_name : alias; }
};

struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef table;
  ExprPtr on;  ///< null for CROSS
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;  ///< empty => derived from expression
};

struct OrderByItem {
  ExprPtr expr;
  bool ascending = true;
};

struct SelectStatement : Statement {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::optional<TableRef> from;  ///< nullopt => SELECT <literals>
  std::vector<JoinClause> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;

  StatementKind kind() const override { return StatementKind::kSelect; }
  std::string ToSql() const override;
};

struct InsertStatement : Statement {
  std::string table_name;
  std::vector<std::string> columns;  ///< empty => all, in schema order
  /// Either literal rows ...
  std::vector<std::vector<ExprPtr>> values_rows;
  /// ... or INSERT INTO t SELECT ...
  std::unique_ptr<SelectStatement> select;

  StatementKind kind() const override { return StatementKind::kInsert; }
  std::string ToSql() const override;
};

struct UpdateStatement : Statement {
  std::string table_name;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  ///< may be null

  StatementKind kind() const override { return StatementKind::kUpdate; }
  std::string ToSql() const override;
};

struct DeleteStatement : Statement {
  std::string table_name;
  ExprPtr where;  ///< may be null

  StatementKind kind() const override { return StatementKind::kDelete; }
  std::string ToSql() const override;
};

struct ColumnDefAst {
  std::string name;
  DataType type = DataType::kInteger;
  bool not_null = false;
};

struct CreateTableStatement : Statement {
  std::string table_name;
  std::vector<ColumnDefAst> columns;  ///< empty for CREATE TABLE ... AS SELECT
  bool in_accelerator = false;             ///< CREATE TABLE ... IN ACCELERATOR
  /// Optional explicit target: IN ACCELERATOR accel2 (default: balanced).
  std::optional<std::string> accelerator_name;
  std::optional<std::string> distribute_by;  ///< DISTRIBUTE BY (col)
  bool if_not_exists = false;
  /// CTAS: schema derived from the query; rows inserted on creation.
  std::unique_ptr<SelectStatement> as_select;

  StatementKind kind() const override { return StatementKind::kCreateTable; }
  std::string ToSql() const override;
};

struct DropTableStatement : Statement {
  std::string table_name;
  bool if_exists = false;

  StatementKind kind() const override { return StatementKind::kDropTable; }
  std::string ToSql() const override;
};

struct GrantStatement : Statement {
  std::vector<std::string> privileges;  ///< SELECT/INSERT/UPDATE/DELETE/EXECUTE
  std::string object_name;              ///< table or procedure
  std::string grantee;

  StatementKind kind() const override { return StatementKind::kGrant; }
  std::string ToSql() const override;
};

struct RevokeStatement : Statement {
  std::vector<std::string> privileges;
  std::string object_name;
  std::string grantee;

  StatementKind kind() const override { return StatementKind::kRevoke; }
  std::string ToSql() const override;
};

/// EXPLAIN <select>: routing decision + access-path report.
/// EXPLAIN ANALYZE <select>: executes the statement and reports the traced
/// stage tree (per-stage timings, row counts, boundary bytes).
struct ExplainStatement : Statement {
  std::unique_ptr<SelectStatement> select;
  /// EXPLAIN ANALYZE INSERT ... SELECT: the statement run and reported
  /// (`select` is then null).
  std::unique_ptr<InsertStatement> insert;
  bool analyze = false;

  StatementKind kind() const override { return StatementKind::kExplain; }
  std::string ToSql() const override;
};

/// CALL proc('arg', 42, ...) — arguments must be literals.
struct CallStatement : Statement {
  std::string procedure_name;
  std::vector<Value> arguments;

  StatementKind kind() const override { return StatementKind::kCall; }
  std::string ToSql() const override;
};

}  // namespace idaa::sql
