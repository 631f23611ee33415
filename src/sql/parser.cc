#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace idaa::sql {

namespace {

/// Token-stream cursor with the grammar productions as methods.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<StatementPtr> ParseStatementTop() {
    IDAA_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatementInner());
    Accept(TokenType::kSemicolon);
    if (!Check(TokenType::kEof)) {
      return Err("unexpected trailing input");
    }
    return stmt;
  }

  Result<ExprPtr> ParseExpressionTop() {
    IDAA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!Check(TokenType::kEof)) {
      return Status::SyntaxError("unexpected trailing input after expression");
    }
    return e;
  }

 private:
  // -- token helpers --------------------------------------------------------

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAhead(size_t n) const {
    size_t idx = pos_ + n;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  Token Advance() { return tokens_[pos_++]; }

  bool Check(TokenType type) const { return Peek().type == type; }
  bool CheckKeyword(const char* kw) const { return Peek().IsKeyword(kw); }

  bool Accept(TokenType type) {
    if (Check(type)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AcceptKeyword(const char* kw) {
    if (CheckKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(TokenType type) {
    if (Accept(type)) return Status::OK();
    return Status::SyntaxError(StrFormat(
        "expected %s but found '%s' at offset %zu", TokenTypeToString(type),
        Peek().text.c_str(), Peek().position));
  }

  Status ExpectKeyword(const char* kw) {
    if (AcceptKeyword(kw)) return Status::OK();
    return Status::SyntaxError(StrFormat(
        "expected %s but found '%s' at offset %zu", kw, Peek().text.c_str(),
        Peek().position));
  }

  Status Err(const std::string& what) const {
    return Status::SyntaxError(StrFormat("%s at offset %zu (near '%s')",
                                         what.c_str(), Peek().position,
                                         Peek().text.c_str()));
  }

  /// Identifiers may also be non-reserved keywords used as names.
  Result<std::string> ExpectIdentifier() {
    if (Check(TokenType::kIdentifier)) return Advance().text;
    return Status::SyntaxError(StrFormat(
        "expected identifier but found '%s' at offset %zu", Peek().text.c_str(),
        Peek().position));
  }

  // -- statements ------------------------------------------------------------

  Result<StatementPtr> ParseStatementInner() {
    if (CheckKeyword("SELECT")) {
      IDAA_ASSIGN_OR_RETURN(auto sel, ParseSelect());
      return StatementPtr(std::move(sel));
    }
    if (CheckKeyword("INSERT")) return ParseInsert();
    if (CheckKeyword("UPDATE")) return ParseUpdate();
    if (CheckKeyword("DELETE")) return ParseDelete();
    if (CheckKeyword("CREATE")) return ParseCreateTable();
    if (CheckKeyword("DROP")) return ParseDropTable();
    if (CheckKeyword("GRANT")) return ParseGrantRevoke(/*is_grant=*/true);
    if (CheckKeyword("REVOKE")) return ParseGrantRevoke(/*is_grant=*/false);
    if (CheckKeyword("CALL")) return ParseCall();
    if (AcceptKeyword("EXPLAIN")) {
      auto stmt = std::make_unique<ExplainStatement>();
      stmt->analyze = AcceptKeyword("ANALYZE");
      if (stmt->analyze && CheckKeyword("INSERT")) {
        IDAA_ASSIGN_OR_RETURN(StatementPtr insert, ParseInsert());
        stmt->insert.reset(static_cast<InsertStatement*>(insert.release()));
        if (!stmt->insert->select) {
          return Err("EXPLAIN ANALYZE INSERT requires INSERT ... SELECT");
        }
        return StatementPtr(std::move(stmt));
      }
      if (!CheckKeyword("SELECT")) {
        return Err(
            "EXPLAIN supports SELECT (and EXPLAIN ANALYZE INSERT ... SELECT)");
      }
      IDAA_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
      return StatementPtr(std::move(stmt));
    }
    return Err("expected a statement");
  }

  Result<std::unique_ptr<SelectStatement>> ParseSelect() {
    IDAA_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStatement>();
    stmt->distinct = AcceptKeyword("DISTINCT");

    // select list
    while (true) {
      SelectItem item;
      IDAA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("AS")) {
        IDAA_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      } else if (Check(TokenType::kIdentifier)) {
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
      if (!Accept(TokenType::kComma)) break;
    }

    if (AcceptKeyword("FROM")) {
      IDAA_ASSIGN_OR_RETURN(TableRef base, ParseTableRef());
      stmt->from = std::move(base);
      while (true) {
        JoinClause join;
        if (AcceptKeyword("JOIN") ||
            (CheckKeyword("INNER") && PeekAhead(1).IsKeyword("JOIN") &&
             (Advance(), Advance(), true))) {
          join.type = JoinType::kInner;
        } else if (CheckKeyword("LEFT")) {
          Advance();
          AcceptKeyword("OUTER");
          IDAA_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
          join.type = JoinType::kLeft;
        } else if (CheckKeyword("CROSS")) {
          Advance();
          IDAA_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
          join.type = JoinType::kCross;
        } else {
          break;
        }
        IDAA_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        if (join.type != JoinType::kCross) {
          IDAA_RETURN_IF_ERROR(ExpectKeyword("ON"));
          IDAA_ASSIGN_OR_RETURN(join.on, ParseExpr());
        }
        stmt->joins.push_back(std::move(join));
      }
    }

    if (AcceptKeyword("WHERE")) {
      IDAA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      IDAA_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        IDAA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      IDAA_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      IDAA_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        OrderByItem item;
        IDAA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          item.ascending = false;
        } else {
          AcceptKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (!Check(TokenType::kIntegerLit)) return Err("expected LIMIT count");
      stmt->limit = Advance().int_value;
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    IDAA_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier());
    if (AcceptKeyword("AS")) {
      IDAA_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Check(TokenType::kIdentifier)) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  Result<StatementPtr> ParseInsert() {
    IDAA_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    IDAA_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStatement>();
    IDAA_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier());
    if (Accept(TokenType::kLParen)) {
      while (true) {
        IDAA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        stmt->columns.push_back(std::move(col));
        if (!Accept(TokenType::kComma)) break;
      }
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    }
    if (CheckKeyword("SELECT")) {
      IDAA_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
      return StatementPtr(std::move(stmt));
    }
    IDAA_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      std::vector<ExprPtr> row;
      while (true) {
        IDAA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!Accept(TokenType::kComma)) break;
      }
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      stmt->values_rows.push_back(std::move(row));
      if (!Accept(TokenType::kComma)) break;
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseUpdate() {
    IDAA_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStatement>();
    IDAA_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier());
    IDAA_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      IDAA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kEq));
      IDAA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(e));
      if (!Accept(TokenType::kComma)) break;
    }
    if (AcceptKeyword("WHERE")) {
      IDAA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDelete() {
    IDAA_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    IDAA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStatement>();
    IDAA_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier());
    if (AcceptKeyword("WHERE")) {
      IDAA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateTable() {
    IDAA_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    IDAA_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStatement>();
    if (AcceptKeyword("IF")) {
      IDAA_RETURN_IF_ERROR(ExpectKeyword("NOT"));
      IDAA_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt->if_not_exists = true;
    }
    IDAA_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier());
    if (Accept(TokenType::kLParen)) {
      while (true) {
        ColumnDefAst col;
        IDAA_ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
        // Type name may lex as keyword (DATE, TIMESTAMP) or identifier.
        std::string type_name;
        if (Check(TokenType::kIdentifier) || Check(TokenType::kKeyword)) {
          type_name = Advance().text;
        } else {
          return Err("expected column type");
        }
        IDAA_ASSIGN_OR_RETURN(col.type, DataTypeFromString(type_name));
        // Optional length like VARCHAR(32) — accepted and ignored.
        if (Accept(TokenType::kLParen)) {
          if (!Check(TokenType::kIntegerLit)) return Err("expected type length");
          Advance();
          IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        }
        if (AcceptKeyword("NOT")) {
          IDAA_RETURN_IF_ERROR(ExpectKeyword("NULL"));
          col.not_null = true;
        }
        stmt->columns.push_back(std::move(col));
        if (!Accept(TokenType::kComma)) break;
      }
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    }
    while (true) {
      if (AcceptKeyword("IN")) {
        IDAA_RETURN_IF_ERROR(ExpectKeyword("ACCELERATOR"));
        stmt->in_accelerator = true;
        // Optional explicit accelerator name: IN ACCELERATOR accel2.
        if (Check(TokenType::kIdentifier)) {
          stmt->accelerator_name = Advance().text;
        }
        continue;
      }
      if (AcceptKeyword("DISTRIBUTE")) {
        IDAA_RETURN_IF_ERROR(ExpectKeyword("BY"));
        IDAA_RETURN_IF_ERROR(Expect(TokenType::kLParen));
        IDAA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        stmt->distribute_by = std::move(col);
        IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        continue;
      }
      break;
    }
    // CTAS: CREATE TABLE t [IN ACCELERATOR] AS SELECT ...
    if (AcceptKeyword("AS")) {
      if (!CheckKeyword("SELECT")) return Err("expected SELECT after AS");
      IDAA_ASSIGN_OR_RETURN(stmt->as_select, ParseSelect());
    }
    if (stmt->columns.empty() && !stmt->as_select) {
      return Err("CREATE TABLE needs a column list or AS SELECT");
    }
    if (!stmt->columns.empty() && stmt->as_select) {
      return Err("CREATE TABLE takes either a column list or AS SELECT, "
                 "not both");
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDropTable() {
    IDAA_RETURN_IF_ERROR(ExpectKeyword("DROP"));
    IDAA_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<DropTableStatement>();
    if (AcceptKeyword("IF")) {
      IDAA_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt->if_exists = true;
    }
    IDAA_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier());
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseGrantRevoke(bool is_grant) {
    Advance();  // GRANT / REVOKE
    std::vector<std::string> privileges;
    while (true) {
      // Privilege names lex as keywords (SELECT, INSERT, ...) or identifiers.
      if (Check(TokenType::kKeyword) || Check(TokenType::kIdentifier)) {
        privileges.push_back(ToUpper(Advance().text));
      } else {
        return Err("expected privilege name");
      }
      if (!Accept(TokenType::kComma)) break;
    }
    IDAA_RETURN_IF_ERROR(ExpectKeyword("ON"));
    AcceptKeyword("TABLE");
    std::string object;
    if (Check(TokenType::kIdentifier)) {
      object = Advance().text;
      // Qualified procedure names like IDAA.KMEANS.
      while (Accept(TokenType::kDot)) {
        IDAA_ASSIGN_OR_RETURN(std::string part, ExpectIdentifier());
        object += "." + part;
      }
    } else {
      return Err("expected object name");
    }
    // GRANT ... TO user / REVOKE ... FROM user (we accept TO for both).
    if (!AcceptKeyword("TO")) {
      IDAA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    }
    IDAA_ASSIGN_OR_RETURN(std::string grantee, ExpectIdentifier());
    if (is_grant) {
      auto stmt = std::make_unique<GrantStatement>();
      stmt->privileges = std::move(privileges);
      stmt->object_name = std::move(object);
      stmt->grantee = std::move(grantee);
      return StatementPtr(std::move(stmt));
    }
    auto stmt = std::make_unique<RevokeStatement>();
    stmt->privileges = std::move(privileges);
    stmt->object_name = std::move(object);
    stmt->grantee = std::move(grantee);
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCall() {
    IDAA_RETURN_IF_ERROR(ExpectKeyword("CALL"));
    auto stmt = std::make_unique<CallStatement>();
    IDAA_ASSIGN_OR_RETURN(stmt->procedure_name, ExpectIdentifier());
    // Allow qualified names like SYSPROC.ACCEL_ADD_TABLES.
    while (Accept(TokenType::kDot)) {
      IDAA_ASSIGN_OR_RETURN(std::string part, ExpectIdentifier());
      stmt->procedure_name += "." + part;
    }
    IDAA_RETURN_IF_ERROR(Expect(TokenType::kLParen));
    if (!Check(TokenType::kRParen)) {
      while (true) {
        IDAA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        // Fold sign on numeric literals; otherwise must be a literal.
        if (e->kind == ExprKind::kUnary && e->unary_op == UnaryOp::kNeg &&
            e->children[0]->kind == ExprKind::kLiteral) {
          const Value& v = e->children[0]->literal;
          if (v.is_integer()) {
            stmt->arguments.push_back(Value::Integer(-v.AsInteger()));
          } else if (v.is_double()) {
            stmt->arguments.push_back(Value::Double(-v.AsDouble()));
          } else {
            return Err("CALL arguments must be literals");
          }
        } else if (e->kind == ExprKind::kLiteral) {
          stmt->arguments.push_back(e->literal);
        } else {
          return Err("CALL arguments must be literals");
        }
        if (!Accept(TokenType::kComma)) break;
      }
    }
    IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    return StatementPtr(std::move(stmt));
  }

  // -- expressions -----------------------------------------------------------
  // Precedence: OR < AND < NOT < comparison < additive < multiplicative < unary.

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    IDAA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AcceptKeyword("OR")) {
      IDAA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    IDAA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (CheckKeyword("AND")) {
      Advance();
      IDAA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      IDAA_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    IDAA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

    // IS [NOT] NULL
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      IDAA_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      return ExprPtr(std::move(e));
    }

    bool negated = false;
    if (CheckKeyword("NOT") && (PeekAhead(1).IsKeyword("IN") ||
                                PeekAhead(1).IsKeyword("BETWEEN") ||
                                PeekAhead(1).IsKeyword("LIKE"))) {
      Advance();
      negated = true;
    }

    if (AcceptKeyword("IN")) {
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInList;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      while (true) {
        IDAA_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
        e->children.push_back(std::move(item));
        if (!Accept(TokenType::kComma)) break;
      }
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return ExprPtr(std::move(e));
    }

    if (AcceptKeyword("BETWEEN")) {
      IDAA_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      IDAA_RETURN_IF_ERROR(ExpectKeyword("AND"));
      IDAA_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(lo));
      e->children.push_back(std::move(hi));
      return ExprPtr(std::move(e));
    }

    if (AcceptKeyword("LIKE")) {
      IDAA_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kLike;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(pattern));
      return ExprPtr(std::move(e));
    }

    BinaryOp op;
    if (Accept(TokenType::kEq)) op = BinaryOp::kEq;
    else if (Accept(TokenType::kNotEq)) op = BinaryOp::kNotEq;
    else if (Accept(TokenType::kLt)) op = BinaryOp::kLt;
    else if (Accept(TokenType::kLtEq)) op = BinaryOp::kLtEq;
    else if (Accept(TokenType::kGt)) op = BinaryOp::kGt;
    else if (Accept(TokenType::kGtEq)) op = BinaryOp::kGtEq;
    else return lhs;

    IDAA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseAdditive() {
    IDAA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Accept(TokenType::kPlus)) op = BinaryOp::kAdd;
      else if (Accept(TokenType::kMinus)) op = BinaryOp::kSub;
      else if (Accept(TokenType::kConcat)) op = BinaryOp::kConcatOp;
      else break;
      IDAA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    IDAA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Accept(TokenType::kStar)) op = BinaryOp::kMul;
      else if (Accept(TokenType::kSlash)) op = BinaryOp::kDiv;
      else if (Accept(TokenType::kPercent)) op = BinaryOp::kMod;
      else break;
      IDAA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Accept(TokenType::kMinus)) {
      IDAA_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return MakeUnary(UnaryOp::kNeg, std::move(operand));
    }
    if (Accept(TokenType::kPlus)) return ParseUnary();
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kIntegerLit:
        return MakeLiteral(Value::Integer(Advance().int_value));
      case TokenType::kDoubleLit:
        return MakeLiteral(Value::Double(Advance().double_value));
      case TokenType::kStringLit:
        return MakeLiteral(Value::Varchar(Advance().text));
      case TokenType::kParam:
        Advance();
        return MakeParam(next_param_index_++);
      case TokenType::kStar:
        Advance();
        return MakeStar();
      case TokenType::kLParen: {
        Advance();
        IDAA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
        return e;
      }
      case TokenType::kKeyword:
        return ParseKeywordPrimary();
      case TokenType::kIdentifier:
        return ParseIdentifierPrimary();
      default:
        return Err("expected an expression");
    }
  }

  Result<ExprPtr> ParseKeywordPrimary() {
    if (AcceptKeyword("NULL")) return MakeLiteral(Value::Null());
    if (AcceptKeyword("TRUE")) return MakeLiteral(Value::Boolean(true));
    if (AcceptKeyword("FALSE")) return MakeLiteral(Value::Boolean(false));
    if (CheckKeyword("DATE") && PeekAhead(1).type == TokenType::kStringLit) {
      Advance();
      std::string text = Advance().text;
      IDAA_ASSIGN_OR_RETURN(int32_t days, ParseDate(text));
      return MakeLiteral(Value::Date(days));
    }
    if (CheckKeyword("TIMESTAMP") &&
        PeekAhead(1).type == TokenType::kIntegerLit) {
      Advance();
      return MakeLiteral(Value::Timestamp(Advance().int_value));
    }
    if (AcceptKeyword("CAST")) {
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      IDAA_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
      IDAA_RETURN_IF_ERROR(ExpectKeyword("AS"));
      std::string type_name;
      if (Check(TokenType::kIdentifier) || Check(TokenType::kKeyword)) {
        type_name = Advance().text;
      } else {
        return Err("expected type name in CAST");
      }
      IDAA_ASSIGN_OR_RETURN(DataType type, DataTypeFromString(type_name));
      // Optional length: CAST(x AS VARCHAR(10))
      if (Accept(TokenType::kLParen)) {
        if (!Check(TokenType::kIntegerLit)) return Err("expected type length");
        Advance();
        IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      }
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return MakeCast(std::move(operand), type);
    }
    if (AcceptKeyword("CASE")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCase;
      while (AcceptKeyword("WHEN")) {
        IDAA_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
        IDAA_RETURN_IF_ERROR(ExpectKeyword("THEN"));
        IDAA_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
        e->children.push_back(std::move(when));
        e->children.push_back(std::move(then));
      }
      if (e->children.empty()) return Err("CASE requires at least one WHEN");
      if (AcceptKeyword("ELSE")) {
        IDAA_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExpr());
        e->children.push_back(std::move(else_e));
        e->has_else = true;
      }
      IDAA_RETURN_IF_ERROR(ExpectKeyword("END"));
      return ExprPtr(std::move(e));
    }
    return Err("unexpected keyword in expression");
  }

  Result<ExprPtr> ParseIdentifierPrimary() {
    std::string name = Advance().text;
    // function call?
    if (Check(TokenType::kLParen)) {
      Advance();
      bool distinct = AcceptKeyword("DISTINCT");
      std::vector<ExprPtr> args;
      if (!Check(TokenType::kRParen)) {
        while (true) {
          IDAA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          args.push_back(std::move(arg));
          if (!Accept(TokenType::kComma)) break;
        }
      }
      IDAA_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return MakeFunctionCall(std::move(name), std::move(args), distinct);
    }
    // qualified column: t.c  or t.*
    if (Accept(TokenType::kDot)) {
      if (Accept(TokenType::kStar)) {
        auto e = MakeStar();
        e->table_qualifier = name;
        return e;
      }
      IDAA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      return MakeColumnRef(std::move(name), std::move(col));
    }
    return MakeColumnRef("", std::move(name));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Running count of `?` markers, assigned in source order.
  size_t next_param_index_ = 0;
};

}  // namespace

Result<StatementPtr> ParseStatement(const std::string& sql) {
  IDAA_ASSIGN_OR_RETURN(auto tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatementTop();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  IDAA_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseExpressionTop();
}

}  // namespace idaa::sql
