#include "db2/db2_engine.h"

#include "sql/expression_eval.h"

namespace idaa::db2 {

using sql::EvalExpr;
using sql::EvalPredicate;

namespace {

/// If the predicate implies `first-column = <literal>` (top-level AND
/// conjunct), return the literal — the access path chooser for the implicit
/// primary-key hash index.
const Value* FindIndexKey(const sql::BoundExpr* predicate) {
  if (predicate == nullptr) return nullptr;
  if (predicate->kind == sql::BoundExprKind::kBinary &&
      predicate->binary_op == sql::BinaryOp::kAnd) {
    const Value* left = FindIndexKey(predicate->children[0].get());
    if (left != nullptr) return left;
    return FindIndexKey(predicate->children[1].get());
  }
  if (predicate->kind == sql::BoundExprKind::kBinary &&
      predicate->binary_op == sql::BinaryOp::kEq) {
    const sql::BoundExpr& lhs = *predicate->children[0];
    const sql::BoundExpr& rhs = *predicate->children[1];
    if (lhs.kind == sql::BoundExprKind::kColumn && lhs.index == 0 &&
        rhs.kind == sql::BoundExprKind::kLiteral && !rhs.literal.is_null()) {
      return &rhs.literal;
    }
    if (rhs.kind == sql::BoundExprKind::kColumn && rhs.index == 0 &&
        lhs.kind == sql::BoundExprKind::kLiteral && !lhs.literal.is_null()) {
      return &lhs.literal;
    }
  }
  return nullptr;
}

}  // namespace

Status Db2Engine::CreateTableStorage(const TableInfo& info) {
  return row_store_.CreateTable(info.table_id, info.schema);
}

Status Db2Engine::DropTableStorage(const TableInfo& info) {
  return row_store_.DropTable(info.table_id);
}

Result<std::vector<StoredRow>> Db2Engine::ScanMatching(
    const StoredTable& table, const sql::BoundExpr* predicate) {
  size_t examined = 0;
  auto matches = table.ScanLiveWhere(
      [predicate](const Row& row) -> Result<bool> {
        if (predicate == nullptr) return true;
        return EvalPredicate(*predicate, row);
      },
      &examined);
  if (metrics_ != nullptr) metrics_->Add(metric::kDb2RowsScanned, examined);
  return matches;
}

Result<ResultSet> Db2Engine::ExecuteSelect(const sql::BoundSelect& plan,
                                           Transaction* txn, TraceContext tc) {
  // Cursor stability: S locks held for the statement only.
  {
    TraceSpan lock_span(tc, "db2.lock_wait");
    lock_span.Attr("tables", static_cast<uint64_t>(plan.tables.size()));
    for (const auto& bt : plan.tables) {
      IDAA_RETURN_IF_ERROR(lock_manager_.Acquire(txn->id(), bt.info->table_id,
                                                 LockMode::kShared));
    }
  }
  auto release = [&]() { lock_manager_.ReleaseShared(txn->id()); };

  exec::TableSource source = [&](size_t index) -> Result<std::vector<Row>> {
    const TableInfo* info = plan.tables[index].info;
    TraceSpan scan_span(tc, "db2.scan " + info->name);
    IDAA_ASSIGN_OR_RETURN(const StoredTable* table,
                          row_store_.GetTable(info->table_id));
    std::vector<Row> rows;
    // Index access path: first-column equality served from the hash index
    // (the runtime re-checks the full predicate on the fetched rows).
    const Value* key = table->has_index()
                           ? FindIndexKey(plan.tables[index].scan_predicate.get())
                           : nullptr;
    scan_span.Attr("access_path",
                   key != nullptr ? "primary-key hash index" : "table scan");
    if (key != nullptr) {
      for (uint64_t rid : table->IndexLookup(*key)) {
        auto row = table->Get(rid);
        if (row.ok()) rows.push_back(std::move(*row));
      }
      scan_span.Attr("rows", static_cast<uint64_t>(rows.size()));
      return rows;
    }
    auto stored = table->ScanLive();
    rows.reserve(stored.size());
    for (auto& sr : stored) rows.push_back(std::move(sr.values));
    scan_span.Attr("rows", static_cast<uint64_t>(rows.size()));
    return rows;
  };

  exec::ExecutorOptions options;
  options.metrics = metrics_;
  auto result = exec::ExecuteBoundSelect(plan, source, options);
  release();
  return result;
}

Result<size_t> Db2Engine::InsertRows(const TableInfo& info,
                                     std::vector<Row> rows, Transaction* txn) {
  IDAA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), info.table_id, LockMode::kExclusive));
  IDAA_ASSIGN_OR_RETURN(StoredTable* table, row_store_.GetTable(info.table_id));
  bool capture = NeedsCapture(info);
  size_t inserted = 0;
  for (Row& row : rows) {
    IDAA_ASSIGN_OR_RETURN(Row coerced, CoerceRowToSchema(row, info.schema));
    IDAA_ASSIGN_OR_RETURN(uint64_t rid, table->Insert(std::move(coerced)));
    ++inserted;
    txn->AddUndo([table, rid] { (void)table->Delete(rid); });
    if (capture) {
      CapturedChange change;
      change.op = CapturedChange::Op::kInsert;
      change.table_name = info.name;
      change.rid = rid;
      IDAA_ASSIGN_OR_RETURN(change.row, table->Get(rid));
      txn->CaptureChange(std::move(change));
    }
    if (metrics_ != nullptr) {
      metrics_->Increment(metric::kDb2RowsMaterialized);
      metrics_->Add(metric::kDb2BytesMaterialized, RowByteSize(row));
    }
  }
  return inserted;
}

Result<size_t> Db2Engine::ExecuteUpdate(const sql::BoundUpdate& plan,
                                        Transaction* txn) {
  const TableInfo& info = *plan.table;
  IDAA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), info.table_id, LockMode::kExclusive));
  IDAA_ASSIGN_OR_RETURN(StoredTable* table, row_store_.GetTable(info.table_id));
  bool capture = NeedsCapture(info);

  IDAA_ASSIGN_OR_RETURN(std::vector<StoredRow> matches,
                        ScanMatching(*table, plan.where.get()));
  size_t updated = 0;
  for (const StoredRow& stored : matches) {
    Row new_row = stored.values;
    for (const auto& [col, expr] : plan.assignments) {
      IDAA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, stored.values));
      if (!v.is_null() && !ValueMatchesType(v, info.schema.Column(col).type)) {
        IDAA_ASSIGN_OR_RETURN(v, v.CastTo(info.schema.Column(col).type));
      }
      new_row[col] = std::move(v);
    }
    IDAA_RETURN_IF_ERROR(info.schema.ValidateRow(new_row));
    Row old_row = stored.values;
    IDAA_RETURN_IF_ERROR(table->Update(stored.rid, new_row));
    ++updated;
    uint64_t rid = stored.rid;
    txn->AddUndo([table, rid, old_row] { (void)table->Update(rid, old_row); });
    if (capture) {
      CapturedChange change;
      change.op = CapturedChange::Op::kUpdate;
      change.table_name = info.name;
      change.rid = rid;
      change.row = new_row;
      change.old_row = old_row;
      txn->CaptureChange(std::move(change));
    }
  }
  return updated;
}

Result<size_t> Db2Engine::ExecuteDelete(const sql::BoundDelete& plan,
                                        Transaction* txn) {
  const TableInfo& info = *plan.table;
  IDAA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), info.table_id, LockMode::kExclusive));
  IDAA_ASSIGN_OR_RETURN(StoredTable* table, row_store_.GetTable(info.table_id));
  bool capture = NeedsCapture(info);

  IDAA_ASSIGN_OR_RETURN(std::vector<StoredRow> matches,
                        ScanMatching(*table, plan.where.get()));
  size_t deleted = 0;
  for (const StoredRow& stored : matches) {
    IDAA_RETURN_IF_ERROR(table->Delete(stored.rid));
    ++deleted;
    uint64_t rid = stored.rid;
    txn->AddUndo([table, rid] { (void)table->Undelete(rid); });
    if (capture) {
      CapturedChange change;
      change.op = CapturedChange::Op::kDelete;
      change.table_name = info.name;
      change.rid = rid;
      change.old_row = stored.values;
      txn->CaptureChange(std::move(change));
    }
  }
  return deleted;
}

Result<std::vector<Row>> Db2Engine::TableSnapshot(const TableInfo& info,
                                                  Transaction* txn) {
  IDAA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), info.table_id, LockMode::kShared));
  IDAA_ASSIGN_OR_RETURN(const StoredTable* table,
                        row_store_.GetTable(info.table_id));
  std::vector<Row> rows;
  for (auto& sr : table->ScanLive()) rows.push_back(std::move(sr.values));
  lock_manager_.ReleaseShared(txn->id());
  return rows;
}

}  // namespace idaa::db2
