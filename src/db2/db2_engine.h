// Db2Engine: the simulated DB2 for z/OS front end — system of record,
// lock-based transactions (cursor stability), row-store DML, volcano query
// execution. Statements touching accelerator-only tables never reach this
// engine; the federation layer delegates them (see federation/).

#pragma once

#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/row.h"
#include "common/trace.h"
#include "engine/select_runtime.h"
#include "db2/row_store.h"
#include "sql/binder.h"
#include "txn/lock_manager.h"
#include "txn/transaction_manager.h"

namespace idaa::db2 {

class Db2Engine {
 public:
  Db2Engine(Catalog* catalog, TransactionManager* txn_manager,
            MetricsRegistry* metrics)
      : catalog_(catalog), txn_manager_(txn_manager), metrics_(metrics) {}

  /// Allocate row-store storage for a (non-AOT) table already registered in
  /// the catalog.
  Status CreateTableStorage(const TableInfo& info);

  Status DropTableStorage(const TableInfo& info);

  /// SELECT under cursor stability: S locks for the duration of the
  /// statement, scan of the committed state. With a trace context, records
  /// lock-wait time and a per-table scan span naming the access path
  /// (hash index vs. table scan).
  Result<ResultSet> ExecuteSelect(const sql::BoundSelect& plan,
                                  Transaction* txn, TraceContext tc = {});

  /// Insert fully-materialized rows (from VALUES or an already-executed
  /// source query). Validates against the schema, takes an X lock, records
  /// undo, captures changes when the table is replicated to the accelerator.
  Result<size_t> InsertRows(const TableInfo& info, std::vector<Row> rows,
                            Transaction* txn);

  /// Searched UPDATE / DELETE: a full scan of the live rows (see
  /// ScanMatching). A WHERE error fails the statement before any row
  /// changes.
  Result<size_t> ExecuteUpdate(const sql::BoundUpdate& plan, Transaction* txn);
  Result<size_t> ExecuteDelete(const sql::BoundDelete& plan, Transaction* txn);

  /// Snapshot of a table's live rows (initial accelerator load).
  Result<std::vector<Row>> TableSnapshot(const TableInfo& info,
                                         Transaction* txn);

  LockManager& lock_manager() { return lock_manager_; }
  RowStore& row_store() { return row_store_; }

 private:
  /// Whether changes to this table must be captured for replication.
  bool NeedsCapture(const TableInfo& info) const {
    return info.kind == TableKind::kAccelerated;
  }

  /// Live rows satisfying `predicate` (nullable), tested in place so only
  /// matches are copied; the rows examined are counted under
  /// db2.rows_scanned, one Add per statement.
  Result<std::vector<StoredRow>> ScanMatching(const StoredTable& table,
                                              const sql::BoundExpr* predicate);

  Catalog* catalog_;
  TransactionManager* txn_manager_;
  MetricsRegistry* metrics_;
  RowStore row_store_;
  LockManager lock_manager_;
};

}  // namespace idaa::db2
