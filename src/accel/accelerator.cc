#include "accel/accelerator.h"

namespace idaa::accel {

const char* AcceleratorStateToString(AcceleratorState state) {
  switch (state) {
    case AcceleratorState::kOnline:
      return "ONLINE";
    case AcceleratorState::kOffline:
      return "OFFLINE";
    case AcceleratorState::kRecovering:
      return "RECOVERING";
  }
  return "UNKNOWN";
}

Status Accelerator::CheckReady(const char* op) const {
  AcceleratorState s = state();
  if (s != AcceleratorState::kOnline) {
    return Status::Unavailable(std::string(op) + ": accelerator " + name_ +
                               " is " +
                               (s == AcceleratorState::kOffline
                                    ? "offline"
                                    : "recovering (replaying replication "
                                      "backlog)"));
  }
  if (injector_ != nullptr) {
    Status st = injector_->MaybeFail(FaultInjector::AcceleratorSite(name_));
    if (!st.ok()) {
      metrics_->Increment(metric::kFaultsInjected);
      return st;
    }
  }
  return Status::OK();
}

Accelerator::Accelerator(const AcceleratorOptions& options,
                         TransactionManager* tm, MetricsRegistry* metrics,
                         std::string name)
    : options_(options), name_(Catalog::NormalizeName(name)),
      encoding_enabled_(options.enable_encoding), tm_(tm),
      metrics_(metrics), pool_(options.num_threads) {}

void Accelerator::SetEncodingEnabled(bool enabled) {
  encoding_enabled_ = enabled;
  // Tables created after the toggle inherit it (AddTable copies options_).
  options_.enable_encoding = enabled;
  std::vector<std::shared_ptr<ColumnTable>> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, table] : tables_) tables.push_back(table);
  }
  for (const auto& table : tables) table->SetEncodingEnabled(enabled);
}

size_t Accelerator::NumTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

Status Accelerator::AddTable(const TableInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string name = Catalog::NormalizeName(info.name);
  if (tables_.count(name)) {
    return Status::AlreadyExists("accelerator table already exists: " + name);
  }
  tables_[name] = std::make_shared<ColumnTable>(
      info.schema, info.distribution_column, options_);
  return Status::OK();
}

Status Accelerator::RemoveTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!tables_.erase(Catalog::NormalizeName(name))) {
    return Status::NotFound("accelerator table not found: " + name);
  }
  return Status::OK();
}

bool Accelerator::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(Catalog::NormalizeName(name)) > 0;
}

Result<ColumnTable*> Accelerator::GetTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Catalog::NormalizeName(name));
  if (it == tables_.end()) {
    return Status::NotFound("accelerator table not found: " + name);
  }
  return it->second.get();
}

Result<const ColumnTable*> Accelerator::GetTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Catalog::NormalizeName(name));
  if (it == tables_.end()) {
    return Status::NotFound("accelerator table not found: " + name);
  }
  return const_cast<const ColumnTable*>(it->second.get());
}

Status Accelerator::LoadRows(const std::string& name,
                             const std::vector<Row>& rows, TxnId txn) {
  IDAA_RETURN_IF_ERROR(CheckReady("LOAD"));
  IDAA_ASSIGN_OR_RETURN(ColumnTable * table, GetTable(name));
  return table->Insert(rows, txn);
}

Status Accelerator::LoadColumnar(const std::string& name,
                                 const ColumnarRows& rows, TxnId txn) {
  IDAA_RETURN_IF_ERROR(CheckReady("LOAD"));
  IDAA_ASSIGN_OR_RETURN(ColumnTable * table, GetTable(name));
  return table->InsertColumnar(rows, txn);
}

AccelTableResolver Accelerator::resolver() const {
  return [this](const sql::BoundTable& bt) -> Result<const ColumnTable*> {
    return GetTable(bt.info->name);
  };
}

Status Accelerator::InsertSelect(const std::string& target,
                                 const sql::BoundSelect& plan,
                                 const std::vector<size_t>& column_mapping,
                                 TxnId txn, Csn snapshot, TraceContext tc,
                                 InsertSelectResult* out) {
  IDAA_RETURN_IF_ERROR(CheckReady("INSERT"));
  IDAA_ASSIGN_OR_RETURN(ColumnTable * table, GetTable(target));
  const InsertLayout layout =
      MakeInsertLayout(plan, column_mapping, table->schema());
  IDAA_ASSIGN_OR_RETURN(
      std::optional<std::vector<ColumnarRows>> columnar,
      ExecuteAccelSelectInto(plan, layout, resolver(), txn, snapshot, *tm_,
                             &pool_, metrics_, tc, batch_options()));
  out->columnar = columnar.has_value();
  std::vector<ColumnarRows> batches;
  if (columnar.has_value()) {
    batches = std::move(*columnar);
  } else {
    IDAA_ASSIGN_OR_RETURN(
        ResultSet rows,
        ExecuteAccelSelect(plan, resolver(), txn, snapshot, *tm_, &pool_,
                           metrics_, tc, batch_options()));
    IDAA_ASSIGN_OR_RETURN(
        ColumnarRows staged,
        RowsToColumnar(rows.rows(), column_mapping, table->schema()));
    batches.push_back(std::move(staged));
  }
  out->appending = true;
  IDAA_RETURN_IF_ERROR(table->InsertColumnar(batches, txn));
  for (const ColumnarRows& b : batches) out->rows += b.num_rows;
  return Status::OK();
}

Result<std::optional<std::vector<ColumnarRows>>> Accelerator::SelectInto(
    const sql::BoundSelect& plan, const InsertLayout& layout, TxnId reader,
    Csn snapshot, TraceContext tc) {
  IDAA_RETURN_IF_ERROR(CheckReady("SELECT"));
  return ExecuteAccelSelectInto(plan, layout, resolver(), reader, snapshot,
                                *tm_, &pool_, metrics_, tc, batch_options());
}

Result<ResultSet> Accelerator::ExecuteSelect(const sql::BoundSelect& plan,
                                             TxnId reader, Csn snapshot,
                                             TraceContext tc) {
  IDAA_RETURN_IF_ERROR(CheckReady("SELECT"));
  return ExecuteAccelSelect(plan, resolver(), reader, snapshot, *tm_, &pool_,
                            metrics_, tc, batch_options());
}

Result<size_t> Accelerator::ExecuteUpdate(const sql::BoundUpdate& plan,
                                          TxnId txn, Csn snapshot) {
  IDAA_RETURN_IF_ERROR(CheckReady("UPDATE"));
  IDAA_ASSIGN_OR_RETURN(ColumnTable * table, GetTable(plan.table->name));
  std::vector<std::pair<size_t, const sql::BoundExpr*>> assignments;
  assignments.reserve(plan.assignments.size());
  for (const auto& [col, expr] : plan.assignments) {
    assignments.emplace_back(col, expr.get());
  }
  return table->UpdateWhere(assignments, plan.where.get(), txn, snapshot, *tm_);
}

Result<size_t> Accelerator::ExecuteDelete(const sql::BoundDelete& plan,
                                          TxnId txn, Csn snapshot) {
  IDAA_RETURN_IF_ERROR(CheckReady("DELETE"));
  IDAA_ASSIGN_OR_RETURN(ColumnTable * table, GetTable(plan.table->name));
  return table->DeleteWhere(plan.where.get(), txn, snapshot, *tm_);
}

GroomStats Accelerator::GroomAll() {
  Csn horizon = tm_->OldestActiveSnapshot();
  GroomStats total;
  // Keep the snapshot alive by ownership: a concurrent DROP TABLE or AOT
  // re-create may erase entries from tables_ while we groom.
  std::vector<std::pair<std::string, std::shared_ptr<ColumnTable>>> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, table] : tables_) tables.emplace_back(name, table);
  }
  std::vector<std::string> compacted;
  for (const auto& [name, table] : tables) {
    GroomStats stats = table->Groom(horizon, *tm_);
    total.rows_examined += stats.rows_examined;
    total.rows_reclaimed += stats.rows_reclaimed;
    total.zones_compacted += stats.zones_compacted;
    if (stats.rows_reclaimed > 0 || stats.zones_compacted > 0) {
      compacted.push_back(name);
    }
  }
  // Compaction changed the physical layout (and bumped the tables'
  // compaction epochs); layout-independent logical results are unchanged,
  // but cached results must not outlive the layout they were computed on.
  if (!compacted.empty() && compaction_listener_) {
    compaction_listener_(compacted);
  }
  return total;
}

std::vector<std::string> Accelerator::ListTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Result<size_t> Accelerator::TableVersions(const std::string& name) const {
  IDAA_ASSIGN_OR_RETURN(const ColumnTable* table, GetTable(name));
  return table->NumVersions();
}

Result<std::vector<Row>> Accelerator::SnapshotRows(const std::string& name,
                                                   TxnId reader,
                                                   Csn snapshot) const {
  IDAA_ASSIGN_OR_RETURN(const ColumnTable* table, GetTable(name));
  return ParallelScan(*table, /*predicate=*/nullptr, reader, snapshot, *tm_,
                      /*pool=*/nullptr, metrics_, /*projection=*/nullptr, {},
                      batch_options());
}

Result<ReplicaRoute> Accelerator::ReplicaRouteFor(const std::string& table) {
  IDAA_ASSIGN_OR_RETURN(ColumnTable * storage, GetTable(table));
  ReplicaRoute route;
  route.targets.push_back(storage);
  return route;
}

Result<std::vector<Row>> Accelerator::ScanTable(
    const std::string& name, const sql::BoundExpr* predicate, TxnId reader,
    Csn snapshot, const std::vector<uint8_t>* projection, TraceContext tc,
    std::optional<size_t> limit_cap) {
  IDAA_RETURN_IF_ERROR(CheckReady("SELECT"));
  IDAA_ASSIGN_OR_RETURN(const ColumnTable* table,
                        static_cast<const Accelerator*>(this)->GetTable(name));
  return ParallelScan(*table, predicate, reader, snapshot, *tm_, &pool_,
                      metrics_, projection, tc, batch_options(), limit_cap);
}

Result<std::optional<AggPartial>> Accelerator::ExecuteSelectPartial(
    const sql::BoundSelect& plan, TxnId reader, Csn snapshot, TraceContext tc) {
  IDAA_RETURN_IF_ERROR(CheckReady("SELECT"));
  return ExecuteAccelSelectPartial(plan, resolver(), reader, snapshot, *tm_,
                                   &pool_, metrics_, tc, batch_options());
}

}  // namespace idaa::accel
