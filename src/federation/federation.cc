#include "federation/federation.h"

#include <algorithm>

#include "accel/accel_executor.h"
#include "common/string_util.h"
#include "sql/parser.h"

namespace idaa::federation {

using governance::Privilege;

namespace {

/// Grant the full privilege set on a newly created object to its creator.
void GrantAllToCreator(governance::AuthorizationManager* auth,
                       const std::string& user, const std::string& object) {
  for (Privilege p : {Privilege::kSelect, Privilege::kInsert,
                      Privilege::kUpdate, Privilege::kDelete}) {
    (void)auth->Grant(user, object, p);
  }
}

/// Does the plan reference an accelerator-only table? AOTs have no DB2
/// copy, so statements touching them can never fail back.
bool PlanHasAot(const sql::BoundSelect& plan) {
  for (const auto& bt : plan.tables) {
    if (bt.info->kind == TableKind::kAcceleratorOnly) return true;
  }
  return false;
}

/// Annotate a retryable failure that cannot fail back with the reason.
Status NoFailbackError(const Status& failure, const std::string& why) {
  return Status(failure.code(), failure.message() + "; " + why);
}

}  // namespace

RetryPolicy FederationEngine::PolicyFor(const Session& session) const {
  RetryPolicy policy = retry_policy_;
  if (session.deadline_us > 0) policy.deadline_us = session.deadline_us;
  return policy;
}

void FederationEngine::RecordShardHealth(const std::string& name,
                                         bool success) {
  auto a = AcceleratorByName(name);
  if (!a.ok() || (*a)->num_shards() <= 1) return;
  std::vector<accel::AcceleratorState> states = (*a)->ShardStates();
  for (size_t i = 0; i < states.size(); ++i) {
    std::string site = name + "#" + std::to_string(i);
    if (states[i] == accel::AcceleratorState::kOnline) {
      if (success) health_.RecordSuccess(site);
    } else if (!success) {
      health_.RecordFailure(site);
    }
  }
}

Result<std::vector<Row>> FederationEngine::SendRowsRetry(
    const std::vector<Row>& rows, const Session& session, TraceContext tc,
    uint32_t* retries) {
  std::vector<Row> delivered;
  RetryOutcome outcome =
      RetryWithBackoff(PolicyFor(session), tc, [&]() -> Status {
        auto sent = channel_->SendRowsToAccelerator(rows, tc);
        if (!sent.ok()) return sent.status();
        delivered = std::move(*sent);
        return Status::OK();
      });
  if (retries != nullptr) *retries += outcome.retries;
  if (outcome.retries > 0) {
    metrics_->Add(metric::kFederationRetries, outcome.retries);
  }
  if (!outcome.status.ok()) return outcome.status;
  return delivered;
}

Result<ResultSet> FederationEngine::FetchResultRetry(const ResultSet& result,
                                                     const Session& session,
                                                     TraceContext tc,
                                                     uint32_t* retries) {
  ResultSet fetched;
  RetryOutcome outcome =
      RetryWithBackoff(PolicyFor(session), tc, [&]() -> Status {
        auto got = channel_->FetchResultFromAccelerator(result, tc);
        if (!got.ok()) return got.status();
        fetched = std::move(*got);
        return Status::OK();
      });
  if (retries != nullptr) *retries += outcome.retries;
  if (outcome.retries > 0) {
    metrics_->Add(metric::kFederationRetries, outcome.retries);
  }
  if (!outcome.status.ok()) return outcome.status;
  return fetched;
}

Status FederationEngine::SendStatementRetry(const std::string& sql,
                                            const Session& session,
                                            TraceContext tc,
                                            uint32_t* retries) {
  RetryOutcome outcome = RetryWithBackoff(
      PolicyFor(session), tc,
      [&]() -> Status { return channel_->SendStatement(sql, tc); });
  if (retries != nullptr) *retries += outcome.retries;
  if (outcome.retries > 0) {
    metrics_->Add(metric::kFederationRetries, outcome.retries);
  }
  return outcome.status;
}

Status FederationEngine::Authorize(const Session& session,
                                   const std::string& object,
                                   Privilege privilege,
                                   const std::string& action) {
  metrics_->Increment(metric::kGovernanceChecks);
  Status status = auth_->Check(session.user, object, privilege);
  audit_->Record(session.user, action, object, status.ok(),
                 status.ok() ? "" : status.message());
  return status;
}

Result<accel::Accelerator*> FederationEngine::AcceleratorByName(
    const std::string& name) const {
  std::string normalized = Catalog::NormalizeName(name);
  for (accel::Accelerator* a : accelerators_) {
    if (a->name() == normalized) return a;
  }
  return Status::NotFound("no such accelerator: " + name);
}

Result<accel::Accelerator*> FederationEngine::AcceleratorHostingTable(
    const TableInfo& info) const {
  if (info.accelerator_name.empty()) {
    return Status::InvalidArgument("table " + info.name +
                                   " has no accelerator-side data");
  }
  return AcceleratorByName(info.accelerator_name);
}

Result<accel::Accelerator*> FederationEngine::AcceleratorForTable(
    const TableInfo& info, const char* op) const {
  IDAA_ASSIGN_OR_RETURN(accel::Accelerator * a, AcceleratorHostingTable(info));
  accel::AcceleratorState state = a->state();
  if (state != accel::AcceleratorState::kOnline) {
    return Status::Unavailable(
        std::string(op) + " on table " + info.name + ": accelerator " +
        a->name() + " is " +
        (state == accel::AcceleratorState::kOffline ? "offline"
                                                    : "recovering"));
  }
  return a;
}

Result<accel::Accelerator*> FederationEngine::AcceleratorForReplication(
    const TableInfo& info) const {
  IDAA_ASSIGN_OR_RETURN(accel::Accelerator * a, AcceleratorHostingTable(info));
  if (a->state() == accel::AcceleratorState::kOffline) {
    return Status::Unavailable("replication apply on table " + info.name +
                               ": accelerator " + a->name() + " is offline");
  }
  return a;
}

Result<accel::Accelerator*> FederationEngine::AcceleratorForPlan(
    const sql::BoundSelect& plan, const char* op) const {
  accel::Accelerator* chosen = nullptr;
  for (const auto& bt : plan.tables) {
    IDAA_ASSIGN_OR_RETURN(accel::Accelerator * a,
                          AcceleratorForTable(*bt.info, op));
    if (chosen != nullptr && a != chosen) {
      return Status::SemanticError(
          "statement references tables on different accelerators (" +
          chosen->name() + ", " + a->name() + ")");
    }
    chosen = a;
  }
  if (chosen == nullptr) {
    return Status::Internal("no accelerator-resident table in plan");
  }
  return chosen;
}

accel::Accelerator* FederationEngine::LeastLoadedAccelerator() const {
  accel::Accelerator* best = nullptr;
  for (accel::Accelerator* a : accelerators_) {
    if (!a->available()) continue;
    if (best == nullptr || a->NumTables() < best->NumTables()) best = a;
  }
  return best != nullptr ? best : accelerators_.front();
}

Result<ExecResult> FederationEngine::Execute(const sql::Statement& stmt,
                                             const Session& session,
                                             Transaction* txn,
                                             TraceContext tc) {
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      return ExecuteSelect(static_cast<const sql::SelectStatement&>(stmt),
                           session, txn, tc);
    case sql::StatementKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStatement&>(stmt),
                           session, txn, tc);
    case sql::StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStatement&>(stmt),
                           session, txn, tc);
    case sql::StatementKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStatement&>(stmt),
                           session, txn, tc);
    case sql::StatementKind::kCreateTable:
      return ExecuteCreateTable(
          static_cast<const sql::CreateTableStatement&>(stmt), session, txn);
    case sql::StatementKind::kDropTable:
      return ExecuteDropTable(static_cast<const sql::DropTableStatement&>(stmt),
                              session);
    case sql::StatementKind::kGrant:
    case sql::StatementKind::kRevoke:
      return ExecuteGrantRevoke(stmt, session);
    case sql::StatementKind::kCall:
      return ExecuteCall(static_cast<const sql::CallStatement&>(stmt), session,
                         txn, tc);
    case sql::StatementKind::kExplain:
      return ExecuteExplain(static_cast<const sql::ExplainStatement&>(stmt),
                            session, txn);
  }
  return Status::NotSupported("unhandled statement kind");
}

Result<ResultSet> FederationEngine::RunSelectOn(Target target,
                                                const sql::BoundSelect& plan,
                                                Transaction* txn,
                                                TraceContext tc) {
  if (target == Target::kAccelerator) {
    metrics_->Increment(metric::kQueriesRoutedToAccel);
    IDAA_ASSIGN_OR_RETURN(accel::Accelerator * accelerator,
                          AcceleratorForPlan(plan, "SELECT"));
    TraceSpan exec_span(tc, "accel.execute");
    return accelerator->ExecuteSelect(plan, txn->id(), txn->snapshot_csn(),
                                      exec_span.context());
  }
  metrics_->Increment(metric::kQueriesRoutedToDb2);
  TraceSpan exec_span(tc, "db2.execute");
  return db2_->ExecuteSelect(plan, txn, exec_span.context());
}

Result<ResultSet> FederationEngine::AccelSelectWithRetry(
    const std::string& sql_text, const sql::BoundSelect& plan,
    const Session& session, Transaction* txn, TraceContext tc,
    uint32_t* retries, bool fetch_result) {
  // Resolve first: a known-down accelerator fails fast with kUnavailable
  // (naming accelerator + statement kind) instead of burning the backoff
  // schedule on it.
  IDAA_ASSIGN_OR_RETURN(accel::Accelerator * accelerator,
                        AcceleratorForPlan(plan, "SELECT"));
  const std::string& name = accelerator->name();
  if (!health_.AllowRequest(name)) {
    return Status::Unavailable("SELECT rejected: accelerator " + name +
                               " circuit breaker is open");
  }
  ResultSet result;
  RetryOutcome outcome =
      RetryWithBackoff(PolicyFor(session), tc, [&]() -> Status {
        IDAA_RETURN_IF_ERROR(channel_->SendStatement(sql_text, tc));
        auto executed = RunSelectOn(Target::kAccelerator, plan, txn, tc);
        if (!executed.ok()) return executed.status();
        if (!fetch_result) {
          result = std::move(*executed);
          return Status::OK();
        }
        // The result crosses the accelerator -> DB2 boundary to the client.
        auto fetched = channel_->FetchResultFromAccelerator(*executed, tc);
        if (!fetched.ok()) return fetched.status();
        result = std::move(*fetched);
        return Status::OK();
      });
  if (retries != nullptr) *retries += outcome.retries;
  if (outcome.retries > 0) {
    metrics_->Add(metric::kFederationRetries, outcome.retries);
  }
  // Breaker accounting is per statement, not per attempt: a statement that
  // eventually succeeded is evidence of health, and only an exhausted
  // retryable failure is evidence of sickness.
  if (outcome.status.ok()) {
    health_.RecordSuccess(name);
    RecordShardHealth(name, /*success=*/true);
  } else if (outcome.status.retryable()) {
    health_.RecordFailure(name);
    RecordShardHealth(name, /*success=*/false);
  }
  if (!outcome.status.ok()) return outcome.status;
  return result;
}

Result<ExecResult> FederationEngine::ExecuteSelect(
    const sql::SelectStatement& stmt, const Session& session, Transaction* txn,
    TraceContext tc) {
  for (const std::string& table : sql::ReferencedTables(stmt)) {
    IDAA_RETURN_IF_ERROR(
        Authorize(session, table, Privilege::kSelect, "SELECT"));
  }
  TraceSpan route_span(tc, "route");
  IDAA_ASSIGN_OR_RETURN(RoutingDecision route,
                        router_.RouteSelect(stmt, session.acceleration));
  route_span.Attr("target", route.target == Target::kAccelerator
                                ? "ACCELERATOR"
                                : "DB2");
  route_span.Attr("reason", route.reason);
  route_span.End();
  sql::Binder binder(*catalog_);
  TraceSpan bind_span(tc, "bind");
  IDAA_ASSIGN_OR_RETURN(sql::BoundSelect plan, binder.BindSelect(stmt));
  bind_span.End();

  ExecResult out;
  out.executed_on = route.target;
  out.detail = route.reason;
  out.failed_back = route.failed_back;
  if (route.target != Target::kAccelerator) {
    IDAA_ASSIGN_OR_RETURN(out.result_set,
                          RunSelectOn(route.target, plan, txn, tc));
    return out;
  }
  auto accelerated = AccelSelectWithRetry(stmt.ToSql(), plan, session, txn,
                                          tc, &out.retries,
                                          /*fetch_result=*/true);
  if (accelerated.ok()) {
    out.result_set = std::move(*accelerated);
    return out;
  }
  Status failure = accelerated.status();
  if (!failure.retryable()) return failure;
  if (!AccelerationAllowsFailback(session.acceleration)) return failure;
  if (PlanHasAot(plan)) {
    return NoFailbackError(failure,
                           "accelerator-only tables have no DB2 copy and "
                           "cannot fail back");
  }
  // Transparent failback: re-execute on the DB2 copies of the accelerated
  // tables. Same transaction, same plan — only the engine changes.
  TraceSpan failback_span(tc, "failback");
  failback_span.Attr("error", failure.ToString());
  metrics_->Increment(metric::kFederationFailbacks);
  out.executed_on = Target::kDb2;
  out.failed_back = true;
  out.detail = "failed back to DB2 (" + failure.ToString() + ")";
  IDAA_ASSIGN_OR_RETURN(
      out.result_set,
      RunSelectOn(Target::kDb2, plan, txn, failback_span.context()));
  return out;
}

Status FederationEngine::AotWriteWithRetry(
    accel::Accelerator* target_accel, const Session& session, TraceContext tc,
    uint32_t* retries, const std::function<Status()>& attempt) {
  RetryOutcome outcome = RetryWithBackoff(PolicyFor(session), tc, attempt);
  *retries += outcome.retries;
  if (outcome.retries > 0) {
    metrics_->Add(metric::kFederationRetries, outcome.retries);
  }
  if (outcome.status.ok()) {
    health_.RecordSuccess(target_accel->name());
    RecordShardHealth(target_accel->name(), /*success=*/true);
  } else if (outcome.status.retryable()) {
    health_.RecordFailure(target_accel->name());
    RecordShardHealth(target_accel->name(), /*success=*/false);
    // AOT writes have no DB2 fallback: surface a clear error.
    return NoFailbackError(outcome.status,
                           "accelerator-only tables have no DB2 copy and "
                           "cannot fail back");
  }
  return outcome.status;
}

Result<std::vector<Row>> FederationEngine::InsertSourceRows(
    const sql::InsertStatement& stmt, const sql::BoundInsert& bound,
    Target* source, const Session& session, Transaction* txn, TraceContext tc,
    ExecResult* out) {
  if (*source != Target::kAccelerator) {
    IDAA_ASSIGN_OR_RETURN(ResultSet rows,
                          RunSelectOn(*source, *bound.select, txn, tc));
    return std::move(rows.mutable_rows());
  }
  auto src = AccelSelectWithRetry(stmt.select->ToSql(), *bound.select,
                                  session, txn, tc, &out->retries,
                                  /*fetch_result=*/false);
  if (!src.ok() && src.status().retryable() &&
      AccelerationAllowsFailback(session.acceleration)) {
    if (PlanHasAot(*bound.select)) {
      return NoFailbackError(src.status(),
                             "accelerator-only tables have no DB2 copy "
                             "and cannot fail back");
    }
    TraceSpan failback_span(tc, "failback");
    failback_span.Attr("error", src.status().ToString());
    metrics_->Increment(metric::kFederationFailbacks);
    out->failed_back = true;
    *source = Target::kDb2;
    src = RunSelectOn(Target::kDb2, *bound.select, txn,
                      failback_span.context());
  }
  if (!src.ok()) return src.status();
  return std::move(src->mutable_rows());
}

Result<ExecResult> FederationEngine::ExecuteInsert(
    const sql::InsertStatement& stmt, const Session& session, Transaction* txn,
    TraceContext tc) {
  IDAA_RETURN_IF_ERROR(
      Authorize(session, stmt.table_name, Privilege::kInsert, "INSERT"));
  if (stmt.select) {
    for (const std::string& table : sql::ReferencedTables(*stmt.select)) {
      IDAA_RETURN_IF_ERROR(
          Authorize(session, table, Privilege::kSelect, "SELECT"));
    }
  }

  sql::Binder binder(*catalog_);
  IDAA_ASSIGN_OR_RETURN(sql::BoundInsert bound, binder.BindInsert(stmt));
  const TableInfo& target = *bound.table;
  bool target_aot = target.kind == TableKind::kAcceleratorOnly;

  ExecResult out;
  out.executed_on = target_aot ? Target::kAccelerator : Target::kDb2;

  if (!bound.select) {
    // INSERT ... VALUES: the rows are already full width and coerced.
    if (!target_aot) {
      IDAA_ASSIGN_OR_RETURN(
          out.affected_rows,
          db2_->InsertRows(target, std::move(bound.values_rows), txn));
      return out;
    }
    IDAA_ASSIGN_OR_RETURN(accel::Accelerator * target_accel,
                          AcceleratorForTable(target, "INSERT"));
    IDAA_ASSIGN_OR_RETURN(
        std::vector<Row> rows,
        SendRowsRetry(bound.values_rows, session, tc, &out.retries));
    out.detail = "INSERT VALUES into AOT";
    IDAA_RETURN_IF_ERROR(AotWriteWithRetry(
        target_accel, session, tc, &out.retries, [&]() -> Status {
          return target_accel->LoadRows(target.name, rows, txn->id());
        }));
    out.affected_rows = rows.size();
    return out;
  }

  IDAA_ASSIGN_OR_RETURN(RoutingDecision route,
                        router_.RouteSelect(*stmt.select, session.acceleration));
  Target source = route.target;
  out.failed_back = route.failed_back;

  accel::Accelerator* target_accel = nullptr;
  bool cross_accelerator = false;
  if (target_aot) {
    IDAA_ASSIGN_OR_RETURN(target_accel, AcceleratorForTable(target, "INSERT"));
    if (source == Target::kAccelerator) {
      for (const std::string& table : sql::ReferencedTables(*stmt.select)) {
        auto src_info = catalog_->GetTable(table);
        if (src_info.ok() &&
            (*src_info)->accelerator_name != target.accelerator_name) {
          cross_accelerator = true;
        }
      }
    }
  }

  if (target_aot && source == Target::kAccelerator && !cross_accelerator) {
    // Fully accelerator-side: only the statement text crosses the boundary
    // and the SELECT's output goes from scan to append inside the
    // accelerator — the paper's ELT optimization. InsertSelect appends
    // nothing unless it succeeds, so the attempt can be retried whole.
    const std::string& name = target_accel->name();
    accel::InsertSelectResult appended;
    Status written;
    if (!health_.AllowRequest(name)) {
      written = Status::Unavailable("INSERT rejected: accelerator " + name +
                                    " circuit breaker is open");
    } else {
      metrics_->Increment(metric::kQueriesRoutedToAccel);
      TraceSpan exec_span(tc, "accel.insert_select");
      written = AotWriteWithRetry(
          target_accel, session, tc, &out.retries, [&]() -> Status {
            appended = {};
            IDAA_RETURN_IF_ERROR(channel_->SendStatement(stmt.ToSql(), tc));
            return target_accel->InsertSelect(
                target.name, *bound.select, bound.column_mapping, txn->id(),
                txn->snapshot_csn(), exec_span.context(), &appended);
          });
      if (written.ok()) {
        const char* path = appended.columnar ? "columnar" : "rows";
        exec_span.Attr("path", path);
        exec_span.Attr("rows_appended", static_cast<uint64_t>(appended.rows));
        out.detail = std::string("INSERT ... SELECT executed entirely on "
                                 "the accelerator (path=") +
                     path + ")";
        out.affected_rows = appended.rows;
        return out;
      }
    }
    // Only a SELECT that could not run (an open breaker, a fault before
    // the append) over tables with DB2 copies may fail back. A failed
    // append does not: the target is an AOT, which has no DB2 copy, so
    // failing back would only send the rows to the same accelerator.
    if (!written.retryable() || appended.appending ||
        !AccelerationAllowsFailback(session.acceleration) ||
        PlanHasAot(*bound.select)) {
      return written;
    }
    // Nothing was appended: re-run the SELECT on the DB2 copies of its
    // accelerated tables and ship its rows like any DB2-sourced insert.
    TraceSpan failback_span(tc, "failback");
    failback_span.Attr("error", written.ToString());
    metrics_->Increment(metric::kFederationFailbacks);
    out.failed_back = true;
    source = Target::kDb2;
  }

  IDAA_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      InsertSourceRows(stmt, bound, &source, session, txn, tc, &out));

  if (target_aot) {
    if (source == Target::kDb2) {
      // Data produced in DB2 must cross the boundary once.
      IDAA_ASSIGN_OR_RETURN(rows,
                            SendRowsRetry(rows, session, tc, &out.retries));
      out.detail = "INSERT into AOT from DB2 source (one boundary crossing)";
    } else {
      // Source and target live on different accelerators: the rows come
      // back to DB2 and go out again (two boundary crossings).
      ResultSet shipped(Schema{}, std::move(rows));
      IDAA_ASSIGN_OR_RETURN(ResultSet fetched,
                            FetchResultRetry(shipped, session, tc,
                                             &out.retries));
      IDAA_ASSIGN_OR_RETURN(
          rows, SendRowsRetry(fetched.rows(), session, tc, &out.retries));
      out.detail = "INSERT ... SELECT across accelerators (two boundary "
                   "crossings)";
    }
    IDAA_ASSIGN_OR_RETURN(
        accel::ColumnarRows staged,
        accel::RowsToColumnar(rows, bound.column_mapping, target.schema));
    IDAA_RETURN_IF_ERROR(AotWriteWithRetry(
        target_accel, session, tc, &out.retries, [&]() -> Status {
          return target_accel->LoadColumnar(target.name, staged, txn->id());
        }));
    out.affected_rows = staged.num_rows;
    return out;
  }

  // Regular DB2 target.
  if (source == Target::kAccelerator) {
    // Legacy materialization path: accelerator result lands in DB2 (and is
    // re-replicated if the target is an accelerated table).
    ResultSet shipped(Schema{}, std::move(rows));
    IDAA_ASSIGN_OR_RETURN(ResultSet fetched,
                          FetchResultRetry(shipped, session, tc,
                                           &out.retries));
    rows = std::move(fetched.mutable_rows());
    out.detail = "accelerator result materialized into DB2 table";
  }
  // Widen each source row to the target's columns (unmapped ones NULL).
  const size_t width = target.schema.NumColumns();
  for (Row& row : rows) {
    Row full(width);
    for (size_t i = 0; i < bound.column_mapping.size(); ++i) {
      full[bound.column_mapping[i]] = std::move(row[i]);
    }
    row = std::move(full);
  }
  IDAA_ASSIGN_OR_RETURN(out.affected_rows,
                        db2_->InsertRows(target, std::move(rows), txn));
  return out;
}

Result<ExecResult> FederationEngine::ExecuteUpdate(
    const sql::UpdateStatement& stmt, const Session& session, Transaction* txn,
    TraceContext tc) {
  IDAA_RETURN_IF_ERROR(
      Authorize(session, stmt.table_name, Privilege::kUpdate, "UPDATE"));
  sql::Binder binder(*catalog_);
  IDAA_ASSIGN_OR_RETURN(sql::BoundUpdate bound, binder.BindUpdate(stmt));
  ExecResult out;
  if (bound.table->kind == TableKind::kAcceleratorOnly) {
    out.executed_on = Target::kAccelerator;
    out.detail = "UPDATE delegated to accelerator (AOT)";
    IDAA_ASSIGN_OR_RETURN(accel::Accelerator * accelerator,
                          AcceleratorForTable(*bound.table, "UPDATE"));
    TraceSpan exec_span(tc, "accel.execute");
    RetryOutcome outcome =
        RetryWithBackoff(PolicyFor(session), tc, [&]() -> Status {
          IDAA_RETURN_IF_ERROR(channel_->SendStatement(stmt.ToSql(), tc));
          auto updated = accelerator->ExecuteUpdate(bound, txn->id(),
                                                    txn->snapshot_csn());
          if (!updated.ok()) return updated.status();
          out.affected_rows = *updated;
          return Status::OK();
        });
    out.retries = outcome.retries;
    if (outcome.retries > 0) {
      metrics_->Add(metric::kFederationRetries, outcome.retries);
    }
    if (outcome.status.ok()) {
      health_.RecordSuccess(accelerator->name());
      RecordShardHealth(accelerator->name(), /*success=*/true);
    } else if (outcome.status.retryable()) {
      health_.RecordFailure(accelerator->name());
      RecordShardHealth(accelerator->name(), /*success=*/false);
      return NoFailbackError(outcome.status,
                             "accelerator-only tables have no DB2 copy and "
                             "cannot fail back");
    }
    IDAA_RETURN_IF_ERROR(outcome.status);
    return out;
  }
  out.executed_on = Target::kDb2;
  TraceSpan exec_span(tc, "db2.execute");
  IDAA_ASSIGN_OR_RETURN(out.affected_rows, db2_->ExecuteUpdate(bound, txn));
  return out;
}

Result<ExecResult> FederationEngine::ExecuteDelete(
    const sql::DeleteStatement& stmt, const Session& session, Transaction* txn,
    TraceContext tc) {
  IDAA_RETURN_IF_ERROR(
      Authorize(session, stmt.table_name, Privilege::kDelete, "DELETE"));
  sql::Binder binder(*catalog_);
  IDAA_ASSIGN_OR_RETURN(sql::BoundDelete bound, binder.BindDelete(stmt));
  ExecResult out;
  if (bound.table->kind == TableKind::kAcceleratorOnly) {
    out.executed_on = Target::kAccelerator;
    out.detail = "DELETE delegated to accelerator (AOT)";
    IDAA_ASSIGN_OR_RETURN(accel::Accelerator * accelerator,
                          AcceleratorForTable(*bound.table, "DELETE"));
    TraceSpan exec_span(tc, "accel.execute");
    RetryOutcome outcome =
        RetryWithBackoff(PolicyFor(session), tc, [&]() -> Status {
          IDAA_RETURN_IF_ERROR(channel_->SendStatement(stmt.ToSql(), tc));
          auto deleted = accelerator->ExecuteDelete(bound, txn->id(),
                                                    txn->snapshot_csn());
          if (!deleted.ok()) return deleted.status();
          out.affected_rows = *deleted;
          return Status::OK();
        });
    out.retries = outcome.retries;
    if (outcome.retries > 0) {
      metrics_->Add(metric::kFederationRetries, outcome.retries);
    }
    if (outcome.status.ok()) {
      health_.RecordSuccess(accelerator->name());
      RecordShardHealth(accelerator->name(), /*success=*/true);
    } else if (outcome.status.retryable()) {
      health_.RecordFailure(accelerator->name());
      RecordShardHealth(accelerator->name(), /*success=*/false);
      return NoFailbackError(outcome.status,
                             "accelerator-only tables have no DB2 copy and "
                             "cannot fail back");
    }
    IDAA_RETURN_IF_ERROR(outcome.status);
    return out;
  }
  out.executed_on = Target::kDb2;
  TraceSpan exec_span(tc, "db2.execute");
  IDAA_ASSIGN_OR_RETURN(out.affected_rows, db2_->ExecuteDelete(bound, txn));
  return out;
}

Result<ExecResult> FederationEngine::ExecuteCreateTable(
    const sql::CreateTableStatement& stmt, const Session& session,
    Transaction* txn) {
  if (!auth_->HasUser(session.user)) {
    return Status::NotAuthorized("unknown user: " + session.user);
  }
  if (stmt.if_not_exists && catalog_->HasTable(stmt.table_name)) {
    ExecResult out;
    out.detail = "table already exists (IF NOT EXISTS)";
    return out;
  }
  TableInfo info;
  info.name = stmt.table_name;
  Schema schema;
  if (stmt.as_select) {
    // CTAS: derive the schema from the query's output.
    for (const std::string& table : sql::ReferencedTables(*stmt.as_select)) {
      IDAA_RETURN_IF_ERROR(
          Authorize(session, table, Privilege::kSelect, "SELECT"));
    }
    sql::Binder binder(*catalog_);
    IDAA_ASSIGN_OR_RETURN(sql::BoundSelect plan,
                          binder.BindSelect(*stmt.as_select));
    for (const auto& col : plan.output_schema.columns()) {
      IDAA_RETURN_IF_ERROR(schema.AddColumn(col));
    }
  } else {
    for (const auto& col : stmt.columns) {
      ColumnDef def;
      def.name = Catalog::NormalizeName(col.name);
      def.type = col.type;
      def.nullable = !col.not_null;
      IDAA_RETURN_IF_ERROR(schema.AddColumn(def));
    }
  }
  info.schema = std::move(schema);
  info.kind = stmt.in_accelerator ? TableKind::kAcceleratorOnly
                                  : TableKind::kDb2Only;
  if (stmt.distribute_by) {
    // Valid on any table: IN ACCELERATOR tables are placed by it
    // immediately; for DB2 tables it is recorded in the catalog and takes
    // effect when the table is accelerated (the replica hash-partitions
    // across slices — and across shards on a sharded accelerator).
    IDAA_ASSIGN_OR_RETURN(size_t idx,
                          info.schema.ColumnIndex(*stmt.distribute_by));
    info.distribution_column = idx;
  }
  IDAA_ASSIGN_OR_RETURN(uint64_t table_id, catalog_->CreateTable(info));
  info.table_id = table_id;
  IDAA_ASSIGN_OR_RETURN(const TableInfo* stored,
                        catalog_->GetTable(stmt.table_name));

  Status storage_status;
  accel::Accelerator* placed = nullptr;
  if (stmt.in_accelerator) {
    // AOT: storage only on the accelerator; DB2 keeps the proxy entry.
    if (stmt.accelerator_name) {
      auto by_name = AcceleratorByName(*stmt.accelerator_name);
      if (!by_name.ok()) {
        (void)catalog_->DropTable(stmt.table_name);
        return by_name.status();
      }
      placed = *by_name;
    } else {
      placed = LeastLoadedAccelerator();
    }
    if (!placed->available()) {
      (void)catalog_->DropTable(stmt.table_name);
      return Status::Unavailable("CREATE TABLE " + stored->name +
                                 ": accelerator " + placed->name() +
                                 " is offline");
    }
    storage_status = channel_->SendStatement(stmt.ToSql());
    if (storage_status.ok()) storage_status = placed->AddTable(*stored);
    if (storage_status.ok()) {
      storage_status =
          catalog_->SetAcceleratorName(stored->name, placed->name());
    }
  } else {
    storage_status = db2_->CreateTableStorage(*stored);
  }
  if (!storage_status.ok()) {
    (void)catalog_->DropTable(stmt.table_name);
    return storage_status;
  }
  GrantAllToCreator(auth_, session.user, stored->name);
  audit_->Record(session.user, "CREATE TABLE", stored->name, true,
                 stmt.in_accelerator ? "accelerator-only" : "db2");
  ExecResult out;
  out.executed_on = stmt.in_accelerator ? Target::kAccelerator : Target::kDb2;
  out.detail = stmt.in_accelerator
                   ? "created accelerator-only table with DB2 proxy entry"
                   : "created DB2 table";
  if (stmt.as_select) {
    // Populate via the regular INSERT ... SELECT machinery (keeps the
    // routing and data-movement accounting identical to a two-statement
    // stage). The select is round-tripped through its SQL text.
    sql::InsertStatement insert;
    insert.table_name = stored->name;
    IDAA_ASSIGN_OR_RETURN(sql::StatementPtr reparsed,
                          sql::ParseStatement(stmt.as_select->ToSql()));
    insert.select.reset(
        static_cast<sql::SelectStatement*>(reparsed.release()));
    auto populated = ExecuteInsert(insert, session, txn);
    if (!populated.ok()) {
      // Roll the DDL back so CTAS is atomic.
      switch (stored->kind) {
        case TableKind::kAcceleratorOnly:
          if (placed != nullptr) (void)placed->RemoveTable(stored->name);
          break;
        default:
          (void)db2_->DropTableStorage(*stored);
      }
      (void)catalog_->DropTable(stmt.table_name);
      return populated.status();
    }
    out.affected_rows = populated->affected_rows;
    out.detail += StrFormat(" and populated %zu rows (CTAS)",
                            populated->affected_rows);
  }
  return out;
}

Result<ExecResult> FederationEngine::ExecuteDropTable(
    const sql::DropTableStatement& stmt, const Session& session) {
  if (stmt.if_exists && !catalog_->HasTable(stmt.table_name)) {
    ExecResult out;
    out.detail = "table does not exist (IF EXISTS)";
    return out;
  }
  IDAA_ASSIGN_OR_RETURN(const TableInfo* info,
                        catalog_->GetTable(stmt.table_name));
  // Ownership proxy: dropping needs DELETE privilege (creator or admin).
  IDAA_RETURN_IF_ERROR(
      Authorize(session, info->name, Privilege::kDelete, "DROP TABLE"));
  switch (info->kind) {
    case TableKind::kAcceleratorOnly: {
      IDAA_ASSIGN_OR_RETURN(accel::Accelerator * a,
                            AcceleratorByName(info->accelerator_name));
      IDAA_RETURN_IF_ERROR(a->RemoveTable(info->name));
      break;
    }
    case TableKind::kAccelerated: {
      replication_->UnregisterTable(info->name);
      IDAA_ASSIGN_OR_RETURN(accel::Accelerator * a,
                            AcceleratorByName(info->accelerator_name));
      IDAA_RETURN_IF_ERROR(a->RemoveTable(info->name));
      IDAA_RETURN_IF_ERROR(db2_->DropTableStorage(*info));
      break;
    }
    case TableKind::kDb2Only:
      IDAA_RETURN_IF_ERROR(db2_->DropTableStorage(*info));
      break;
  }
  std::string name = info->name;
  IDAA_RETURN_IF_ERROR(catalog_->DropTable(name));
  auth_->DropObject(name);
  ExecResult out;
  out.detail = "dropped " + name;
  return out;
}

Result<ExecResult> FederationEngine::ExecuteGrantRevoke(
    const sql::Statement& stmt, const Session& session) {
  // Only the administrator manages privileges in this model.
  if (ToUpper(session.user) !=
      governance::AuthorizationManager::kAdmin) {
    audit_->Record(session.user, "GRANT/REVOKE", "", false,
                   "only SYSADM may manage privileges");
    return Status::NotAuthorized("only SYSADM may manage privileges");
  }
  ExecResult out;
  if (stmt.kind() == sql::StatementKind::kGrant) {
    const auto& grant = static_cast<const sql::GrantStatement&>(stmt);
    auth_->CreateUser(grant.grantee);
    for (const std::string& priv_name : grant.privileges) {
      IDAA_ASSIGN_OR_RETURN(Privilege p,
                            governance::PrivilegeFromString(priv_name));
      IDAA_RETURN_IF_ERROR(auth_->Grant(
          grant.grantee, Catalog::NormalizeName(grant.object_name), p));
    }
    audit_->Record(session.user, "GRANT", grant.object_name, true,
                   "to " + grant.grantee);
    out.detail = "granted";
    return out;
  }
  const auto& revoke = static_cast<const sql::RevokeStatement&>(stmt);
  for (const std::string& priv_name : revoke.privileges) {
    IDAA_ASSIGN_OR_RETURN(Privilege p,
                          governance::PrivilegeFromString(priv_name));
    IDAA_RETURN_IF_ERROR(auth_->Revoke(
        revoke.grantee, Catalog::NormalizeName(revoke.object_name), p));
  }
  audit_->Record(session.user, "REVOKE", revoke.object_name, true,
                 "from " + revoke.grantee);
  out.detail = "revoked";
  return out;
}

Result<ExecResult> FederationEngine::ExecuteCall(const sql::CallStatement& stmt,
                                                 const Session& session,
                                                 Transaction* txn,
                                                 TraceContext tc) {
  std::string name = ToUpper(stmt.procedure_name);
  if (name == "SYSPROC.ACCEL_ADD_TABLES") {
    if (ToUpper(session.user) != governance::AuthorizationManager::kAdmin) {
      return Status::NotAuthorized("only SYSADM may add tables");
    }
    if (stmt.arguments.empty() || stmt.arguments.size() > 2 ||
        !stmt.arguments[0].is_varchar() ||
        (stmt.arguments.size() == 2 && !stmt.arguments[1].is_varchar())) {
      return Status::InvalidArgument(
          "ACCEL_ADD_TABLES expects a table name and an optional "
          "accelerator name");
    }
    IDAA_RETURN_IF_ERROR(AddTableToAccelerator(
        stmt.arguments[0].AsVarchar(), txn,
        stmt.arguments.size() == 2 ? stmt.arguments[1].AsVarchar() : ""));
    audit_->Record(session.user, "ACCEL_ADD_TABLES",
                   stmt.arguments[0].AsVarchar(), true);
    ExecResult out;
    out.detail = "table added to accelerator";
    return out;
  }
  if (name == "SYSPROC.ACCEL_REMOVE_TABLES") {
    if (ToUpper(session.user) != governance::AuthorizationManager::kAdmin) {
      return Status::NotAuthorized("only SYSADM may remove tables");
    }
    if (stmt.arguments.size() != 1 || !stmt.arguments[0].is_varchar()) {
      return Status::InvalidArgument(
          "ACCEL_REMOVE_TABLES expects one VARCHAR table name");
    }
    IDAA_RETURN_IF_ERROR(
        RemoveTableFromAccelerator(stmt.arguments[0].AsVarchar()));
    audit_->Record(session.user, "ACCEL_REMOVE_TABLES",
                   stmt.arguments[0].AsVarchar(), true);
    ExecResult out;
    out.detail = "table removed from accelerator";
    return out;
  }
  if (name == "SYSPROC.ACCEL_LOAD_TABLES") {
    if (ToUpper(session.user) != governance::AuthorizationManager::kAdmin) {
      return Status::NotAuthorized("only SYSADM may reload tables");
    }
    if (stmt.arguments.size() != 1 || !stmt.arguments[0].is_varchar()) {
      return Status::InvalidArgument(
          "ACCEL_LOAD_TABLES expects one VARCHAR table name");
    }
    IDAA_RETURN_IF_ERROR(
        ReloadAcceleratedTable(stmt.arguments[0].AsVarchar(), txn));
    audit_->Record(session.user, "ACCEL_LOAD_TABLES",
                   stmt.arguments[0].AsVarchar(), true);
    ExecResult out;
    out.detail = "replica reloaded from DB2 snapshot";
    return out;
  }
  if (name == "SYSPROC.ACCEL_GET_TABLES_INFO") {
    ExecResult out;
    out.result_set =
        ResultSet{Schema({{"TABLE", DataType::kVarchar, false},
                          {"KIND", DataType::kVarchar, false},
                          {"DB2_ROWS", DataType::kInteger, true},
                          {"ACCEL_VERSIONS", DataType::kInteger, true},
                          {"REPLICATED", DataType::kBoolean, false},
                          {"ACCELERATOR", DataType::kVarchar, true}})};
    for (const std::string& table_name : catalog_->ListTables()) {
      auto info_r = catalog_->GetTable(table_name);
      if (!info_r.ok()) continue;
      const TableInfo* info = *info_r;
      Value db2_rows = Value::Null();
      if (info->kind != TableKind::kAcceleratorOnly) {
        auto stored = db2_->row_store().GetTable(info->table_id);
        if (stored.ok()) {
          db2_rows =
              Value::Integer(static_cast<int64_t>((*stored)->NumLiveRows()));
        }
      }
      Value versions = Value::Null();
      if (!info->accelerator_name.empty()) {
        auto host = AcceleratorByName(info->accelerator_name);
        if (host.ok()) {
          auto accel_versions = (*host)->TableVersions(info->name);
          if (accel_versions.ok()) {
            versions = Value::Integer(static_cast<int64_t>(*accel_versions));
          }
        }
      }
      out.result_set.Append(
          {Value::Varchar(info->name), Value::Varchar(TableKindToString(info->kind)),
           db2_rows, versions,
           Value::Boolean(replication_->IsReplicated(info->name)),
           info->accelerator_name.empty() ? Value::Null()
                                          : Value::Varchar(
                                                info->accelerator_name)});
    }
    out.detail = "catalog snapshot";
    return out;
  }
  if (name == "SYSPROC.ACCEL_GROOM") {
    accel::GroomStats stats;
    for (accel::Accelerator* a : accelerators_) {
      accel::GroomStats one = a->GroomAll();
      stats.rows_examined += one.rows_examined;
      stats.rows_reclaimed += one.rows_reclaimed;
    }
    ExecResult out;
    out.detail = StrFormat("groomed: %zu examined, %zu reclaimed",
                           stats.rows_examined, stats.rows_reclaimed);
    return out;
  }
  if (name == "SYSPROC.ACCEL_CONTROL") {
    if (ToUpper(session.user) != governance::AuthorizationManager::kAdmin) {
      return Status::NotAuthorized("only SYSADM may control accelerators");
    }
    if (stmt.arguments.size() != 2 || !stmt.arguments[0].is_varchar() ||
        !stmt.arguments[1].is_varchar()) {
      return Status::InvalidArgument(
          "ACCEL_CONTROL expects (accelerator, 'ONLINE'|'OFFLINE')");
    }
    IDAA_ASSIGN_OR_RETURN(accel::Accelerator * a,
                          AcceleratorByName(stmt.arguments[0].AsVarchar()));
    std::string command = ToUpper(stmt.arguments[1].AsVarchar());
    ExecResult out;
    if (command == "ONLINE") {
      // Recovery protocol: accept replication applies while the backlog
      // drains (Recovering), then open for queries (Online). A failed
      // catch-up leaves the backlog queued — the accelerator still goes
      // Online and the next commit/Flush retries the apply.
      a->SetState(accel::AcceleratorState::kRecovering);
      size_t backlog = replication_->PendingChanges();
      auto caught_up = replication_->Flush();
      a->SetState(accel::AcceleratorState::kOnline);
      health_.RecordSuccess(a->name());
      out.detail = a->name() + " is now ONLINE (replayed " +
                   std::to_string(backlog) + " pending change(s)" +
                   (caught_up.ok() ? ")"
                                   : "; catch-up incomplete: " +
                                         caught_up.status().ToString() + ")");
    } else if (command == "OFFLINE") {
      a->SetState(accel::AcceleratorState::kOffline);
      out.detail = a->name() + " is now OFFLINE";
    } else {
      return Status::InvalidArgument("unknown ACCEL_CONTROL command: " +
                                     command);
    }
    audit_->Record(session.user, "ACCEL_CONTROL", a->name(), true, command);
    return out;
  }
  if (name == "SYSPROC.ACCEL_VERIFY_TABLES") {
    if (ToUpper(session.user) != governance::AuthorizationManager::kAdmin) {
      return Status::NotAuthorized("only SYSADM may verify tables");
    }
    if (stmt.arguments.size() > 1 ||
        (stmt.arguments.size() == 1 && !stmt.arguments[0].is_varchar())) {
      return Status::InvalidArgument(
          "ACCEL_VERIFY_TABLES expects an optional VARCHAR table name");
    }
    ExecResult out;
    IDAA_ASSIGN_OR_RETURN(
        out.result_set,
        VerifyAcceleratedTables(
            stmt.arguments.empty() ? "" : stmt.arguments[0].AsVarchar(), txn));
    audit_->Record(session.user, "ACCEL_VERIFY_TABLES",
                   stmt.arguments.empty() ? "*"
                                          : stmt.arguments[0].AsVarchar(),
                   true);
    out.detail = "replica content compared against DB2";
    return out;
  }
  // Analytics / user procedures: EXECUTE privilege, then delegate.
  IDAA_RETURN_IF_ERROR(
      Authorize(session, name, Privilege::kExecute, "CALL " + name));
  if (!procedure_handler_) {
    return Status::NotFound("procedure not found: " + name);
  }
  IDAA_RETURN_IF_ERROR(
      SendStatementRetry(stmt.ToSql(), session, tc, nullptr));
  ExecResult out;
  out.executed_on = Target::kAccelerator;
  TraceSpan exec_span(tc, "accel.execute");
  IDAA_ASSIGN_OR_RETURN(out.result_set,
                        procedure_handler_(name, stmt.arguments, txn, session,
                                           exec_span.context()));
  out.detail = "procedure executed on accelerator";
  return out;
}

Result<ExecResult> FederationEngine::ExecuteExplain(
    const sql::ExplainStatement& stmt, const Session& session,
    Transaction* txn) {
  // EXPLAIN needs the same read privileges as the query itself (an
  // explained INSERT authorizes itself when it runs).
  if (stmt.select) {
    for (const std::string& table : sql::ReferencedTables(*stmt.select)) {
      IDAA_RETURN_IF_ERROR(
          Authorize(session, table, Privilege::kSelect, "EXPLAIN"));
    }
  }
  if (stmt.analyze) {
    // EXPLAIN ANALYZE: run the statement under a fresh trace and report the
    // timed stage tree (route decision, engine execution, per-slice scans,
    // boundary transfers, coordinator merge).
    QueryTrace qt;
    TraceSpan root(&qt, "statement");
    IDAA_ASSIGN_OR_RETURN(
        ExecResult executed,
        stmt.insert ? ExecuteInsert(*stmt.insert, session, txn, root.context())
                    : ExecuteSelect(*stmt.select, session, txn,
                                    root.context()));
    root.Attr("rows", static_cast<uint64_t>(stmt.insert
                                                ? executed.affected_rows
                                                : executed.result_set.NumRows()));
    root.Attr("boundary_bytes", qt.boundary_bytes());
    root.End();

    ResultSet report{Schema({{"STAGE", DataType::kVarchar, false},
                             {"DURATION_US", DataType::kInteger, false},
                             {"DETAIL", DataType::kVarchar, true}})};
    for (const QueryTrace::RenderedSpan& span : qt.RenderRows()) {
      report.Append({Value::Varchar(std::string(span.depth * 2, ' ') +
                                    span.name),
                     Value::Integer(static_cast<int64_t>(span.duration_us)),
                     span.attributes.empty()
                         ? Value::Null()
                         : Value::Varchar(span.attributes)});
    }
    ExecResult out;
    out.executed_on = executed.executed_on;
    out.result_set = std::move(report);
    out.detail = "explain analyze; statement executed (" + executed.detail +
                 ")";
    return out;
  }
  IDAA_ASSIGN_OR_RETURN(RoutingDecision route,
                        router_.RouteSelect(*stmt.select, session.acceleration));
  sql::Binder binder(*catalog_);
  IDAA_ASSIGN_OR_RETURN(sql::BoundSelect plan, binder.BindSelect(*stmt.select));

  ResultSet report{Schema({{"ASPECT", DataType::kVarchar, false},
                           {"DETAIL", DataType::kVarchar, false}})};
  auto add = [&report](const std::string& aspect, const std::string& detail) {
    report.Append({Value::Varchar(aspect), Value::Varchar(detail)});
  };
  add("TARGET", route.target == Target::kAccelerator ? "ACCELERATOR" : "DB2");
  add("REASON", route.reason);
  add("ACCELERATION MODE",
      AccelerationModeToString(session.acceleration));

  // Health of every accelerator the plan would touch: accelerator state
  // plus its circuit-breaker state (what the failback routing consults).
  std::vector<std::string> accel_names;
  for (const auto& bt : plan.tables) {
    if (bt.info->kind == TableKind::kDb2Only ||
        bt.info->accelerator_name.empty()) {
      continue;
    }
    if (std::find(accel_names.begin(), accel_names.end(),
                  bt.info->accelerator_name) == accel_names.end()) {
      accel_names.push_back(bt.info->accelerator_name);
    }
  }
  for (const std::string& name : accel_names) {
    auto a = AcceleratorByName(name);
    if (!a.ok()) continue;
    std::string detail =
        std::string(accel::AcceleratorStateToString((*a)->state())) +
        ", breaker " + std::string(BreakerStateToString(health_.state(name)));
    if ((*a)->num_shards() > 1) {
      std::vector<accel::AcceleratorState> states = (*a)->ShardStates();
      detail += StrFormat(", %zu shards [", states.size());
      for (size_t i = 0; i < states.size(); ++i) {
        if (i > 0) detail += ' ';
        detail += accel::AcceleratorStateToString(states[i]);
      }
      detail += ']';
    }
    add("ACCELERATOR " + name, std::move(detail));
  }

  for (const auto& bt : plan.tables) {
    std::string detail = std::string(TableKindToString(bt.info->kind));
    if (bt.info->distribution_column.has_value() &&
        !bt.info->accelerator_name.empty()) {
      auto host = AcceleratorByName(bt.info->accelerator_name);
      if (host.ok() && (*host)->num_shards() > 1) {
        detail += ", hash-distributed on " +
                  bt.info->schema.Column(*bt.info->distribution_column).name;
      }
    }
    if (bt.scan_predicate) {
      bool exact = false;
      auto ranges = accel::ExtractColumnRanges(*bt.scan_predicate, &exact);
      detail += StrFormat(", scan predicate pushed down (%zu zone-map "
                          "range%s%s)",
                          ranges.size(), ranges.size() == 1 ? "" : "s",
                          exact ? ", exact" : "");
      if (route.target == Target::kDb2) {
        // Index access path report for the DB2 row engine.
        auto table = db2_->row_store().GetTable(bt.info->table_id);
        bool eq_on_first =
            bt.scan_predicate->kind == sql::BoundExprKind::kBinary &&
            !ranges.empty() && ranges[0].column == 0 &&
            ranges[0].op == sql::BinaryOp::kEq;
        if (table.ok() && (*table)->has_index() && eq_on_first) {
          detail += ", primary-key hash index";
        } else {
          detail += ", table scan";
        }
      }
    } else {
      detail += route.target == Target::kDb2 ? ", table scan" : ", full scan";
    }
    add("TABLE " + bt.effective_name, detail);
  }
  if (plan.has_aggregation) {
    std::string agg = StrFormat("%zu group key(s), %zu aggregate(s)",
                                plan.group_keys.size(),
                                plan.aggregates.size());
    if (route.target == Target::kAccelerator) {
      agg += accel::EligibleForSliceAggregation(plan)
                 ? ", computed at the data slices"
                 : ", computed at the coordinator";
    }
    add("AGGREGATION", agg);
  }
  if (plan.where) add("RESIDUAL PREDICATE", "evaluated after joins");
  add("OUTPUT", StrFormat("%zu column(s)", plan.output_schema.NumColumns()));

  ExecResult out;
  out.result_set = std::move(report);
  out.detail = "explain only; statement not executed";
  return out;
}

Status FederationEngine::AddTableToAccelerator(
    const std::string& table_name, Transaction* txn,
    const std::string& accelerator_name) {
  IDAA_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->GetTable(table_name));
  if (info->kind == TableKind::kAcceleratorOnly) {
    return Status::InvalidArgument(
        "table is accelerator-only; it is already (only) there");
  }
  if (info->kind == TableKind::kAccelerated) {
    return Status::AlreadyExists("table is already accelerated: " + info->name);
  }
  accel::Accelerator* target = nullptr;
  if (accelerator_name.empty()) {
    target = LeastLoadedAccelerator();
  } else {
    IDAA_ASSIGN_OR_RETURN(target, AcceleratorByName(accelerator_name));
  }
  if (!target->available()) {
    return Status::NotSupported("accelerator " + target->name() +
                                " is offline");
  }
  // Initial load: snapshot in DB2, ship through the channel, bulk-load.
  IDAA_ASSIGN_OR_RETURN(std::vector<Row> snapshot,
                        db2_->TableSnapshot(*info, txn));
  IDAA_RETURN_IF_ERROR(target->AddTable(*info));
  IDAA_ASSIGN_OR_RETURN(std::vector<Row> shipped,
                        channel_->SendRowsToAccelerator(snapshot));
  Status load = target->LoadRows(info->name, shipped, txn->id());
  if (!load.ok()) {
    (void)target->RemoveTable(info->name);
    return load;
  }
  IDAA_RETURN_IF_ERROR(catalog_->SetTableKind(info->name,
                                              TableKind::kAccelerated));
  IDAA_RETURN_IF_ERROR(
      catalog_->SetAcceleratorName(info->name, target->name()));
  replication_->RegisterTable(info->name);
  return Status::OK();
}

Status FederationEngine::ReloadAcceleratedTable(const std::string& table_name,
                                                Transaction* txn) {
  IDAA_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->GetTable(table_name));
  if (info->kind != TableKind::kAccelerated) {
    return Status::InvalidArgument("table is not accelerated: " + info->name);
  }
  // Drop any queued changes (the fresh snapshot supersedes them), rebuild
  // the replica storage, and re-ship the current DB2 state.
  IDAA_ASSIGN_OR_RETURN(accel::Accelerator * host,
                        AcceleratorForTable(*info, "LOAD"));
  replication_->UnregisterTable(info->name);
  IDAA_RETURN_IF_ERROR(host->RemoveTable(info->name));
  IDAA_RETURN_IF_ERROR(host->AddTable(*info));
  IDAA_ASSIGN_OR_RETURN(std::vector<Row> snapshot,
                        db2_->TableSnapshot(*info, txn));
  IDAA_ASSIGN_OR_RETURN(std::vector<Row> shipped,
                        channel_->SendRowsToAccelerator(snapshot));
  IDAA_RETURN_IF_ERROR(host->LoadRows(info->name, shipped, txn->id()));
  replication_->RegisterTable(info->name);
  return Status::OK();
}

Result<ResultSet> FederationEngine::VerifyAcceleratedTables(
    const std::string& table_name, Transaction* txn) {
  std::vector<std::string> names;
  if (!table_name.empty()) {
    IDAA_ASSIGN_OR_RETURN(const TableInfo* info,
                          catalog_->GetTable(table_name));
    if (info->kind != TableKind::kAccelerated) {
      return Status::InvalidArgument("table is not accelerated: " +
                                     info->name);
    }
    names.push_back(info->name);
  } else {
    for (const std::string& n : catalog_->ListTables()) {
      auto info = catalog_->GetTable(n);
      if (info.ok() && (*info)->kind == TableKind::kAccelerated) {
        names.push_back(n);
      }
    }
  }
  ResultSet report{Schema({{"TABLE", DataType::kVarchar, false},
                           {"DB2_ROWS", DataType::kInteger, false},
                           {"ACCEL_ROWS", DataType::kInteger, false},
                           {"CONVERGED", DataType::kBoolean, false}})};
  // Order-insensitive multiset comparison over rendered row text. DB2
  // reads latest-committed while the replica reads the txn snapshot, so
  // this is meaningful only with writers quiesced and replication flushed.
  auto canonical = [](const std::vector<Row>& rows) {
    std::vector<std::string> lines;
    lines.reserve(rows.size());
    for (const Row& row : rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.ToString();
        line += '|';
      }
      lines.push_back(std::move(line));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  for (const std::string& n : names) {
    IDAA_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->GetTable(n));
    IDAA_ASSIGN_OR_RETURN(accel::Accelerator * host,
                          AcceleratorHostingTable(*info));
    if (host->state() == accel::AcceleratorState::kOffline) {
      return Status::Unavailable("ACCEL_VERIFY_TABLES on table " +
                                 info->name + ": accelerator " +
                                 host->name() + " is offline");
    }
    IDAA_ASSIGN_OR_RETURN(std::vector<Row> db2_rows,
                          db2_->TableSnapshot(*info, txn));
    IDAA_ASSIGN_OR_RETURN(
        std::vector<Row> accel_rows,
        host->SnapshotRows(info->name, txn->id(), txn->snapshot_csn()));
    bool converged = canonical(db2_rows) == canonical(accel_rows);
    report.Append({Value::Varchar(info->name),
                   Value::Integer(static_cast<int64_t>(db2_rows.size())),
                   Value::Integer(static_cast<int64_t>(accel_rows.size())),
                   Value::Boolean(converged)});
  }
  return report;
}

Status FederationEngine::RemoveTableFromAccelerator(
    const std::string& table_name) {
  IDAA_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->GetTable(table_name));
  if (info->kind != TableKind::kAccelerated) {
    return Status::InvalidArgument("table is not accelerated: " + info->name);
  }
  IDAA_ASSIGN_OR_RETURN(accel::Accelerator * host,
                        AcceleratorByName(info->accelerator_name));
  replication_->UnregisterTable(info->name);
  IDAA_RETURN_IF_ERROR(host->RemoveTable(info->name));
  IDAA_RETURN_IF_ERROR(catalog_->SetAcceleratorName(info->name, ""));
  return catalog_->SetTableKind(info->name, TableKind::kDb2Only);
}

}  // namespace idaa::federation
