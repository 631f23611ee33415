// FederationEngine: the IDAA integration layer — the paper's primary
// contribution. It owns statement orchestration across DB2 and the
// accelerator:
//   * DDL: CREATE TABLE ... IN ACCELERATOR creates the AOT on the
//     accelerator and only a proxy (nickname) entry in the DB2 catalog;
//   * routing: queries on AOTs are always delegated; queries on accelerated
//     tables are offloaded per the acceleration mode; INSERT ... SELECT
//     between AOTs runs entirely on the accelerator with zero DB2
//     materialization (the ELT optimization);
//   * transaction context propagation: every delegated statement carries
//     the DB2 transaction id and snapshot so the accelerator's MVCC shows
//     own uncommitted changes and a consistent snapshot of everything else;
//   * governance: privileges are checked and audited at the DB2 front door
//     before anything is delegated.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/trace.h"
#include "db2/db2_engine.h"
#include "federation/health_monitor.h"
#include "federation/router.h"
#include "federation/transfer_channel.h"
#include "federation/wlm.h"
#include "governance/audit_log.h"
#include "governance/authorization.h"
#include "replication/replication_service.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "txn/transaction_manager.h"

namespace idaa::federation {

/// Per-connection state.
struct Session {
  std::string user = governance::AuthorizationManager::kAdmin;
  AccelerationMode acceleration = AccelerationMode::kEligible;
  /// Wall-clock budget for boundary retries and WLM queue waits
  /// (0 = engine default only).
  uint64_t deadline_us = 0;
  /// WLM tenant this session's statements are accounted against.
  std::string tenant_id = "default";
};

/// Outcome of one statement.
struct ExecResult {
  ResultSet result_set;        ///< SELECT / CALL output
  size_t affected_rows = 0;    ///< DML row count
  Target executed_on = Target::kDb2;
  std::string detail;          ///< routing reason etc.
  uint32_t retries = 0;        ///< boundary retries this statement needed
  bool failed_back = false;    ///< re-executed on DB2 after accelerator error
  // --- workload management observability (filled by Connection) ---
  std::string plan_cache;      ///< "hit" | "miss" | "bypass"
  std::string result_cache;    ///< "hit" | "miss" | "store" | "bypass"
  uint64_t queued_us = 0;      ///< WLM admission queue wait
  std::string tenant;          ///< tenant the statement was accounted to
  uint64_t slot = 0;           ///< admission slot grant id (0 = not gated)
};

/// Per-statement options for the redesigned Connection::Execute API.
struct ExecOptions {
  /// Overrides the session's CURRENT QUERY ACCELERATION for this statement.
  std::optional<QueryAcceleration> acceleration;
  /// Overrides the session's retry + WLM queue deadline (microseconds,
  /// 0 = inherit).
  uint64_t deadline_us = 0;
  /// Overrides the session's WLM tenant (empty = inherit).
  std::string tenant_id;
  /// Overrides the router's interactive-vs-batch classification.
  std::optional<Priority> priority;
  /// Consult / populate the normalized-SQL plan cache.
  bool use_plan_cache = true;
  /// Serve from and store into the replication-aware result cache
  /// (auto-commit SELECTs only; never inside an explicit transaction).
  bool use_result_cache = true;
};

/// Outcome of one statement through the redesigned API: everything a
/// caller needs to observe routing, data movement and fault handling.
struct StatementResult {
  ResultSet rows;              ///< SELECT / CALL output
  size_t rows_affected = 0;    ///< DML row count
  Target routed_to = Target::kDb2;
  uint64_t boundary_bytes = 0;  ///< bytes moved DB2 <-> accelerator
  uint32_t retries = 0;         ///< boundary retries
  bool failed_back = false;     ///< re-executed on DB2 after accel failure
  std::string detail;           ///< routing reason / failback cause
  // --- workload management observability ---
  std::string plan_cache;       ///< "hit" | "miss" | "bypass"
  std::string result_cache;     ///< "hit" | "miss" | "store" | "bypass"
  uint64_t queued_us = 0;       ///< WLM admission queue wait
  std::string tenant;           ///< tenant the statement was accounted to
  uint64_t slot = 0;            ///< admission slot grant id (0 = not gated)
};

/// Hook for CALL statements the engine does not handle itself (the
/// in-database analytics framework registers here). `tc` is the statement's
/// trace context, parented under the accel.execute span, so operator stages
/// show up in EXPLAIN ANALYZE.
using ProcedureHandler = std::function<Result<ResultSet>(
    const std::string& name, const std::vector<Value>& args, Transaction* txn,
    const Session& session, TraceContext tc)>;

class FederationEngine {
 public:
  /// A DB2 may have several accelerators attached; `accelerators` must be
  /// non-empty. Tables are placed on one accelerator (explicitly or
  /// balanced) and statements resolve to their tables' accelerator.
  FederationEngine(Catalog* catalog, db2::Db2Engine* db2,
                   std::vector<accel::Accelerator*> accelerators,
                   TransactionManager* tm,
                   replication::ReplicationService* replication,
                   TransferChannel* channel,
                   governance::AuthorizationManager* authorization,
                   governance::AuditLog* audit, MetricsRegistry* metrics)
      : catalog_(catalog), db2_(db2), accelerators_(std::move(accelerators)),
        tm_(tm), replication_(replication), channel_(channel),
        auth_(authorization), audit_(audit), metrics_(metrics),
        router_(catalog), health_(metrics) {}

  /// Execute one parsed statement in the given session and transaction.
  /// With a trace context, routing, binding, engine execution and boundary
  /// transfers are recorded as spans (EXPLAIN ANALYZE / slow-query log).
  Result<ExecResult> Execute(const sql::Statement& stmt, const Session& session,
                             Transaction* txn, TraceContext tc = {});

  /// Admin API behind CALL SYSPROC.ACCEL_ADD_TABLES: snapshot the DB2 table,
  /// ship it through the channel, create the replica, and subscribe it to
  /// incremental update. With an empty `accelerator_name` the least-loaded
  /// attached accelerator is chosen.
  Status AddTableToAccelerator(const std::string& table_name, Transaction* txn,
                               const std::string& accelerator_name = "");

  /// Resolve an attached accelerator by name (error when unknown).
  Result<accel::Accelerator*> AcceleratorByName(const std::string& name) const;

  /// The accelerator hosting a table's accelerator-side data regardless of
  /// state (pure placement lookup).
  Result<accel::Accelerator*> AcceleratorHostingTable(
      const TableInfo& info) const;

  /// Like AcceleratorHostingTable, but errors with kUnavailable — naming
  /// the accelerator, its state and the statement kind `op` — when the
  /// accelerator is not Online.
  Result<accel::Accelerator*> AcceleratorForTable(
      const TableInfo& info, const char* op = "statement") const;

  /// Replication apply target: accepts Online AND Recovering accelerators
  /// (catch-up applies must land while queries are still rejected).
  Result<accel::Accelerator*> AcceleratorForReplication(
      const TableInfo& info) const;

  /// CALL SYSPROC.ACCEL_REMOVE_TABLES.
  Status RemoveTableFromAccelerator(const std::string& table_name);

  /// CALL SYSPROC.ACCEL_LOAD_TABLES: re-snapshot an accelerated table's
  /// replica from DB2 (recovery from divergence or a long replication
  /// outage).
  Status ReloadAcceleratedTable(const std::string& table_name,
                                Transaction* txn);

  void set_procedure_handler(ProcedureHandler handler) {
    procedure_handler_ = std::move(handler);
  }

  /// Backoff schedule for boundary-crossing retries (session deadlines
  /// override the policy's deadline per statement).
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Per-accelerator circuit breakers consulted by routing and execution.
  HealthMonitor& health() { return health_; }
  const HealthMonitor& health() const { return health_; }

  /// Content comparison DB2 vs accelerator replica for one accelerated
  /// table (or all, when `table_name` is empty): the convergence check run
  /// after an offline -> online cycle. Row multisets must match; the
  /// caller should quiesce writers (or Flush) first, since DB2 reads
  /// latest-committed while the accelerator reads the txn snapshot.
  Result<ResultSet> VerifyAcceleratedTables(const std::string& table_name,
                                            Transaction* txn);

  const Router& router() const { return router_; }
  Router& mutable_router() { return router_; }

 private:
  Result<ExecResult> ExecuteSelect(const sql::SelectStatement& stmt,
                                   const Session& session, Transaction* txn,
                                   TraceContext tc = {});
  Result<ExecResult> ExecuteInsert(const sql::InsertStatement& stmt,
                                   const Session& session, Transaction* txn,
                                   TraceContext tc = {});
  Result<ExecResult> ExecuteUpdate(const sql::UpdateStatement& stmt,
                                   const Session& session, Transaction* txn,
                                   TraceContext tc = {});
  Result<ExecResult> ExecuteDelete(const sql::DeleteStatement& stmt,
                                   const Session& session, Transaction* txn,
                                   TraceContext tc = {});
  Result<ExecResult> ExecuteCreateTable(const sql::CreateTableStatement& stmt,
                                        const Session& session,
                                        Transaction* txn);
  Result<ExecResult> ExecuteDropTable(const sql::DropTableStatement& stmt,
                                      const Session& session);
  Result<ExecResult> ExecuteGrantRevoke(const sql::Statement& stmt,
                                        const Session& session);
  Result<ExecResult> ExecuteCall(const sql::CallStatement& stmt,
                                 const Session& session, Transaction* txn,
                                 TraceContext tc = {});
  /// EXPLAIN renders the static plan; EXPLAIN ANALYZE additionally runs the
  /// statement under a fresh trace and reports the timed stage tree.
  Result<ExecResult> ExecuteExplain(const sql::ExplainStatement& stmt,
                                    const Session& session, Transaction* txn);

  /// Run a bound SELECT on the chosen target and return its (unmetered)
  /// result; the caller meters when the result crosses the boundary.
  Result<ResultSet> RunSelectOn(Target target, const sql::BoundSelect& plan,
                                Transaction* txn, TraceContext tc = {});

  /// Accelerated SELECT with the full fault-tolerance treatment: breaker
  /// gate, statement shipping, execution, optional result fetch, all under
  /// the retry policy. Accumulates retries into *retries and records the
  /// statement outcome with the health monitor.
  Result<ResultSet> AccelSelectWithRetry(const std::string& sql_text,
                                         const sql::BoundSelect& plan,
                                         const Session& session,
                                         Transaction* txn, TraceContext tc,
                                         uint32_t* retries, bool fetch_result);

  /// Effective retry policy for a session (deadline override applied).
  RetryPolicy PolicyFor(const Session& session) const;

  /// Shard-granular breaker accounting for a statement outcome against a
  /// sharded accelerator: each non-Online shard's site ("<name>#<i>")
  /// records the failure, Online shards record successes — so one dead
  /// shard trips only its own breaker while the logical accelerator stays
  /// attached. No-op for a plain (1-instance) accelerator.
  void RecordShardHealth(const std::string& name, bool success);

  /// Individual boundary crossings under the retry policy (DML / load
  /// paths). Each accumulates its retries into *retries when non-null.
  Result<std::vector<Row>> SendRowsRetry(const std::vector<Row>& rows,
                                         const Session& session,
                                         TraceContext tc, uint32_t* retries);
  Result<ResultSet> FetchResultRetry(const ResultSet& result,
                                     const Session& session, TraceContext tc,
                                     uint32_t* retries);
  Status SendStatementRetry(const std::string& sql, const Session& session,
                            TraceContext tc, uint32_t* retries);

  /// The single accelerator all of the plan's tables live on (error when
  /// they span accelerators or it is not Online).
  Result<accel::Accelerator*> AcceleratorForPlan(const sql::BoundSelect& plan,
                                                 const char* op
                                                 = "statement") const;

  /// Placement choice for new accelerator-side tables.
  accel::Accelerator* LeastLoadedAccelerator() const;

  /// Governance check + audit record.
  Status Authorize(const Session& session, const std::string& object,
                   governance::Privilege privilege, const std::string& action);

  /// One write to an accelerator-only table under the retry policy, with
  /// breaker accounting; an exhausted retryable failure becomes the
  /// "cannot fail back" error. Accumulates retries into *retries.
  Status AotWriteWithRetry(accel::Accelerator* target_accel,
                           const Session& session, TraceContext tc,
                           uint32_t* retries,
                           const std::function<Status()>& attempt);

  /// Rows of an INSERT's source SELECT, run where `*source` says: on the
  /// accelerator with the full fault-tolerance treatment (failing back to
  /// DB2, and updating *source and out->failed_back, when the session
  /// allows it), else on DB2.
  Result<std::vector<Row>> InsertSourceRows(const sql::InsertStatement& stmt,
                                            const sql::BoundInsert& bound,
                                            Target* source,
                                            const Session& session,
                                            Transaction* txn, TraceContext tc,
                                            ExecResult* out);

  Catalog* catalog_;
  db2::Db2Engine* db2_;
  std::vector<accel::Accelerator*> accelerators_;
  TransactionManager* tm_;
  replication::ReplicationService* replication_;
  TransferChannel* channel_;
  governance::AuthorizationManager* auth_;
  governance::AuditLog* audit_;
  MetricsRegistry* metrics_;
  Router router_;
  HealthMonitor health_;
  RetryPolicy retry_policy_;
  ProcedureHandler procedure_handler_;
};

}  // namespace idaa::federation
