// Connection: one client session against an IdaaSystem — its own user,
// acceleration mode (the CURRENT QUERY ACCELERATION special register),
// tenant and transaction state. Multiple connections against one system
// model concurrent applications, which is how the concurrency semantics of
// the paper (snapshot isolation vs. cursor stability) become observable
// through plain SQL.
//
// Statement execution runs through the workload-management layer:
//   * a plan cache keyed on normalized SQL (ad-hoc literals are
//     parameterized, so repeated statement shapes skip the parser);
//   * a replication-aware result cache for auto-commit SELECTs;
//   * WLM admission (slots / queue / priority / deadline shedding).
// Prepare() returns a PreparedStatement handle that skips normalization on
// every Execute.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analytics/pipeline.h"
#include "common/result.h"
#include "common/trace.h"
#include "federation/federation.h"
#include "sql/plan_cache.h"

namespace idaa {

class IdaaSystem;
class Connection;

/// A prepared statement handle: parse once, Bind/Execute many times.
/// Obtained from Connection::Prepare; tied to that connection's session.
/// Not thread-safe (like the owning Connection).
class PreparedStatement {
 public:
  PreparedStatement() = default;

  /// Number of `?` parameter markers in the statement.
  size_t num_params() const { return plan_ ? plan_->num_params : 0; }

  /// Original statement text.
  const std::string& sql() const { return sql_; }

  /// Normalized plan-cache key ("" when the statement kind is not cached).
  const std::string& normalized_sql() const {
    static const std::string kEmpty;
    return plan_ ? plan_->key : kEmpty;
  }

  /// Bind positional values for every `?` marker (replaces prior bindings).
  Status Bind(std::vector<Value> params);

  /// Execute with the current bindings.
  Result<federation::StatementResult> Execute(
      const federation::ExecOptions& opts = {});

  /// Bind + Execute in one call.
  Result<federation::StatementResult> Execute(
      std::vector<Value> params, const federation::ExecOptions& opts = {});

 private:
  friend class Connection;

  Connection* conn_ = nullptr;
  std::string sql_;
  /// Shared parsed template. Null for statement kinds outside the plan
  /// cache (DDL, CALL, EXPLAIN, control) — those re-execute from text.
  std::shared_ptr<const sql::CachedPlan> plan_;
  std::vector<Value> params_;
  bool bound_ = false;
};

class Connection {
 public:
  /// Created via IdaaSystem::NewConnection().
  Connection(IdaaSystem* system, federation::Session session);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Parse (or fetch from the plan cache) and execute one SQL statement.
  /// Handles BEGIN/COMMIT/ROLLBACK and SET CURRENT QUERY ACCELERATION here;
  /// everything else goes through WLM admission and the federation engine
  /// under this connection's transaction. Every regular statement is traced
  /// (plan/parse/execute spans), its latency recorded in the system's
  /// per-statement-kind histogram, and — past the slow-query threshold —
  /// logged with its rendered trace.
  ///
  /// Per-statement options (acceleration override, retry + queue deadline,
  /// tenant, priority, cache controls) in, a StatementResult out that
  /// surfaces routing, boundary bytes, retries, failback and the WLM
  /// decisions (plan_cache/result_cache/queued_us/tenant/slot).
  Result<federation::StatementResult> Execute(
      const std::string& sql, const federation::ExecOptions& opts = {});

  /// Parse and cache the statement once, returning a handle for repeated
  /// Bind/Execute. `?` parameter markers are supported in expression
  /// positions of SELECT/INSERT/UPDATE/DELETE. Statement kinds outside the
  /// plan cache still prepare, but re-parse per Execute.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// Convenience: execute and return the result set.
  Result<ResultSet> Query(const std::string& sql);

  Status Begin();
  Status Commit();
  Status Rollback();
  bool InTransaction() const { return explicit_txn_; }
  Transaction* current_transaction() { return txn_; }

  void SetUser(const std::string& user) { session_.user = user; }
  const std::string& user() const { return session_.user; }

  void SetAccelerationMode(federation::AccelerationMode mode) {
    session_.acceleration = mode;
  }
  federation::AccelerationMode acceleration_mode() const {
    return session_.acceleration;
  }

  /// WLM tenant this session's statements are accounted against.
  void SetTenant(const std::string& tenant) { session_.tenant_id = tenant; }
  const std::string& tenant() const { return session_.tenant_id; }

  /// SQL executor adapter for analytics::Pipeline.
  analytics::SqlExecutor MakeSqlExecutor();

 private:
  friend class PreparedStatement;

  /// A statement resolved to a concrete (parameter-free) AST, plus how it
  /// got there and the keys the caches need.
  struct ResolvedStatement {
    sql::StatementPtr stmt;
    std::shared_ptr<const sql::CachedPlan> plan;  ///< null when bypassed
    const char* plan_state = "bypass";            ///< "hit" | "miss" | "bypass"
    std::string result_key;   ///< "" = not result-cacheable
    std::vector<Value> params;  ///< values behind the normalized key
  };

  Result<federation::ExecResult> ExecuteParsed(
      const sql::Statement& stmt, const federation::Session& session,
      TraceContext tc = {});
  /// Shared path behind Execute / Query / PreparedStatement::Execute:
  /// control-statement interception, per-statement session overrides, plan
  /// cache, result cache, WLM admission, tracing, histograms, invalidation.
  Result<federation::ExecResult> ExecuteCore(const std::string& sql,
                                             const federation::ExecOptions& opts,
                                             uint64_t* boundary_bytes);
  /// Prepared fast path: instantiate the cached template with `params`.
  Result<federation::ExecResult> ExecutePrepared(
      const PreparedStatement& prepared, const federation::ExecOptions& opts,
      uint64_t* boundary_bytes);
  /// Everything after a concrete statement exists (admission, execution,
  /// result cache, invalidation, observability). `sql_text` is for the
  /// slow-query log.
  Result<federation::ExecResult> ExecuteResolved(
      ResolvedStatement resolved, const std::string& sql_text,
      const federation::Session& session, const federation::ExecOptions& opts,
      uint64_t* boundary_bytes);
  void EndAutoTxn(Transaction* txn, bool success);
  /// Intercepts transaction control and SET statements; returns nullopt if
  /// the text is a regular statement.
  std::optional<Result<federation::ExecResult>> TryControlStatement(
      const std::string& sql);
  /// Serve a SELECT from the result cache if present (re-authorizing every
  /// referenced table for the session user).
  std::optional<Result<federation::ExecResult>> TryServeFromResultCache(
      const ResolvedStatement& resolved, const federation::Session& session);
  /// Tables a successful statement wrote (normalized), for cache eviction.
  static std::vector<std::string> WrittenTables(const sql::Statement& stmt);
  federation::Priority ClassifyPriority(const sql::Statement& stmt,
                                        const federation::ExecOptions& opts) const;
  static federation::StatementResult ToStatementResult(
      federation::ExecResult result, uint64_t boundary_bytes);

  IdaaSystem* system_;
  federation::Session session_;
  Transaction* txn_ = nullptr;
  bool explicit_txn_ = false;
  /// Tables written inside the open explicit transaction; the result cache
  /// is evicted for them when Commit succeeds.
  std::vector<std::string> pending_invalidations_;
};

}  // namespace idaa
