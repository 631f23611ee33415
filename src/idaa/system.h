// IdaaSystem: the public entry point wiring all subsystems together —
// DB2 engine, accelerator, federation, replication, loader, governance and
// the analytics framework. This is the API the examples and benchmarks use:
//
//   idaa::IdaaSystem system;
//   system.Execute("CREATE TABLE t (a INT, b DOUBLE)");
//   system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('t')");
//   system.Execute("CREATE TABLE stage1 (a INT, s DOUBLE) IN ACCELERATOR");
//   system.Execute("INSERT INTO stage1 SELECT a, SUM(b) FROM t GROUP BY a");
//   auto rs = system.Query("SELECT * FROM stage1 ORDER BY a");

#pragma once

#include <memory>
#include <string>

#include "accel/accelerator.h"
#include "analytics/pipeline.h"
#include "analytics/registry.h"
#include "catalog/catalog.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "db2/db2_engine.h"
#include "federation/federation.h"
#include "governance/audit_log.h"
#include "governance/authorization.h"
#include "federation/wlm.h"
#include "idaa/connection.h"
#include "loader/loader.h"
#include "replication/replication_service.h"
#include "sql/plan_cache.h"
#include "txn/transaction_manager.h"

namespace idaa {

struct SystemOptions {
  accel::AcceleratorOptions accelerator;
  /// Number of attached accelerators (named ACCEL1..ACCELn).
  size_t num_accelerators = 1;
  /// Physical shard instances behind each logical accelerator. 1 = plain
  /// appliance; >1 builds a ShardedAccelerator (hash-partitioned +
  /// broadcast tables, scatter-gather, per-shard failure handling) behind
  /// the same API — routing, replication and WLM are unaware.
  size_t accelerator_shards = 1;
  /// Replication apply batch size (0 = manual Flush only).
  size_t replication_batch_size = 256;
  /// Default acceleration mode for new sessions.
  federation::AccelerationMode acceleration_mode =
      federation::AccelerationMode::kEligible;
  /// Seed for the deterministic fault injector (disarmed by default; tests
  /// and benchmarks arm sites through fault_injector()).
  uint64_t fault_seed = 42;
  /// Workload management: admission slots, queue depth, result cache sizing.
  federation::WlmOptions wlm;
  /// Plan-cache capacity (entries; normalized statement templates).
  size_t plan_cache_capacity = 512;
};

/// One embedded IDAA deployment: DB2 + accelerator + glue.
/// Statement execution is auto-commit unless Begin() opened an explicit
/// transaction. Not safe for concurrent Execute from multiple threads on
/// the *same* IdaaSystem session; use NewSession()-style separate
/// transactions via the component APIs for concurrency tests.
class IdaaSystem {
 public:
  explicit IdaaSystem(const SystemOptions& options = {});
  ~IdaaSystem();

  IdaaSystem(const IdaaSystem&) = delete;
  IdaaSystem& operator=(const IdaaSystem&) = delete;

  /// Open an additional client session (own user, acceleration mode and
  /// transaction state). The IdaaSystem itself embeds a default connection
  /// that the convenience methods below forward to.
  std::unique_ptr<Connection> NewConnection();

  // -- statement interface ---------------------------------------------------

  /// Parse and execute one SQL statement on the default connection.
  /// "BEGIN"/"COMMIT"/"ROLLBACK" and SET CURRENT QUERY ACCELERATION are
  /// handled as session control. Per-statement options in, a
  /// StatementResult (routing, boundary bytes, retries, failback) out.
  Result<federation::StatementResult> Execute(
      const std::string& sql, const federation::ExecOptions& opts = {}) {
    return default_connection_->Execute(sql, opts);
  }

  /// Prepare a statement on the default connection (parse + plan-cache once;
  /// Bind/Execute many times — see PreparedStatement).
  Result<PreparedStatement> Prepare(const std::string& sql) {
    return default_connection_->Prepare(sql);
  }

  /// Convenience: execute and return the result set (for SELECT/CALL).
  Result<ResultSet> Query(const std::string& sql) {
    return default_connection_->Query(sql);
  }

  // -- transaction control (default connection) -------------------------------

  Status Begin() { return default_connection_->Begin(); }
  Status Commit() { return default_connection_->Commit(); }
  Status Rollback() { return default_connection_->Rollback(); }
  bool InTransaction() const { return default_connection_->InTransaction(); }

  /// The transaction a delegated operation would run under right now
  /// (only valid between Begin/Commit).
  Transaction* current_transaction() {
    return default_connection_->current_transaction();
  }

  // -- session (default connection) --------------------------------------------

  /// Switch the active user (governance checks apply to this user).
  void SetUser(const std::string& user) { default_connection_->SetUser(user); }
  const std::string& user() const { return default_connection_->user(); }

  void SetAccelerationMode(federation::AccelerationMode mode) {
    default_connection_->SetAccelerationMode(mode);
  }
  federation::AccelerationMode acceleration_mode() const {
    return default_connection_->acceleration_mode();
  }

  // -- components ---------------------------------------------------------------

  Catalog& catalog() { return catalog_; }
  MetricsRegistry& metrics() { return metrics_; }
  /// Per-statement-kind and subsystem latency histograms (exportable next
  /// to MetricsRegistry::Snapshot()).
  HistogramRegistry& histograms() { return histograms_; }
  /// Statements slower than the configured threshold are recorded here with
  /// their rendered trace (see SlowQueryLog::set_threshold_us).
  SlowQueryLog& slow_query_log() { return slow_query_log_; }
  TransactionManager& txn_manager() { return tm_; }
  db2::Db2Engine& db2() { return *db2_; }
  /// The i-th attached accelerator (0 = ACCEL1).
  accel::Accelerator& accelerator(size_t i = 0) { return *accelerators_[i]; }
  size_t num_accelerators() const { return accelerators_.size(); }
  /// Accelerator hosting a table's data (federation placement lookup).
  Result<accel::Accelerator*> AcceleratorForTable(const TableInfo& info) {
    return federation_->AcceleratorForTable(info);
  }
  federation::FederationEngine& federation() { return *federation_; }
  federation::TransferChannel& channel() { return *channel_; }
  replication::ReplicationService& replication() { return *replication_; }
  loader::IdaaLoader& loader() { return *loader_; }
  governance::AuthorizationManager& authorization() { return auth_; }
  governance::AuditLog& audit() { return audit_; }
  /// Deterministic fault injector wired into the transfer channel and every
  /// accelerator entry point (disarmed unless a site is armed).
  FaultInjector& fault_injector() { return fault_injector_; }
  analytics::OperatorRegistry& analytics_registry() { return *registry_; }
  /// Normalized-SQL statement cache shared by every connection.
  sql::PlanCache& plan_cache() { return plan_cache_; }
  /// Workload manager: admission control + replication-aware result cache.
  federation::WorkloadManager& wlm() { return *wlm_; }

  /// SQL executor adapter for analytics::Pipeline (default connection).
  analytics::SqlExecutor MakeSqlExecutor() {
    return default_connection_->MakeSqlExecutor();
  }

 private:
  SystemOptions options_;
  FaultInjector fault_injector_;
  MetricsRegistry metrics_;
  HistogramRegistry histograms_;
  SlowQueryLog slow_query_log_;
  TransactionManager tm_;
  Catalog catalog_;
  std::unique_ptr<db2::Db2Engine> db2_;
  std::vector<std::unique_ptr<accel::Accelerator>> accelerators_;
  std::unique_ptr<federation::TransferChannel> channel_;
  std::unique_ptr<replication::ReplicationService> replication_;
  governance::AuthorizationManager auth_;
  governance::AuditLog audit_;
  std::unique_ptr<federation::FederationEngine> federation_;
  std::unique_ptr<loader::IdaaLoader> loader_;
  std::unique_ptr<analytics::OperatorRegistry> registry_;
  sql::PlanCache plan_cache_;
  std::unique_ptr<federation::WorkloadManager> wlm_;
  std::unique_ptr<Connection> default_connection_;
};

}  // namespace idaa
