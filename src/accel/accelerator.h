// Accelerator: the simulated appliance — a catalog of column tables
// (snapshot replicas of accelerated DB2 tables, and accelerator-only
// tables), a worker pool for slice parallelism, and entry points for the
// statements the federation layer delegates.
//
// The statement entry points are virtual: ShardedAccelerator presents N
// instances behind this same API (hash-partitioned + broadcast tables,
// scatter-gather with partial-aggregate merge), so the federation layer
// and replication never know whether one appliance or a shard group is
// attached.

#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "accel/accel_executor.h"
#include "accel/column_table.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "txn/transaction_manager.h"

namespace idaa::accel {

/// Lifecycle state of an accelerator, the single source of truth read by
/// the router, the replication service, and EXPLAIN.
///   kOnline     — serving queries and replication.
///   kOffline    — outage/maintenance; all delegated work is rejected
///                 with kUnavailable.
///   kRecovering — back up but replaying the replication backlog; applies
///                 land, queries are still rejected until catch-up.
enum class AcceleratorState : uint8_t { kOnline, kOffline, kRecovering };

const char* AcceleratorStateToString(AcceleratorState state);

/// Where replication applies one table's changes: every shard-resident
/// storage of the table plus the partition-hash router. For a plain
/// accelerator there is exactly one target and no router. `shard_of`
/// null <=> broadcast: the change applies to every target.
struct ReplicaRoute {
  std::vector<ColumnTable*> targets;
  std::function<size_t(const Row&)> shard_of;
  /// Keeps the owning topology stable (sharded: blocks shard add /
  /// rebalance) and, on release, advances the touched shards' apply
  /// epochs. Hold until the batch is applied.
  std::shared_ptr<void> pin;
};

/// Outcome of an AOT INSERT ... SELECT run on the accelerator.
struct InsertSelectResult {
  size_t rows = 0;  ///< rows appended to the target
  /// true: the morsel scan or batch join wrote the target's columns
  /// directly (path=columnar); false: the SELECT produced rows that
  /// RowsToColumnar converted (path=rows).
  bool columnar = false;
  /// Set once the SELECT's output is complete and the append begins: a
  /// failure with `appending` set is the append's (a receiving shard's
  /// readiness check, a constraint violation), one without it the
  /// SELECT's.
  bool appending = false;
};

class Accelerator {
 public:
  Accelerator(const AcceleratorOptions& options, TransactionManager* tm,
              MetricsRegistry* metrics, std::string name = "ACCEL1");
  virtual ~Accelerator() = default;

  const AcceleratorOptions& options() const { return options_; }

  /// This accelerator's name as known to DB2 (e.g. "ACCEL1").
  const std::string& name() const { return name_; }

  /// Lifecycle state (outage simulation / maintenance / catch-up).
  /// Delegated statements against a non-Online accelerator fail with
  /// kUnavailable; replication apply is allowed while Recovering.
  void SetState(AcceleratorState state) { state_ = state; }
  AcceleratorState state() const { return state_; }

  /// Deprecated shims over SetState()/state(); kept so pre-state callers
  /// keep compiling. true <=> kOnline (false maps to kOffline).
  void SetAvailable(bool available) {
    SetState(available ? AcceleratorState::kOnline
                       : AcceleratorState::kOffline);
  }
  bool available() const { return state() == AcceleratorState::kOnline; }

  /// Inject faults at this accelerator's entry points (site
  /// "accel.<name>"; nullptr disables; default).
  virtual void set_fault_injector(FaultInjector* injector) {
    injector_ = injector;
  }

  /// Runtime toggle for GROOM-time zone compaction on every hosted table
  /// (current and future). Results are identical either way — encoded
  /// zones keep decoding transparently when disabled; only future grooms
  /// stop (or resume) compacting. Sharded: fans out to every shard.
  virtual void SetEncodingEnabled(bool enabled);
  bool encoding_enabled() const { return encoding_enabled_; }

  /// Called after any GroomAll pass that compacted zones or reclaimed rows
  /// in some table, with the affected table names: the physical layout
  /// (row order / encoding) changed even though logical content did not,
  /// so layout-dependent caches must drop those tables.
  using CompactionListener = std::function<void(const std::vector<std::string>&)>;
  void set_compaction_listener(CompactionListener listener) {
    compaction_listener_ = std::move(listener);
  }

  /// Number of physical shard instances behind this logical accelerator
  /// (1 for a plain appliance).
  virtual size_t num_shards() const { return 1; }

  /// Per-shard lifecycle states, shard-index order (size num_shards()).
  virtual std::vector<AcceleratorState> ShardStates() const {
    return {state()};
  }

  /// Number of tables currently hosted (placement balancing).
  virtual size_t NumTables() const;

  /// Create storage for a table (replica or AOT).
  virtual Status AddTable(const TableInfo& info);

  virtual Status RemoveTable(const std::string& name);

  virtual bool HasTable(const std::string& name) const;

  /// Direct storage access. On a sharded accelerator this resolves only
  /// broadcast tables (every shard holds a full copy); hash-partitioned
  /// tables have no single backing ColumnTable and fail kNotSupported.
  virtual Result<ColumnTable*> GetTable(const std::string& name);
  virtual Result<const ColumnTable*> GetTable(const std::string& name) const;

  /// Bulk-append rows under `txn` (replication apply, loader, INSERT).
  virtual Status LoadRows(const std::string& name, const std::vector<Row>& rows,
                          TxnId txn);

  /// Columnar bulk append from the vectorized engine; same transactional
  /// semantics and stored state as LoadRows of the equivalent rows (see
  /// ColumnTable::InsertColumnar).
  virtual Status LoadColumnar(const std::string& name, const ColumnarRows& rows,
                              TxnId txn);

  /// AOT INSERT ... SELECT from scan to append, entirely on this
  /// accelerator: runs `plan` under (txn, snapshot) visibility and appends
  /// its output to `target` under `txn`, select item i landing in target
  /// column column_mapping[i] and every other column NULL.
  /// ColumnarInsertEligible plans have the morsel scan or batch join write
  /// straight into the target's columns; every other shape's rows go
  /// through RowsToColumnar. Either way one InsertColumnar appends the
  /// batches in order, so the stored state equals LoadRows of the SELECT's
  /// rows. Faults, evaluation errors and constraint violations all surface
  /// before the first row is appended, so a retry cannot duplicate rows.
  /// Fills `*out`, which the caller resets before each call; on failure
  /// out->appending tells which step failed.
  virtual Status InsertSelect(const std::string& target,
                              const sql::BoundSelect& plan,
                              const std::vector<size_t>& column_mapping,
                              TxnId txn, Csn snapshot, TraceContext tc,
                              InsertSelectResult* out);

  /// Delegated SELECT under (reader, snapshot) visibility. With a trace
  /// context, slice scans and merges are recorded as spans.
  virtual Result<ResultSet> ExecuteSelect(const sql::BoundSelect& plan,
                                          TxnId reader, Csn snapshot,
                                          TraceContext tc = {});

  /// Delegated UPDATE/DELETE on an AOT.
  virtual Result<size_t> ExecuteUpdate(const sql::BoundUpdate& plan, TxnId txn,
                                       Csn snapshot);
  virtual Result<size_t> ExecuteDelete(const sql::BoundDelete& plan, TxnId txn,
                                       Csn snapshot);

  /// Groom every table up to the transaction manager's oldest active
  /// snapshot; returns aggregate stats. Sharded: per-shard groom on every
  /// Online shard.
  virtual GroomStats GroomAll();

  virtual std::vector<std::string> ListTables() const;

  /// Total stored row versions of one table (sharded: summed across
  /// shards). Maintenance/placement accounting.
  virtual Result<size_t> TableVersions(const std::string& name) const;

  /// All rows of `name` visible under (reader, snapshot), concatenated in
  /// slice order (sharded: shard-major slice order). Verification and
  /// rebalance path — not gated on lifecycle state.
  virtual Result<std::vector<Row>> SnapshotRows(const std::string& name,
                                                TxnId reader,
                                                Csn snapshot) const;

  /// Where replication applies `table`'s changes (see ReplicaRoute). A
  /// plain accelerator returns its single ColumnTable; sharded, all shard
  /// storages plus the partition-hash router. Fails kUnavailable
  /// (retryable — the batch requeues) while any required shard is Offline.
  virtual Result<ReplicaRoute> ReplicaRouteFor(const std::string& table);

  // -- scatter support (called by ShardedAccelerator on its shards) --------

  /// State/fault-gated parallel scan of one table with the scan predicate
  /// applied (the per-shard leg of a scatter-gather row read). Rows come
  /// back in deterministic slice order.
  Result<std::vector<Row>> ScanTable(const std::string& name,
                                     const sql::BoundExpr* predicate,
                                     TxnId reader, Csn snapshot,
                                     const std::vector<uint8_t>* projection,
                                     TraceContext tc = {},
                                     std::optional<size_t> limit_cap =
                                         std::nullopt);

  /// State/fault-gated local partial aggregation (the per-shard leg of a
  /// scatter-gather aggregate; see ExecuteAccelSelectPartial).
  Result<std::optional<AggPartial>> ExecuteSelectPartial(
      const sql::BoundSelect& plan, TxnId reader, Csn snapshot,
      TraceContext tc = {});

  /// State/fault-gated columnar leg of an INSERT ... SELECT on this
  /// instance (the per-shard leg of a sharded one): ExecuteAccelSelectInto
  /// over this instance's tables.
  Result<std::optional<std::vector<ColumnarRows>>> SelectInto(
      const sql::BoundSelect& plan, const InsertLayout& layout, TxnId reader,
      Csn snapshot, TraceContext tc = {});

  /// kUnavailable unless Online, then the injector's draw for this
  /// accelerator's site. `op` names the rejected operation in the message.
  Status CheckReady(const char* op) const;

  ThreadPool* thread_pool() { return &pool_; }
  TransactionManager* txn_manager() { return tm_; }
  MetricsRegistry* metrics() { return metrics_; }

 protected:
  BatchOptions batch_options() const {
    return BatchOptions{options_.morsel_size};
  }
  /// Resolves a plan's tables to this instance's column tables.
  AccelTableResolver resolver() const;

  AcceleratorOptions options_;
  std::string name_;
  std::atomic<AcceleratorState> state_{AcceleratorState::kOnline};
  FaultInjector* injector_ = nullptr;
  std::atomic<bool> encoding_enabled_;
  CompactionListener compaction_listener_;
  TransactionManager* tm_;
  MetricsRegistry* metrics_;
  ThreadPool pool_;

 private:
  mutable std::mutex mu_;
  // shared_ptr so maintenance passes (GroomAll) can keep a table alive
  // across their per-table work while a concurrent DROP / AOT re-create
  // removes it from the map.
  std::map<std::string, std::shared_ptr<ColumnTable>> tables_;
};

}  // namespace idaa::accel
