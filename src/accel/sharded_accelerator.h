// ShardedAccelerator: one logical accelerator presented over N physical
// Accelerator shard instances, behind the exact single-appliance API.
//
// Placement follows the DDL: a table with DISTRIBUTE BY is hash-
// partitioned across the shards on that column (shard hash is a
// splitmix64 remix of Value::Hash so it stays independent of the
// slice-level placement inside each shard); a table without one is
// broadcast — every shard holds a full copy, so the batch hash join
// builds its dimension side locally and joins never move rows between
// shards.
//
// SELECT strategy, in order:
//   1. all tables broadcast            -> delegate whole plan to one
//                                         Online shard (prefer shard 0,
//                                         which always has full history);
//   2. partition-key equality          -> shard-pruned: the scan
//      predicate pins the distribution    predicate restricts the fact
//      column to one constant             table to exactly one shard, so
//                                         the whole plan runs there (the
//                                         source of scale-out: 1/N of the
//                                         data is touched per query);
//   3. aggregation                     -> scatter: every shard computes an
//                                         unfinalized AggPartial locally
//                                         (slice aggregation, or the batch
//                                         join's aggregate-mode probe,
//                                         merged in the single-appliance
//                                         order), the
//                                         coordinator merges shard
//                                         partials in shard order and
//                                         finalizes — bit-identical to one
//                                         appliance for any shard count;
//   4. no agg/order/limit/distinct     -> scatter-concat: each shard runs
//                                         the full local plan, results are
//                                         concatenated shard-major;
//   5. anything else                   -> row-gather: partitioned tables
//                                         are scanned on every shard with
//                                         the scan predicate pushed down,
//                                         broadcast tables on shard 0, and
//                                         the shared coordinator runtime
//                                         finishes the plan.
//
// Topology changes (AddShard with rebalance) run under an exclusive
// topology gate; every statement and every replication route holds a
// shared pin. Pins never block each other, so replication and queries
// only stall for the bounded duration of a rebalance. Rebalance happens
// inside one MVCC transaction: moved rows become visible atomically at
// commit and no reader can observe a half-moved table. Releasing a
// replication pin advances the touched shards' apply epochs; a topology
// change advances the topology epoch and fires the invalidation listener
// so the WLM result cache drops entries for every sharded table.
//
// Failure granularity is the shard: a single Offline shard fails only the
// statements that need it (kUnavailable, retryable), which composes with
// the router's per-statement failback and the health monitor's per-shard
// breaker sites ("<name>#<i>") — the logical accelerator stays attached.

#pragma once

#include <condition_variable>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "accel/accelerator.h"

namespace idaa::accel {

class ShardedAccelerator : public Accelerator {
 public:
  /// Fires after a topology change commits, with the names of every table
  /// whose placement may have changed (WLM result-cache invalidation).
  using TopologyListener =
      std::function<void(const std::vector<std::string>& tables)>;

  ShardedAccelerator(const AcceleratorOptions& options, size_t num_shards,
                     TransactionManager* tm, MetricsRegistry* metrics,
                     std::string name = "ACCEL1");

  // -- shard management ----------------------------------------------------

  size_t num_shards() const override;
  std::vector<AcceleratorState> ShardStates() const override;

  /// Direct access to one shard instance (tests, health monitoring).
  Accelerator& shard(size_t i);

  /// Per-shard lifecycle control (outage simulation). The logical state
  /// stays Online: statements that can avoid the downed shard still run.
  void SetShardState(size_t i, AcceleratorState state);
  AcceleratorState shard_state(size_t i) const;

  /// Online shard add: creates shard N, registers every table on it, then
  /// rebalances under the exclusive topology gate — broadcast tables are
  /// copied from shard 0, and partitioned rows whose hash now lands on a
  /// different shard are moved — all in one MVCC transaction, so the new
  /// placement becomes visible atomically. Advances the topology epoch
  /// and fires the topology listener.
  Status AddShard();

  /// Monotone counter advanced every time a replication route pin over
  /// shard `i` is released (i.e. after each applied batch touching it).
  uint64_t apply_epoch(size_t i) const;

  /// Monotone counter advanced by every committed topology change.
  uint64_t topology_epoch() const;

  void set_topology_listener(TopologyListener listener);

  // -- Accelerator API -----------------------------------------------------

  void set_fault_injector(FaultInjector* injector) override;
  void SetEncodingEnabled(bool enabled) override;

  size_t NumTables() const override;
  Status AddTable(const TableInfo& info) override;
  Status RemoveTable(const std::string& name) override;
  bool HasTable(const std::string& name) const override;
  Result<ColumnTable*> GetTable(const std::string& name) override;
  Result<const ColumnTable*> GetTable(const std::string& name) const override;
  Status LoadRows(const std::string& name, const std::vector<Row>& rows,
                  TxnId txn) override;
  Status LoadColumnar(const std::string& name, const ColumnarRows& rows,
                      TxnId txn) override;
  Result<ResultSet> ExecuteSelect(const sql::BoundSelect& plan, TxnId reader,
                                  Csn snapshot, TraceContext tc = {}) override;
  /// Runs the SELECT through the same shard strategies as ExecuteSelect —
  /// the columnar leg on the broadcast-delegate, shard-pruned and concat
  /// routes (shard-major batch order, as concat orders rows), the rows leg
  /// otherwise — then appends the batches through AppendColumnar.
  Status InsertSelect(const std::string& target, const sql::BoundSelect& plan,
                      const std::vector<size_t>& column_mapping, TxnId txn,
                      Csn snapshot, TraceContext tc,
                      InsertSelectResult* out) override;
  Result<size_t> ExecuteUpdate(const sql::BoundUpdate& plan, TxnId txn,
                               Csn snapshot) override;
  Result<size_t> ExecuteDelete(const sql::BoundDelete& plan, TxnId txn,
                               Csn snapshot) override;
  GroomStats GroomAll() override;
  std::vector<std::string> ListTables() const override;
  Result<size_t> TableVersions(const std::string& name) const override;
  Result<std::vector<Row>> SnapshotRows(const std::string& name, TxnId reader,
                                        Csn snapshot) const override;
  Result<ReplicaRoute> ReplicaRouteFor(const std::string& table) override;

  /// Shard a row's partition-column value lands on (exposed for tests).
  static size_t ShardOfValue(const Value& v, size_t num_shards);

 private:
  /// Shared topology pin: blocks only while a topology change is in
  /// progress. When `bump_epochs`, releasing the pin advances the apply
  /// epoch of every current shard (replication routes).
  std::shared_ptr<void> AcquirePin(bool bump_epochs = false) const;

  /// Distribution column of `name` (normalized), nullopt for broadcast;
  /// kNotFound when the table is unknown to the shard group.
  Result<std::optional<size_t>> DistributionOf(const std::string& name) const;

  /// Lowest-index Online shard; kUnavailable (retryable) when none.
  Result<size_t> FirstOnlineShard() const;

  /// kUnavailable naming the first non-Online shard; OK when all serve.
  Status AllShardsOnline(const char* op) const;

  /// Where a SELECT runs: on one shard (every table broadcast, or the one
  /// partitioned table pruned to a shard by a distribution-key equality),
  /// or scattered. `partitioned_table` is the index of the single
  /// partitioned table, plan.tables.size() when several are partitioned.
  struct SelectRoute {
    std::optional<size_t> shard;
    size_t partitioned_table = 0;
  };
  /// Callers hold a topology pin. Records the delegate decision as an
  /// accel.shard_route span.
  Result<SelectRoute> RouteSelect(const sql::BoundSelect& plan,
                                  TraceContext tc);

  /// Append `batches` to `name` under `txn`, each row on the shard it
  /// belongs to (every shard for a broadcast table), in batch order. All
  /// batches are validated and every receiving shard passes
  /// CheckReady(op) before the first append, so the call appends all or
  /// nothing. Callers hold a topology pin.
  Status AppendColumnar(const std::string& name,
                        std::span<const ColumnarRows> batches, const char* op,
                        TxnId txn);

  /// The concat scatter's shape: exactly one partitioned table and no
  /// global operator (aggregation, ORDER BY, LIMIT, DISTINCT), so the plan
  /// distributes over the union of that table's partitions (joins against
  /// broadcast copies are local) and the shards' local results
  /// concatenate shard-major.
  static bool ConcatScatterEligible(const sql::BoundSelect& plan,
                                    size_t partitioned_table);

  /// The concat scatter: with every shard Online, runs `local(i, tc)` (the
  /// full local plan on shard i) on all shards in parallel under an
  /// accel.shard_scatter span (strategy=concat) and returns the results in
  /// shard order, or the first failing shard's error. Callers hold a
  /// topology pin.
  template <typename T, typename Local>
  Result<std::vector<T>> ConcatScatter(const Local& local, TraceContext tc);

  /// ExecuteSelect's body; callers hold a topology pin.
  Result<ResultSet> SelectPinned(const sql::BoundSelect& plan, TxnId reader,
                                 Csn snapshot, TraceContext tc);

  Result<ResultSet> ScatterGather(const sql::BoundSelect& plan, TxnId reader,
                                  Csn snapshot, TraceContext tc,
                                  size_t partitioned_table);

  // Guards shards_ growth and the pin/exclusive handshake. Readers of
  // shards_ hold either a pin or gate_mu_ itself; shards_ only grows, and
  // it grows only under the exclusive gate.
  mutable std::mutex gate_mu_;
  mutable std::condition_variable gate_cv_;
  mutable size_t active_pins_ = 0;
  bool topology_locked_ = false;

  std::vector<std::unique_ptr<Accelerator>> shards_;
  // shared_ptr so a route pin created before an AddShard can still bump
  // epochs it captured, and apply_epoch() needs no gate.
  std::vector<std::shared_ptr<std::atomic<uint64_t>>> apply_epochs_;
  std::atomic<uint64_t> topology_epoch_{0};

  // Placement policy + original definitions (AddShard re-registers every
  // table on the new shard).
  mutable std::mutex policy_mu_;
  std::map<std::string, std::optional<size_t>> dist_;
  std::map<std::string, TableInfo> infos_;

  TopologyListener topology_listener_;
};

}  // namespace idaa::accel
