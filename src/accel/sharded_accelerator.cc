#include "accel/sharded_accelerator.h"

#include <algorithm>

#include "accel/morsel_scan.h"
#include "engine/select_runtime.h"

namespace idaa::accel {

namespace {

/// Literal value an AND-conjunction scan predicate pins onto table-local
/// column `col` via equality, or nullptr. Only top-level conjuncts count:
/// under OR/NOT the restriction is not guaranteed.
const Value* EqualityConstant(const sql::BoundExpr* pred, size_t col) {
  if (pred == nullptr || pred->kind != sql::BoundExprKind::kBinary) {
    return nullptr;
  }
  if (pred->binary_op == sql::BinaryOp::kAnd) {
    const Value* v = EqualityConstant(pred->children[0].get(), col);
    if (v != nullptr) return v;
    return EqualityConstant(pred->children[1].get(), col);
  }
  if (pred->binary_op != sql::BinaryOp::kEq || pred->children.size() != 2) {
    return nullptr;
  }
  const sql::BoundExpr* a = pred->children[0].get();
  const sql::BoundExpr* b = pred->children[1].get();
  if (a->kind == sql::BoundExprKind::kColumn && a->index == col &&
      b->kind == sql::BoundExprKind::kLiteral) {
    return &b->literal;
  }
  if (b->kind == sql::BoundExprKind::kColumn && b->index == col &&
      a->kind == sql::BoundExprKind::kLiteral) {
    return &a->literal;
  }
  return nullptr;
}

/// The partition hash is over the *stored* representation; comparison
/// semantics coerce across numeric types (5 = 5.0 matches) but their
/// hashes differ, so pruning is only sound when the literal already has
/// the column's exact type.
bool HashCompatible(const Value& v, DataType type) {
  switch (type) {
    case DataType::kBoolean:
      return v.is_boolean();
    case DataType::kInteger:
      return v.is_integer();
    case DataType::kDouble:
      return v.is_double();
    case DataType::kVarchar:
      return v.is_varchar();
    case DataType::kDate:
      return v.is_date();
    case DataType::kTimestamp:
      return v.is_timestamp();
  }
  return false;
}

}  // namespace

size_t ShardedAccelerator::ShardOfValue(const Value& v, size_t num_shards) {
  // splitmix64 finalizer over Value::Hash: the slice level inside each
  // shard uses the raw hash mod num_slices, so the shard level must remix
  // or whole shards would collapse into single slices.
  uint64_t h = static_cast<uint64_t>(v.Hash());
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<size_t>(h % num_shards);
}

ShardedAccelerator::ShardedAccelerator(const AcceleratorOptions& options,
                                       size_t num_shards,
                                       TransactionManager* tm,
                                       MetricsRegistry* metrics,
                                       std::string name)
    : Accelerator(options, tm, metrics, std::move(name)) {
  if (num_shards == 0) num_shards = 1;
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Accelerator>(
        options, tm, metrics, name_ + "#" + std::to_string(i)));
    apply_epochs_.push_back(std::make_shared<std::atomic<uint64_t>>(0));
  }
}

std::shared_ptr<void> ShardedAccelerator::AcquirePin(bool bump_epochs) const {
  std::unique_lock<std::mutex> lock(gate_mu_);
  gate_cv_.wait(lock, [&] { return !topology_locked_; });
  ++active_pins_;
  std::vector<std::shared_ptr<std::atomic<uint64_t>>> epochs;
  if (bump_epochs) epochs = apply_epochs_;
  return std::shared_ptr<void>(
      static_cast<void*>(nullptr),
      [this, epochs = std::move(epochs)](void*) {
        for (const auto& e : epochs) {
          e->fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> release(gate_mu_);
        --active_pins_;
        gate_cv_.notify_all();
      });
}

Result<std::optional<size_t>> ShardedAccelerator::DistributionOf(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  auto it = dist_.find(Catalog::NormalizeName(name));
  if (it == dist_.end()) {
    return Status::NotFound("accelerator table not found: " + name);
  }
  return it->second;
}

Result<size_t> ShardedAccelerator::FirstOnlineShard() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->state() == AcceleratorState::kOnline) return i;
  }
  return Status::Unavailable("no Online shard of accelerator " + name_);
}

Status ShardedAccelerator::AllShardsOnline(const char* op) const {
  for (const auto& shard : shards_) {
    AcceleratorState s = shard->state();
    if (s != AcceleratorState::kOnline) {
      return Status::Unavailable(
          std::string(op) + ": shard " + shard->name() + " is " +
          (s == AcceleratorState::kOffline ? "offline"
                                           : "recovering (replaying "
                                             "replication backlog)"));
    }
  }
  return Status::OK();
}

size_t ShardedAccelerator::num_shards() const {
  auto pin = AcquirePin();
  return shards_.size();
}

std::vector<AcceleratorState> ShardedAccelerator::ShardStates() const {
  auto pin = AcquirePin();
  std::vector<AcceleratorState> states;
  states.reserve(shards_.size());
  for (const auto& shard : shards_) states.push_back(shard->state());
  return states;
}

Accelerator& ShardedAccelerator::shard(size_t i) {
  auto pin = AcquirePin();
  return *shards_[i];
}

void ShardedAccelerator::SetShardState(size_t i, AcceleratorState state) {
  auto pin = AcquirePin();
  shards_[i]->SetState(state);
}

AcceleratorState ShardedAccelerator::shard_state(size_t i) const {
  auto pin = AcquirePin();
  return shards_[i]->state();
}

uint64_t ShardedAccelerator::apply_epoch(size_t i) const {
  std::lock_guard<std::mutex> lock(gate_mu_);
  return apply_epochs_[i]->load(std::memory_order_relaxed);
}

uint64_t ShardedAccelerator::topology_epoch() const {
  return topology_epoch_.load(std::memory_order_acquire);
}

void ShardedAccelerator::set_topology_listener(TopologyListener listener) {
  std::lock_guard<std::mutex> lock(policy_mu_);
  topology_listener_ = std::move(listener);
}

void ShardedAccelerator::set_fault_injector(FaultInjector* injector) {
  auto pin = AcquirePin();
  injector_ = injector;
  for (auto& shard : shards_) shard->set_fault_injector(injector);
}

void ShardedAccelerator::SetEncodingEnabled(bool enabled) {
  auto pin = AcquirePin();
  encoding_enabled_ = enabled;
  options_.enable_encoding = enabled;
  for (auto& shard : shards_) shard->SetEncodingEnabled(enabled);
}

size_t ShardedAccelerator::NumTables() const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  return dist_.size();
}

Status ShardedAccelerator::AddTable(const TableInfo& info) {
  auto pin = AcquirePin();
  std::lock_guard<std::mutex> lock(policy_mu_);
  std::string name = Catalog::NormalizeName(info.name);
  if (dist_.count(name)) {
    return Status::AlreadyExists("accelerator table already exists: " + name);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status st = shards_[i]->AddTable(info);
    if (!st.ok()) {
      for (size_t j = 0; j < i; ++j) {
        (void)shards_[j]->RemoveTable(name);
      }
      return st;
    }
  }
  dist_[name] = info.distribution_column;
  infos_[name] = info;
  return Status::OK();
}

Status ShardedAccelerator::RemoveTable(const std::string& name) {
  auto pin = AcquirePin();
  std::lock_guard<std::mutex> lock(policy_mu_);
  std::string normalized = Catalog::NormalizeName(name);
  if (!dist_.count(normalized)) {
    return Status::NotFound("accelerator table not found: " + normalized);
  }
  for (auto& shard : shards_) (void)shard->RemoveTable(normalized);
  dist_.erase(normalized);
  infos_.erase(normalized);
  return Status::OK();
}

bool ShardedAccelerator::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  return dist_.count(Catalog::NormalizeName(name)) > 0;
}

Result<ColumnTable*> ShardedAccelerator::GetTable(const std::string& name) {
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc, DistributionOf(name));
  if (dc.has_value()) {
    return Status::NotSupported("table " + Catalog::NormalizeName(name) +
                                " is hash-partitioned across shards of " +
                                name_ + "; it has no single backing storage");
  }
  auto pin = AcquirePin();
  return shards_[0]->GetTable(name);
}

Result<const ColumnTable*> ShardedAccelerator::GetTable(
    const std::string& name) const {
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc, DistributionOf(name));
  if (dc.has_value()) {
    return Status::NotSupported("table " + Catalog::NormalizeName(name) +
                                " is hash-partitioned across shards of " +
                                name_ + "; it has no single backing storage");
  }
  auto pin = AcquirePin();
  return static_cast<const Accelerator*>(shards_[0].get())->GetTable(name);
}

Status ShardedAccelerator::LoadRows(const std::string& name,
                                    const std::vector<Row>& rows, TxnId txn) {
  IDAA_RETURN_IF_ERROR(CheckReady("LOAD"));
  auto pin = AcquirePin();
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc, DistributionOf(name));
  if (!dc.has_value()) {
    // Broadcast: every shard appends the full batch under the caller's
    // transaction; a mid-way shard failure aborts the transaction, which
    // makes the partial appends invisible on every copy.
    for (auto& shard : shards_) {
      IDAA_RETURN_IF_ERROR(shard->LoadRows(name, rows, txn));
    }
    return Status::OK();
  }
  const size_t n = shards_.size();
  std::vector<std::vector<Row>> split(n);
  for (const Row& row : rows) {
    if (row.size() <= *dc) {
      return Status::Internal("LOAD " + name +
                              ": row narrower than distribution column");
    }
    split[ShardOfValue(row[*dc], n)].push_back(row);
  }
  for (size_t i = 0; i < n; ++i) {
    if (split[i].empty()) continue;
    IDAA_RETURN_IF_ERROR(shards_[i]->LoadRows(name, split[i], txn));
  }
  return Status::OK();
}

Status ShardedAccelerator::LoadColumnar(const std::string& name,
                                        const ColumnarRows& rows, TxnId txn) {
  IDAA_RETURN_IF_ERROR(CheckReady("LOAD"));
  auto pin = AcquirePin();
  return AppendColumnar(name, std::span<const ColumnarRows>(&rows, 1), "LOAD",
                        txn);
}

Status ShardedAccelerator::AppendColumnar(
    const std::string& name, std::span<const ColumnarRows> batches,
    const char* op, TxnId txn) {
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc, DistributionOf(name));
  IDAA_ASSIGN_OR_RETURN(
      const ColumnTable* first,
      static_cast<const Accelerator*>(shards_[0].get())->GetTable(name));
  const Schema& schema = first->schema();
  for (const ColumnarRows& b : batches) {
    IDAA_RETURN_IF_ERROR(ValidateColumnar(schema, b));
  }
  // Broadcast tables take every batch on every shard; partitioned tables
  // take each row on the shard its distribution value hashes to, in batch
  // order.
  const size_t n = shards_.size();
  std::vector<std::vector<ColumnarRows>> split(dc.has_value() ? n : 0);
  if (dc.has_value()) {
    const DataType key_type = schema.Column(*dc).type;
    std::vector<size_t> shard_of;
    for (const ColumnarRows& b : batches) {
      shard_of.resize(b.num_rows);
      for (size_t r = 0; r < b.num_rows; ++r) {
        shard_of[r] =
            ShardOfValue(ColumnarCell(b.columns[*dc], key_type, r), n);
      }
      std::vector<ColumnarRows> parts = SplitColumnar(b, shard_of, n);
      for (size_t i = 0; i < n; ++i) {
        if (parts[i].num_rows > 0) split[i].push_back(std::move(parts[i]));
      }
    }
  }
  auto share = [&](size_t i) -> std::span<const ColumnarRows> {
    return dc.has_value() ? split[i] : batches;
  };
  // Every receiving shard passes its readiness check (state and fault
  // draw) before the first append, so the call appends all or nothing and
  // a retry cannot duplicate rows.
  std::vector<ColumnTable*> tables(n, nullptr);
  for (size_t i = 0; i < n; ++i) {
    if (share(i).empty()) continue;
    IDAA_RETURN_IF_ERROR(shards_[i]->CheckReady(op));
    IDAA_ASSIGN_OR_RETURN(tables[i], shards_[i]->GetTable(name));
  }
  for (size_t i = 0; i < n; ++i) {
    if (tables[i] != nullptr) {
      IDAA_RETURN_IF_ERROR(tables[i]->InsertColumnar(share(i), txn));
    }
  }
  return Status::OK();
}

Result<ShardedAccelerator::SelectRoute> ShardedAccelerator::RouteSelect(
    const sql::BoundSelect& plan, TraceContext tc) {
  size_t partitioned_count = 0;
  size_t partitioned_table = 0;
  size_t partitioned_col = 0;
  for (size_t t = 0; t < plan.tables.size(); ++t) {
    IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc,
                          DistributionOf(plan.tables[t].info->name));
    if (dc.has_value()) {
      ++partitioned_count;
      partitioned_table = t;
      partitioned_col = *dc;
    }
  }
  SelectRoute route;
  route.partitioned_table =
      partitioned_count == 1 ? partitioned_table : plan.tables.size();

  if (partitioned_count == 0) {
    // Every table is broadcast: any Online shard holds the full data.
    // Prefer shard 0, which predates every topology change and therefore
    // has the complete version history.
    IDAA_ASSIGN_OR_RETURN(size_t s, FirstOnlineShard());
    TraceSpan span(tc, "accel.shard_route");
    span.Attr("strategy", "broadcast_delegate");
    span.Attr("shard", static_cast<uint64_t>(s));
    route.shard = s;
    return route;
  }

  if (partitioned_count == 1) {
    // Shard pruning: an equality on the distribution column confines the
    // partitioned table's matching rows to exactly one shard, so the whole
    // plan runs there against 1/N of the data.
    const sql::BoundTable& pbt = plan.tables[partitioned_table];
    const Value* eq = EqualityConstant(pbt.scan_predicate.get(),
                                       partitioned_col);
    if (eq != nullptr && !eq->is_null() &&
        HashCompatible(*eq, pbt.info->schema.Column(partitioned_col).type)) {
      size_t s = ShardOfValue(*eq, shards_.size());
      if (shards_[s]->state() != AcceleratorState::kOnline) {
        return Status::Unavailable("SELECT: shard " + shards_[s]->name() +
                                   " is not Online");
      }
      TraceSpan span(tc, "accel.shard_route");
      span.Attr("strategy", "shard_pruned");
      span.Attr("shard", static_cast<uint64_t>(s));
      route.shard = s;
    }
  }
  return route;
}

Result<ResultSet> ShardedAccelerator::ExecuteSelect(const sql::BoundSelect& plan,
                                                    TxnId reader, Csn snapshot,
                                                    TraceContext tc) {
  IDAA_RETURN_IF_ERROR(CheckReady("SELECT"));
  auto pin = AcquirePin();
  return SelectPinned(plan, reader, snapshot, tc);
}

Result<ResultSet> ShardedAccelerator::SelectPinned(
    const sql::BoundSelect& plan, TxnId reader, Csn snapshot,
    TraceContext tc) {
  IDAA_ASSIGN_OR_RETURN(SelectRoute route, RouteSelect(plan, tc));
  if (route.shard.has_value()) {
    return shards_[*route.shard]->ExecuteSelect(plan, reader, snapshot, tc);
  }
  return ScatterGather(plan, reader, snapshot, tc, route.partitioned_table);
}

bool ShardedAccelerator::ConcatScatterEligible(const sql::BoundSelect& plan,
                                               size_t partitioned_table) {
  return partitioned_table < plan.tables.size() && !plan.has_aggregation &&
         plan.order_by.empty() && !plan.limit.has_value() && !plan.distinct;
}

template <typename T, typename Local>
Result<std::vector<T>> ShardedAccelerator::ConcatScatter(const Local& local,
                                                         TraceContext tc) {
  // Scatter requires every shard: a down shard means a hole in the data.
  IDAA_RETURN_IF_ERROR(AllShardsOnline("SELECT"));
  const size_t n = shards_.size();
  TraceSpan span(tc, "accel.shard_scatter");
  span.Attr("shards", static_cast<uint64_t>(n));
  span.Attr("strategy", "concat");
  std::vector<Result<T>> locals;
  locals.reserve(n);
  for (size_t i = 0; i < n; ++i) locals.emplace_back(T{});
  pool_.ParallelFor(n,
                    [&](size_t i) { locals[i] = local(i, span.context()); });
  std::vector<T> out;
  out.reserve(n);
  for (Result<T>& l : locals) {
    IDAA_RETURN_IF_ERROR(l.status());
    out.push_back(std::move(*l));
  }
  return out;
}

Status ShardedAccelerator::InsertSelect(
    const std::string& target, const sql::BoundSelect& plan,
    const std::vector<size_t>& column_mapping, TxnId txn, Csn snapshot,
    TraceContext tc, InsertSelectResult* out) {
  using Batches = std::vector<ColumnarRows>;
  IDAA_RETURN_IF_ERROR(CheckReady("INSERT"));
  auto pin = AcquirePin();
  IDAA_ASSIGN_OR_RETURN(
      const ColumnTable* first,
      static_cast<const Accelerator*>(shards_[0].get())->GetTable(target));
  const Schema& schema = first->schema();
  const InsertLayout layout = MakeInsertLayout(plan, column_mapping, schema);

  // Produce: the columnar leg wherever ExecuteSelect would run the plan
  // as one local plan per shard, in the order it would concatenate rows.
  std::optional<Batches> columnar;
  if (ColumnarInsertEligible(plan)) {
    IDAA_ASSIGN_OR_RETURN(SelectRoute route, RouteSelect(plan, tc));
    if (route.shard.has_value()) {
      IDAA_ASSIGN_OR_RETURN(columnar,
                            shards_[*route.shard]->SelectInto(
                                plan, layout, txn, snapshot, tc));
    } else if (ConcatScatterEligible(plan, route.partitioned_table)) {
      IDAA_ASSIGN_OR_RETURN(
          std::vector<std::optional<Batches>> locals,
          ConcatScatter<std::optional<Batches>>(
              [&](size_t i, TraceContext shard_tc) {
                return shards_[i]->SelectInto(plan, layout, txn, snapshot,
                                              shard_tc);
              },
              tc));
      Batches all;
      bool declined = false;
      for (std::optional<Batches>& local : locals) {
        if (!local.has_value()) {
          declined = true;
          continue;
        }
        for (ColumnarRows& b : *local) all.push_back(std::move(b));
      }
      if (!declined) columnar = std::move(all);
    }
  }
  out->columnar = columnar.has_value();
  Batches batches;
  if (columnar.has_value()) {
    batches = std::move(*columnar);
  } else {
    IDAA_ASSIGN_OR_RETURN(ResultSet rows,
                          SelectPinned(plan, txn, snapshot, tc));
    IDAA_ASSIGN_OR_RETURN(ColumnarRows staged,
                          RowsToColumnar(rows.rows(), column_mapping, schema));
    batches.push_back(std::move(staged));
  }
  out->appending = true;
  IDAA_RETURN_IF_ERROR(AppendColumnar(target, batches, "INSERT", txn));
  for (const ColumnarRows& b : batches) out->rows += b.num_rows;
  return Status::OK();
}

Result<ResultSet> ShardedAccelerator::ScatterGather(
    const sql::BoundSelect& plan, TxnId reader, Csn snapshot, TraceContext tc,
    size_t partitioned_table) {
  if (ConcatScatterEligible(plan, partitioned_table)) {
    IDAA_ASSIGN_OR_RETURN(std::vector<ResultSet> locals,
                          ConcatScatter<ResultSet>(
                              [&](size_t i, TraceContext shard_tc) {
                                return shards_[i]->ExecuteSelect(
                                    plan, reader, snapshot, shard_tc);
                              },
                              tc));
    ResultSet out(locals[0].schema());
    for (ResultSet& local : locals) {
      for (Row& row : local.mutable_rows()) out.Append(std::move(row));
    }
    return out;
  }
  // Scatter requires every shard: a down shard means a hole in the data.
  IDAA_RETURN_IF_ERROR(AllShardsOnline("SELECT"));
  const size_t n = shards_.size();
  TraceSpan span(tc, "accel.shard_scatter");
  span.Attr("shards", static_cast<uint64_t>(n));
  const bool single_partitioned = partitioned_table < plan.tables.size();

  // Partial-aggregate scatter: each shard merges its slice partials in the
  // single-appliance order and ships ONE unfinalized partial; the
  // coordinator merges them in shard order through the same MergeAggPartials
  // used by slice aggregation, so every group's accumulator sees the same
  // merge tree as on one appliance — results are bit-identical. Only valid
  // when the partitioned table is the base table (non-base tables feed the
  // shard-local join hash builds, which need the full copy).
  if (plan.has_aggregation && single_partitioned && partitioned_table == 0) {
    std::vector<Result<std::optional<AggPartial>>> parts;
    parts.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      parts.emplace_back(std::optional<AggPartial>{});
    }
    pool_.ParallelFor(n, [&](size_t i) {
      parts[i] = shards_[i]->ExecuteSelectPartial(plan, reader, snapshot, tc);
    });
    bool all_partial = true;
    for (const auto& p : parts) {
      IDAA_RETURN_IF_ERROR(p.status());
      if (!p->has_value()) {
        all_partial = false;
        break;
      }
    }
    if (all_partial) {
      std::vector<AggPartial> shard_partials;
      shard_partials.reserve(n);
      for (auto& p : parts) shard_partials.push_back(std::move(**p));
      span.Attr("strategy", "partial_aggregate");
      IDAA_ASSIGN_OR_RETURN(std::vector<Row> post,
                            MergeAggPartials(plan, &shard_partials));
      return exec::FinalizeSelect(plan, std::move(post));
    }
  }

  // Row-gather fallback, correct for every remaining shape (including
  // joins between partitioned tables): partitioned tables are scanned on
  // every shard with the scan predicate pushed down and concatenated
  // shard-major; broadcast tables come from shard 0; the shared
  // coordinator runtime finishes the plan.
  span.Attr("strategy", "row_gather");
  const std::optional<size_t> limit_cap = exec::ScanOutputCap(plan);
  std::vector<std::vector<uint8_t>> projections = ComputeProjections(plan);
  exec::TableSource source = [&](size_t index) -> Result<std::vector<Row>> {
    const sql::BoundTable& bt = plan.tables[index];
    IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc,
                          DistributionOf(bt.info->name));
    if (!dc.has_value()) {
      return shards_[0]->ScanTable(bt.info->name, bt.scan_predicate.get(),
                                   reader, snapshot, &projections[index], tc,
                                   limit_cap);
    }
    std::vector<Row> all;
    for (auto& shard : shards_) {
      IDAA_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          shard->ScanTable(bt.info->name, bt.scan_predicate.get(), reader,
                           snapshot, &projections[index], tc, limit_cap));
      all.insert(all.end(), std::make_move_iterator(rows.begin()),
                 std::make_move_iterator(rows.end()));
    }
    return all;
  };
  exec::ExecutorOptions options;
  options.metrics = nullptr;  // shard slice scans account their own rows
  options.apply_scan_predicates = false;
  return exec::ExecuteBoundSelect(plan, source, options);
}

Result<size_t> ShardedAccelerator::ExecuteUpdate(const sql::BoundUpdate& plan,
                                                 TxnId txn, Csn snapshot) {
  IDAA_RETURN_IF_ERROR(CheckReady("UPDATE"));
  auto pin = AcquirePin();
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc,
                        DistributionOf(plan.table->name));
  IDAA_RETURN_IF_ERROR(AllShardsOnline("UPDATE"));
  if (dc.has_value()) {
    // In-place updates must preserve the placement invariant (a row lives
    // on the shard its distribution value hashes to) — the invariant that
    // makes shard pruning and hashed replication routing sound.
    for (const auto& [col, expr] : plan.assignments) {
      if (col == *dc) {
        return Status::SemanticError(
            "cannot update the distribution key of hash-partitioned table " +
            plan.table->name + "; delete and re-insert instead");
      }
    }
    size_t total = 0;
    for (auto& shard : shards_) {
      IDAA_ASSIGN_OR_RETURN(size_t count,
                            shard->ExecuteUpdate(plan, txn, snapshot));
      total += count;
    }
    return total;
  }
  size_t first = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    IDAA_ASSIGN_OR_RETURN(size_t count,
                          shards_[i]->ExecuteUpdate(plan, txn, snapshot));
    if (i == 0) first = count;
  }
  return first;
}

Result<size_t> ShardedAccelerator::ExecuteDelete(const sql::BoundDelete& plan,
                                                 TxnId txn, Csn snapshot) {
  IDAA_RETURN_IF_ERROR(CheckReady("DELETE"));
  auto pin = AcquirePin();
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc,
                        DistributionOf(plan.table->name));
  IDAA_RETURN_IF_ERROR(AllShardsOnline("DELETE"));
  if (dc.has_value()) {
    size_t total = 0;
    for (auto& shard : shards_) {
      IDAA_ASSIGN_OR_RETURN(size_t count,
                            shard->ExecuteDelete(plan, txn, snapshot));
      total += count;
    }
    return total;
  }
  size_t first = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    IDAA_ASSIGN_OR_RETURN(size_t count,
                          shards_[i]->ExecuteDelete(plan, txn, snapshot));
    if (i == 0) first = count;
  }
  return first;
}

GroomStats ShardedAccelerator::GroomAll() {
  auto pin = AcquirePin();
  GroomStats total;
  for (auto& shard : shards_) {
    // Per-shard groom (and per-shard zone compaction): surviving shards
    // keep reclaiming while one is down.
    if (shard->state() == AcceleratorState::kOffline) continue;
    GroomStats stats = shard->GroomAll();
    total.rows_examined += stats.rows_examined;
    total.rows_reclaimed += stats.rows_reclaimed;
    total.zones_compacted += stats.zones_compacted;
  }
  // The shard-level compaction listeners are not wired (shards are
  // internal); fan out one notification for the logical accelerator.
  if ((total.rows_reclaimed > 0 || total.zones_compacted > 0) &&
      compaction_listener_) {
    compaction_listener_(ListTables());
  }
  return total;
}

std::vector<std::string> ShardedAccelerator::ListTables() const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  std::vector<std::string> names;
  names.reserve(dist_.size());
  for (const auto& [name, dc] : dist_) names.push_back(name);
  return names;
}

Result<size_t> ShardedAccelerator::TableVersions(
    const std::string& name) const {
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc, DistributionOf(name));
  auto pin = AcquirePin();
  if (!dc.has_value()) return shards_[0]->TableVersions(name);
  size_t total = 0;
  for (const auto& shard : shards_) {
    IDAA_ASSIGN_OR_RETURN(size_t versions, shard->TableVersions(name));
    total += versions;
  }
  return total;
}

Result<std::vector<Row>> ShardedAccelerator::SnapshotRows(
    const std::string& name, TxnId reader, Csn snapshot) const {
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc, DistributionOf(name));
  auto pin = AcquirePin();
  if (!dc.has_value()) return shards_[0]->SnapshotRows(name, reader, snapshot);
  std::vector<Row> all;
  for (const auto& shard : shards_) {
    IDAA_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          shard->SnapshotRows(name, reader, snapshot));
    all.insert(all.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return all;
}

Result<ReplicaRoute> ShardedAccelerator::ReplicaRouteFor(
    const std::string& table) {
  auto pin = AcquirePin(/*bump_epochs=*/true);
  IDAA_ASSIGN_OR_RETURN(std::optional<size_t> dc, DistributionOf(table));
  // Apply lands while Recovering (catch-up is exactly this), but an
  // Offline shard cannot receive its share — the batch must requeue.
  for (const auto& shard : shards_) {
    if (shard->state() == AcceleratorState::kOffline) {
      return Status::Unavailable("APPLY: shard " + shard->name() +
                                 " is offline");
    }
  }
  ReplicaRoute route;
  route.targets.reserve(shards_.size());
  for (auto& shard : shards_) {
    IDAA_ASSIGN_OR_RETURN(ColumnTable * storage, shard->GetTable(table));
    route.targets.push_back(storage);
  }
  if (dc.has_value()) {
    const size_t col = *dc;
    const size_t n = shards_.size();
    route.shard_of = [col, n](const Row& row) {
      return col < row.size() ? ShardOfValue(row[col], n) : 0;
    };
  }
  route.pin = std::move(pin);
  return route;
}

Status ShardedAccelerator::AddShard() {
  // Exclusive topology gate: wait for every in-flight statement and
  // replication route to drain, then block new pins for the duration.
  {
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.wait(lock, [&] { return !topology_locked_ && active_pins_ == 0; });
    topology_locked_ = true;
  }

  std::map<std::string, std::optional<size_t>> dist;
  std::map<std::string, TableInfo> infos;
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    dist = dist_;
    infos = infos_;
  }

  const size_t n = shards_.size() + 1;
  auto fresh = std::make_unique<Accelerator>(
      options_, tm_, metrics_, name_ + "#" + std::to_string(n - 1));
  fresh->set_fault_injector(injector_);
  fresh->SetEncodingEnabled(encoding_enabled_.load());

  // All data movement happens inside one MVCC transaction: the new
  // placement becomes visible atomically at commit, and any failure
  // aborts — moved-away rows stay visible at the source and copies on the
  // unpublished shard never become visible.
  Status st = Status::OK();
  Transaction* txn = tm_->Begin();
  for (const auto& [name, info] : infos) {
    st = fresh->AddTable(info);
    if (!st.ok()) break;
  }
  // Broadcast tables: full copy from shard 0 (complete version history).
  if (st.ok()) {
    for (const auto& [name, dc] : dist) {
      if (dc.has_value()) continue;
      auto rows = shards_[0]->SnapshotRows(name, txn->id(), txn->snapshot_csn());
      if (!rows.ok()) {
        st = rows.status();
        break;
      }
      auto storage = fresh->GetTable(name);
      if (!storage.ok()) {
        st = storage.status();
        break;
      }
      st = (*storage)->Insert(*rows, txn->id());
      if (!st.ok()) break;
    }
  }
  // Partitioned tables: re-hash every visible row against the grown shard
  // count and move the ones whose home changed.
  if (st.ok()) {
    for (const auto& [name, dc] : dist) {
      if (!dc.has_value()) continue;
      for (size_t s = 0; s + 1 < n && st.ok(); ++s) {
        auto rows =
            shards_[s]->SnapshotRows(name, txn->id(), txn->snapshot_csn());
        if (!rows.ok()) {
          st = rows.status();
          break;
        }
        auto src = shards_[s]->GetTable(name);
        if (!src.ok()) {
          st = src.status();
          break;
        }
        std::vector<std::vector<Row>> moves(n);
        for (Row& row : *rows) {
          size_t dest = ShardOfValue(row[*dc], n);
          if (dest != s) moves[dest].push_back(std::move(row));
        }
        for (size_t dest = 0; dest < n && st.ok(); ++dest) {
          if (moves[dest].empty()) continue;
          auto dst = dest + 1 == n ? fresh->GetTable(name)
                                   : shards_[dest]->GetTable(name);
          if (!dst.ok()) {
            st = dst.status();
            break;
          }
          for (const Row& row : moves[dest]) {
            auto deleted = (*src)->DeleteOneMatching(
                row, txn->id(), txn->snapshot_csn(), *tm_);
            if (!deleted.ok()) {
              st = deleted.status();
              break;
            }
          }
          if (st.ok()) st = (*dst)->Insert(moves[dest], txn->id());
        }
      }
      if (!st.ok()) break;
    }
  }
  if (st.ok()) {
    st = tm_->Commit(txn);
  } else {
    (void)tm_->Abort(txn);
  }
  if (st.ok()) {
    // Publish the grown topology (gate_mu_ orders the growth against pin
    // acquisition for memory visibility).
    std::lock_guard<std::mutex> lock(gate_mu_);
    shards_.push_back(std::move(fresh));
    apply_epochs_.push_back(std::make_shared<std::atomic<uint64_t>>(0));
  }

  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    topology_locked_ = false;
    gate_cv_.notify_all();
  }

  if (st.ok()) {
    topology_epoch_.fetch_add(1, std::memory_order_release);
    TopologyListener listener;
    {
      std::lock_guard<std::mutex> lock(policy_mu_);
      listener = topology_listener_;
    }
    if (listener) {
      std::vector<std::string> tables;
      tables.reserve(dist.size());
      for (const auto& [name, dc] : dist) tables.push_back(name);
      listener(tables);
    }
  }
  return st;
}

}  // namespace idaa::accel
