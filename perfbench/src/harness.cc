#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "accel/sharded_accelerator.h"
#include "oracle.h"
#include "sql/parser.h"
#include "stats.h"

namespace perfbench {

using idaa::IdaaSystem;
using idaa::Result;
using idaa::ResultSet;
using idaa::Status;
using idaa::Transaction;
namespace federation = idaa::federation;
namespace sql = idaa::sql;

// -- reporting ----------------------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

namespace {

std::string JsonNumber(double v) {
  // A failed operation has infinite latency; JSON has no infinity, so it is
  // reported as 1e12 (far above any measured value).
  if (!std::isfinite(v)) v = v > 0 ? 1e12 : 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           JsonNumber(entries_[i].value) + ", \"unit\": \"" + entries_[i].unit +
           "\"}";
  }
  return out + "}";
}

void Note(const std::string& line) { std::cout << "# " << line << "\n"; }

void NoteMetric(const std::string& name, double value, const std::string& unit,
                size_t samples) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-32s %14.4f %-6s (n=%zu)", name.c_str(),
                value, unit.c_str(), samples);
  Note(buf);
}

void NoteLatency(const std::string& prefix, const std::vector<double>& samples,
                 int pct) {
  int supported = std::min(pct, HighestSupportedPercentile(samples.size()));
  if (supported == 0) {
    Note(prefix + ": too few samples (" + std::to_string(samples.size()) +
         ") for any percentile");
    return;
  }
  NoteMetric(prefix + "_p" + std::to_string(supported) + "_ms",
             *Percentile(samples, supported), "ms", samples.size());
}

double WorkP50(const std::vector<double>& samples) {
  if (auto p50 = Percentile(samples, 50)) return *p50;
  Note("work_p50_ms: only " + std::to_string(samples.size()) +
       " units of work, fewer than ten beyond the median; run longer");
  return Median(samples);
}

int Finish(const Checks& checks, uint64_t attempted, uint64_t failed,
           const Metrics& metrics) {
  if (attempted == 0) {
    std::cerr << "no operation was attempted\n";
    return 2;
  }
  for (const std::string& f : checks.failures) {
    std::cerr << "correctness check failed: " << f << "\n";
  }
  std::cout << "{\"correct\": " << (checks.ok() ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": "
            << metrics.ToJson() << "}" << std::endl;
  return 0;
}

// -- set-up -------------------------------------------------------------------

void MustOk(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::cerr << "set-up failed: " << what << ": " << status.ToString() << "\n";
  std::exit(2);
}

void MustExec(idaa::Connection& conn, const std::string& sql) {
  auto r = conn.Execute(sql);
  MustOk(r.ok() ? Status::OK() : r.status(), sql);
}

void LoadDb2Table(IdaaSystem& system, const std::string& table,
                  const idaa::Schema& schema, int64_t rows,
                  std::function<idaa::Row(size_t)> row) {
  idaa::loader::GeneratorSource source(schema, static_cast<size_t>(rows),
                                       std::move(row));
  idaa::loader::LoadOptions options;
  options.batch_size = 8192;
  auto report = system.loader().Load(table, &source, options);
  MustOk(report.ok() ? Status::OK() : report.status(), "load " + table);
}

void LoadAndAccelerate(IdaaSystem& system, uint64_t seed, int64_t orders,
                       int64_t customers, bool distribute_by_id) {
  auto conn = system.NewConnection();
  MustExec(*conn, OrdersDdl(distribute_by_id));
  MustExec(*conn, CustomersDdl());
  LoadDb2Table(system, "orders", OrdersSchema(), orders,
               [seed, customers](size_t i) {
                 return OrderRow(seed, static_cast<int64_t>(i), customers);
               });
  LoadDb2Table(system, "customers", CustomersSchema(), customers,
               [seed](size_t i) {
                 return CustomerRow(seed, static_cast<int64_t>(i));
               });
  MustExec(*conn, "CALL SYSPROC.ACCEL_ADD_TABLES('orders')");
  MustExec(*conn, "CALL SYSPROC.ACCEL_ADD_TABLES('customers')");
  MustExec(*conn, "CALL SYSPROC.ACCEL_GROOM()");
}

double TimedSetup(
    int reps, const std::function<std::unique_ptr<IdaaSystem>()>& build,
    std::unique_ptr<IdaaSystem>* keep) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    keep->reset();
    uint64_t t0 = NowNs();
    std::unique_ptr<IdaaSystem> system = build();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    *keep = std::move(system);
  }
  return Median(seconds);
}

double AccelBytesPerRow(IdaaSystem& system,
                        const std::vector<std::string>& tables) {
  auto conn = system.NewConnection();
  federation::ExecOptions no_cache;
  no_cache.use_result_cache = false;
  double bytes = 0, rows = 0;
  for (const std::string& table : tables) {
    auto info = system.catalog().GetTable(table);
    MustOk(info.ok() ? Status::OK() : info.status(), "catalog " + table);
    auto accel = system.AcceleratorForTable(**info);
    MustOk(accel.ok() ? Status::OK() : accel.status(), "placement " + table);
    auto* sharded = dynamic_cast<idaa::accel::ShardedAccelerator*>(*accel);
    size_t shards = sharded != nullptr ? sharded->num_shards() : 1;
    for (size_t i = 0; i < shards; ++i) {
      idaa::accel::Accelerator& a =
          sharded != nullptr ? sharded->shard(i) : **accel;
      auto storage = a.GetTable((*info)->name);
      MustOk(storage.ok() ? Status::OK() : storage.status(),
             "storage " + table);
      bytes += static_cast<double>((*storage)->ByteSize());
    }
    auto count = conn->Execute("SELECT COUNT(*) FROM " + table, no_cache);
    MustOk(count.ok() ? Status::OK() : count.status(), "count " + table);
    rows += static_cast<double>(count->rows.At(0, 0).AsInteger());
  }
  return rows > 0 ? bytes / rows : 0;
}

uint64_t BoundaryBytes(IdaaSystem& system) {
  return system.channel().bytes_to_accelerator() +
         system.channel().bytes_from_accelerator();
}

// -- timed statements ---------------------------------------------------------

Timed TimedExecute(idaa::Connection& conn, const std::string& sql) {
  Timed out;
  uint64_t t0 = NowNs();
  auto r = conn.Execute(sql);
  out.ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.result = std::move(*r);
  out.ok = !out.result.failed_back;
  if (!out.ok) out.error = "failed back: " + out.result.detail;
  return out;
}

void FrontDoor::Record(const federation::StatementResult& r) {
  ++statements;
  queued_us += r.queued_us;
  if (r.plan_cache == "hit") ++plan_hits;
  if (r.plan_cache == "miss") ++plan_misses;
  if (r.result_cache != "bypass") ++result_lookups;
  if (r.result_cache == "hit") ++result_hits;
}

// -- traced path --------------------------------------------------------------

void TraceData::Merge(const TraceData& o) {
  log.Append(o.log);
  for (int c = 0; c < kNumClasses; ++c) {
    scans[c].selects += o.scans[c].selects;
    scans[c].rows_scanned += o.scans[c].rows_scanned;
    scans[c].rows_skipped += o.scans[c].rows_skipped;
    scans[c].encoded_eval += o.scans[c].encoded_eval;
    scans[c].decode_fallback += o.scans[c].decode_fallback;
    unit_ms[c].insert(unit_ms[c].end(), o.unit_ms[c].begin(),
                      o.unit_ms[c].end());
  }
  db2_rows_examined += o.db2_rows_examined;
  db2_rows_changed += o.db2_rows_changed;
  groom_calls += o.groom_calls;
  groom_rows_reclaimed += o.groom_rows_reclaimed;
  zones_compacted += o.zones_compacted;
  flushes += o.flushes;
  changes_applied += o.changes_applied;
  apply_misses += o.apply_misses;
  pending_csn_sum += o.pending_csn_sum;
  rows_rejected += o.rows_rejected;
}

Result<ResultSet> TracedPath::Select(const std::string& text, StmtClass cls,
                                     int parent, uint64_t id) {
  SpanLog* log = &data_->log;
  ScopedSpan parse(log, "sql.parse", parent, id, cls);
  auto parsed = sql::ParseStatement(text);
  parse.End();
  if (!parsed.ok()) return parsed.status();
  if ((*parsed)->kind() != sql::StatementKind::kSelect) {
    return Status::InvalidArgument("not a SELECT: " + text);
  }
  const auto& select = static_cast<const sql::SelectStatement&>(**parsed);
  idaa::TransactionManager& tm = system_->txn_manager();
  Transaction* txn = tm.Begin();
  auto run = [&]() -> Result<ResultSet> {
    ScopedSpan exec(log, "federation.execute", parent, id, cls);
    federation::RoutingDecision route;
    {
      ScopedSpan s(log, "federation.route", exec.index(), id, cls);
      IDAA_ASSIGN_OR_RETURN(route, system_->federation().router().RouteSelect(
                                       select, system_->acceleration_mode()));
    }
    sql::BoundSelect plan;
    {
      ScopedSpan s(log, "sql.bind", exec.index(), id, cls);
      IDAA_ASSIGN_OR_RETURN(
          plan, sql::Binder(system_->catalog()).BindSelect(select));
    }
    if (route.target != federation::Target::kAccelerator) {
      ScopedSpan s(log, "db2.select", exec.index(), id, cls);
      return system_->db2().ExecuteSelect(plan, txn);
    }
    IDAA_ASSIGN_OR_RETURN(
        idaa::accel::Accelerator * accel,
        system_->AcceleratorForTable(*plan.tables.front().info));
    {
      ScopedSpan s(log, "federation.transfer", exec.index(), id, cls);
      IDAA_RETURN_IF_ERROR(system_->channel().SendStatement(select.ToSql()));
    }
    idaa::MetricsDelta delta(system_->metrics());
    ScopedSpan s(log, "accel.select", exec.index(), id, cls);
    auto executed = accel->ExecuteSelect(plan, txn->id(), txn->snapshot_csn());
    s.End();
    ScanCounters& sc = data_->scans[static_cast<int>(cls)];
    ++sc.selects;
    sc.rows_scanned += delta.Delta(idaa::metric::kAccelRowsScanned);
    sc.rows_skipped += delta.Delta(idaa::metric::kAccelRowsSkippedZoneMap);
    sc.encoded_eval += delta.Delta(idaa::metric::kAccelRowsEncodedEval);
    sc.decode_fallback += delta.Delta(idaa::metric::kAccelRowsDecodeFallback);
    if (!executed.ok()) return executed.status();
    ScopedSpan fetch(log, "federation.transfer", exec.index(), id, cls);
    return system_->channel().FetchResultFromAccelerator(*executed);
  };
  Result<ResultSet> out = run();
  if (out.ok()) {
    (void)tm.Commit(txn);
  } else {
    (void)tm.Abort(txn);
  }
  system_->db2().lock_manager().ReleaseAll(txn->id());
  return out;
}

Result<federation::ExecResult> TracedPath::Statement(
    const std::string& text, Transaction* txn, StmtClass cls, int parent,
    uint64_t id, const char* exec_name) {
  SpanLog* log = &data_->log;
  ScopedSpan parse(log, "sql.parse", parent, id, cls);
  auto parsed = sql::ParseStatement(text);
  parse.End();
  if (!parsed.ok()) return parsed.status();
  const sql::Statement& stmt = **parsed;
  sql::Binder binder(system_->catalog());
  if (stmt.kind() == sql::StatementKind::kInsert &&
      !static_cast<const sql::InsertStatement&>(stmt).select) {
    ScopedSpan exec(log, "federation.execute", parent, id, cls);
    sql::BoundInsert bound;
    {
      ScopedSpan s(log, "sql.bind", exec.index(), id, cls);
      IDAA_ASSIGN_OR_RETURN(
          bound,
          binder.BindInsert(static_cast<const sql::InsertStatement&>(stmt)));
    }
    if (bound.table->kind == idaa::TableKind::kDb2Only ||
        bound.table->kind == idaa::TableKind::kAccelerated) {
      idaa::MetricsDelta delta(system_->metrics());
      ScopedSpan s(log, "db2.insert", exec.index(), id, cls);
      IDAA_ASSIGN_OR_RETURN(
          size_t n,
          system_->db2().InsertRows(*bound.table, bound.values_rows, txn));
      s.End();
      data_->db2_rows_examined += delta.Delta(idaa::metric::kDb2RowsScanned);
      data_->db2_rows_changed += n;
      federation::ExecResult out;
      out.affected_rows = n;
      return out;
    }
  }
  if (stmt.kind() == sql::StatementKind::kUpdate) {
    ScopedSpan exec(log, "federation.execute", parent, id, cls);
    sql::BoundUpdate bound;
    {
      ScopedSpan s(log, "sql.bind", exec.index(), id, cls);
      IDAA_ASSIGN_OR_RETURN(
          bound,
          binder.BindUpdate(static_cast<const sql::UpdateStatement&>(stmt)));
    }
    if (bound.table->kind != idaa::TableKind::kAcceleratorOnly) {
      idaa::MetricsDelta delta(system_->metrics());
      ScopedSpan s(log, "db2.update", exec.index(), id, cls);
      IDAA_ASSIGN_OR_RETURN(size_t n, system_->db2().ExecuteUpdate(bound, txn));
      s.End();
      data_->db2_rows_examined += delta.Delta(idaa::metric::kDb2RowsScanned);
      data_->db2_rows_changed += n;
      federation::ExecResult out;
      out.affected_rows = n;
      return out;
    }
  }
  ScopedSpan exec(log, exec_name, parent, id, cls);
  return system_->federation().Execute(stmt, federation::Session{}, txn);
}

Result<federation::ExecResult> TracedPath::AutoCommit(
    const std::string& text, StmtClass cls, int parent, uint64_t id,
    const char* exec_name) {
  Transaction* txn = system_->txn_manager().Begin();
  auto out = Statement(text, txn, cls, parent, id, exec_name);
  if (!out.ok()) {
    (void)system_->txn_manager().Abort(txn);
    system_->db2().lock_manager().ReleaseAll(txn->id());
    return out;
  }
  IDAA_RETURN_IF_ERROR(Commit(txn, cls, parent, id));
  return out;
}

Status TracedPath::Commit(Transaction* txn, StmtClass cls, int parent,
                          uint64_t id) {
  ScopedSpan s(&data_->log, "txn.commit", parent, id, cls);
  Status st = system_->txn_manager().Commit(txn);
  s.End();
  system_->db2().lock_manager().ReleaseAll(txn->id());
  return st;
}

// -- per-layer metrics --------------------------------------------------------

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Metrics LayerMetrics(const LayerInputs& in) {
  auto self = AggregateSelfTimes(in.trace.log.spans());
  auto class_self_ns = [&](const char* name, StmtClass cls) {
    auto it = self.find({name, cls});
    return it == self.end() ? 0.0 : it->second.self_ns;
  };
  // Mean duration of one call of `name`, over every class.
  auto mean_call_us = [&](const char* name) {
    double ns = 0, n = 0;
    for (const auto& [key, agg] : self) {
      if (key.first == name) {
        ns += agg.total_ns;
        n += static_cast<double>(agg.count);
      }
    }
    return Ratio(ns, n) / 1000;
  };

  Metrics m;
  // Per-class layer self time per unit; a call only appears for the classes
  // whose statements make it (route/transfer/select: reads; bind: reads and
  // the order-entry transaction).
  auto per_unit = [&](const char* metric, const char* span,
                      std::initializer_list<StmtClass> classes) {
    for (StmtClass cls : classes) {
      double units = static_cast<double>(
          in.trace.unit_ms[static_cast<int>(cls)].size());
      m.Set(std::string(metric) + "." + ClassName(cls),
            Ratio(class_self_ns(span, cls), units) / 1000, "us");
    }
  };
  const auto kAll = {StmtClass::kLookup, StmtClass::kScan, StmtClass::kJoin,
                     StmtClass::kReport, StmtClass::kTxn, StmtClass::kPipeline};
  const auto kReads = {StmtClass::kLookup, StmtClass::kScan, StmtClass::kJoin,
                       StmtClass::kReport};
  per_unit("sql.parse_us", "sql.parse", kAll);
  per_unit("sql.bind_us", "sql.bind",
           {StmtClass::kLookup, StmtClass::kScan, StmtClass::kJoin,
            StmtClass::kReport, StmtClass::kTxn});
  per_unit("federation.route_us", "federation.route", kReads);
  per_unit("federation.execute_us", "federation.execute", kAll);
  per_unit("federation.transfer_us", "federation.transfer", kReads);
  per_unit("accel.select_us", "accel.select", kReads);
  for (StmtClass cls : kReads) {
    const ScanCounters& sc = in.trace.scans[static_cast<int>(cls)];
    std::string c = ClassName(cls);
    m.Set("accel.rows_scanned_per_stmt." + c,
          Ratio(static_cast<double>(sc.rows_scanned),
                static_cast<double>(sc.selects)),
          "rows");
    m.Set("accel.zone_skip_ratio." + c,
          Ratio(static_cast<double>(sc.rows_skipped),
                static_cast<double>(sc.rows_skipped + sc.rows_scanned)),
          "ratio");
    m.Set("accel.encoded_eval_ratio." + c,
          Ratio(static_cast<double>(sc.encoded_eval),
                static_cast<double>(sc.encoded_eval + sc.decode_fallback)),
          "ratio");
  }
  for (StmtClass cls : kAll) {
    int c = static_cast<int>(cls);
    std::string name = ClassName(cls);
    m.Set("trace.untraced_p50_ms." + name, Median(in.untraced_unit_ms[c]),
          "ms");
    m.Set("trace.traced_p50_ms." + name, Median(in.trace.unit_ms[c]), "ms");
    auto it = self.find({"unit", cls});
    m.Set("trace.uncovered_share." + name,
          it == self.end() ? 0 : Ratio(it->second.self_ns, it->second.total_ns),
          "share");
  }

  const FrontDoor& fd = in.front_door;
  m.Set("sql.plan_cache_hit_ratio",
        Ratio(static_cast<double>(fd.plan_hits),
              static_cast<double>(fd.plan_hits + fd.plan_misses)),
        "ratio");
  m.Set("wlm.result_cache_hit_ratio",
        Ratio(static_cast<double>(fd.result_hits),
              static_cast<double>(fd.result_lookups)),
        "ratio");
  m.Set("wlm.queued_us",
        Ratio(static_cast<double>(fd.queued_us),
              static_cast<double>(fd.statements)),
        "us");
  m.Set("federation.boundary_bytes",
        Ratio(static_cast<double>(in.boundary_bytes),
              static_cast<double>(in.traced_statements)),
        "B");
  m.Set("federation.retries", static_cast<double>(in.retries), "count");
  m.Set("federation.failbacks", static_cast<double>(in.failbacks), "count");

  const TraceData& t = in.trace;
  double grooms = static_cast<double>(t.groom_calls);
  m.Set("accel.groom_us", mean_call_us("accel.groom"), "us");
  m.Set("accel.groom_rows_reclaimed",
        Ratio(static_cast<double>(t.groom_rows_reclaimed), grooms), "rows");
  m.Set("accel.zones_compacted",
        Ratio(static_cast<double>(t.zones_compacted), grooms), "count");
  m.Set("accel.stage_us", mean_call_us("accel.stage"), "us");
  m.Set("db2.update_us", mean_call_us("db2.update"), "us");
  m.Set("db2.insert_us", mean_call_us("db2.insert"), "us");
  if (t.db2_rows_changed > 0 && t.db2_rows_examined == 0) {
    Note("db2.rows_examined_per_row_changed reads 0: the DB2 engine does not "
         "maintain the db2.rows_scanned counter (see perfbench/README.md)");
  }
  m.Set("db2.rows_examined_per_row_changed",
        Ratio(static_cast<double>(t.db2_rows_examined),
              static_cast<double>(t.db2_rows_changed)),
        "rows");
  m.Set("txn.commit_us", mean_call_us("txn.commit"), "us");
  double flushes = static_cast<double>(t.flushes);
  m.Set("replication.flush_us", mean_call_us("replication.flush"), "us");
  m.Set("replication.us_per_change",
        Ratio(mean_call_us("replication.flush") * flushes,
              static_cast<double>(t.changes_applied)),
        "us");
  m.Set("replication.pending_at_flush", Ratio(t.pending_csn_sum, flushes),
        "csn");
  m.Set("replication.misses", static_cast<double>(t.apply_misses), "count");
  m.Set("loader.load_us", mean_call_us("loader.load"), "us");
  m.Set("loader.rows_rejected", static_cast<double>(t.rows_rejected), "rows");
  for (const char* op : {"analytics.NORMALIZE", "analytics.KMEANS",
                         "analytics.NAIVEBAYES"}) {
    m.Set(std::string(op) + "_us", mean_call_us(op), "us");
  }
  m.Set("analytics.bit_drift_share", in.analytics_drift_share, "share");
  return m;
}

void SaveSpans(const Options& opts, const SpanLog& log) {
  if (opts.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opts.trace_dir, ec);
  std::string path = opts.trace_dir + "/" + opts.workload + "-seed" +
                     std::to_string(opts.seed) + ".tsv";
  if (!WriteSpans(log.spans(), path)) {
    std::cerr << "could not write span log " << path << "\n";
  } else {
    Note("spans written to " + path + " (" +
         std::to_string(log.spans().size()) + " spans)");
  }
}

}  // namespace perfbench
