// elt: the paper's in-accelerator pipeline, repeated as identical
// iterations by one client. Each iteration drops and recreates the stage
// AOTs, loads 200k generated rows into an AOT with the IDAA Loader, runs two
// AOT -> AOT INSERT ... SELECT stages (the first enriches from the
// accelerated DB2 `customers` table) and then NORMALIZE -> KMEANS and a
// NAIVEBAYES model. No DB2 query runs.

#include <algorithm>

#include "harness.h"
#include "oracle.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr int64_t kRawRows = 200'000;
constexpr int64_t kCustomers = 10'000;
constexpr int kSetupReps = 9;

std::unique_ptr<idaa::IdaaSystem> Build(uint64_t seed, const EltPlan& plan) {
  auto system = std::make_unique<idaa::IdaaSystem>(idaa::SystemOptions{});
  auto conn = system->NewConnection();
  MustExec(*conn, CustomersDdl());
  LoadDb2Table(*system, "customers", CustomersSchema(), kCustomers,
               [seed](size_t i) {
                 return CustomerRow(seed, static_cast<int64_t>(i));
               });
  MustExec(*conn, "CALL SYSPROC.ACCEL_ADD_TABLES('customers')");
  MustExec(*conn, "CALL SYSPROC.ACCEL_GROOM()");
  for (const std::string& sql : plan.create_sql) MustExec(*conn, sql);
  return system;
}

// Span name of each analytics operator's CALL (span names are static).
const char* AnalyticsSpan(const std::string& op) {
  if (op == "NORMALIZE") return "analytics.NORMALIZE";
  if (op == "KMEANS") return "analytics.KMEANS";
  return "analytics.NAIVEBAYES";
}

struct Iteration {
  double ms = 0;
  double load_ms = 0;
  size_t rows_loaded = 0, rows_rejected = 0;
  std::vector<size_t> stage_rows;
  /// NORMALIZE and KMEANS results (compared within float tolerance, and
  /// separately for bit identity).
  std::vector<idaa::ResultSet> transforms;
  std::string model;  ///< exact rendering of the NAIVEBAYES summary
  uint64_t attempted = 0, failed = 0, statements = 0;
  std::vector<std::string> errors;

  void AddAnalytics(const std::string& op, idaa::ResultSet rows) {
    if (op == "NAIVEBAYES") {
      model = ExactRender(rows);
    } else {
      transforms.push_back(std::move(rows));
    }
  }
  void Count(bool ok, const std::string& what, const std::string& error) {
    ++attempted;
    if (ok) {
      ++statements;
    } else {
      ++failed;
      errors.push_back(what + ": " + error);
    }
  }
  /// What every iteration of one seed must reproduce exactly: the stage row
  /// counts and the supervised model's summary.
  std::string Signature() const {
    std::string sig = "loaded=" + std::to_string(rows_loaded) +
                      " rejected=" + std::to_string(rows_rejected);
    for (size_t n : stage_rows) sig += " stage=" + std::to_string(n);
    return sig + "\n" + model;
  }
};

// Records one IdaaLoader::Load call: its duration and report.
void RecordLoad(Iteration* it,
                const idaa::Result<idaa::loader::LoadReport>& report,
                uint64_t t0) {
  it->load_ms = static_cast<double>(NowNs() - t0) / 1e6;
  it->Count(report.ok(), "load", report.ok() ? "" : report.status().ToString());
  if (report.ok()) {
    it->rows_loaded = report->rows_loaded;
    it->rows_rejected = report->rows_rejected;
  }
}

Iteration RunUntraced(idaa::IdaaSystem& system, idaa::Connection& conn,
                      const EltPlan& plan, const std::vector<idaa::Row>& rows) {
  Iteration it;
  uint64_t t0 = NowNs();
  for (const auto* list : {&plan.drop_sql, &plan.create_sql}) {
    for (const std::string& sql : *list) {
      Timed t = TimedExecute(conn, sql);
      it.Count(t.ok, sql, t.error);
    }
  }
  idaa::loader::GeneratorSource source(RawSchema(), rows.size(),
                                       [&rows](size_t i) { return rows[i]; });
  uint64_t lt0 = NowNs();
  auto report = system.loader().Load(plan.load_table, &source);
  RecordLoad(&it, report, lt0);
  for (const std::string& sql : plan.stage_sql) {
    Timed t = TimedExecute(conn, sql);
    it.Count(t.ok, sql, t.error);
    it.stage_rows.push_back(t.result.rows_affected);
  }
  for (const auto& [op, sql] : plan.analytics_sql) {
    Timed t = TimedExecute(conn, sql);
    it.Count(t.ok, sql, t.error);
    it.AddAnalytics(op, std::move(t.result.rows));
  }
  it.ms = static_cast<double>(NowNs() - t0) / 1e6;
  return it;
}

Iteration RunTraced(TracedPath& path, const EltPlan& plan,
                    const std::vector<idaa::Row>& rows, uint64_t id) {
  TraceData* data = path.data();
  const StmtClass cls = StmtClass::kPipeline;
  Iteration it;
  uint64_t t0 = NowNs();
  ScopedSpan root(&data->log, "unit", -1, id, cls);
  for (const auto* list : {&plan.drop_sql, &plan.create_sql}) {
    for (const std::string& sql : *list) {
      auto r = path.AutoCommit(sql, cls, root.index(), id);
      it.Count(r.ok(), sql, r.ok() ? "" : r.status().ToString());
    }
  }
  idaa::loader::GeneratorSource source(RawSchema(), rows.size(),
                                       [&rows](size_t i) { return rows[i]; });
  uint64_t lt0 = NowNs();
  ScopedSpan load(&data->log, "loader.load", root.index(), id, cls);
  auto report = path.system()->loader().Load(plan.load_table, &source);
  load.End();
  RecordLoad(&it, report, lt0);
  if (report.ok()) data->rows_rejected += report->rows_rejected;
  for (const std::string& sql : plan.stage_sql) {
    auto r = path.AutoCommit(sql, cls, root.index(), id, "accel.stage");
    it.Count(r.ok(), sql, r.ok() ? "" : r.status().ToString());
    it.stage_rows.push_back(r.ok() ? r->affected_rows : 0);
  }
  for (const auto& [op, sql] : plan.analytics_sql) {
    auto r = path.AutoCommit(sql, cls, root.index(), id, AnalyticsSpan(op));
    it.Count(r.ok(), sql, r.ok() ? "" : r.status().ToString());
    it.AddAnalytics(op, r.ok() ? std::move(r->result_set) : idaa::ResultSet());
  }
  root.End();
  it.ms = static_cast<double>(NowNs() - t0) / 1e6;
  data->unit_ms[static_cast<int>(cls)].push_back(it.ms);
  return it;
}

// The first line where two signatures differ, as "got | want".
std::string FirstDifference(const std::string& got, const std::string& want) {
  size_t g = 0, w = 0;
  while (g < got.size() || w < want.size()) {
    size_t ge = std::min(got.find('\n', g), got.size());
    size_t we = std::min(want.find('\n', w), want.size());
    std::string gl = got.substr(g, ge - g), wl = want.substr(w, we - w);
    if (gl != wl) return gl + " | " + wl;
    g = ge + 1;
    w = we + 1;
  }
  return "(identical)";
}

struct Totals {
  std::vector<double> pipeline_ms;
  double load_ms = 0, rows_loaded = 0;
  uint64_t attempted = 0, failed = 0, statements = 0;
  std::string signature;  ///< of the first iteration
  std::vector<idaa::ResultSet> transforms;  ///< of the first iteration
  uint64_t drifted = 0;  ///< iterations whose transforms differ in some bit

  void Add(const Iteration& it, Checks* checks) {
    pipeline_ms.push_back(it.failed == 0 ? it.ms : kFailedLatency);
    load_ms += it.load_ms;
    rows_loaded += static_cast<double>(it.rows_loaded);
    attempted += it.attempted;
    failed += it.failed;
    statements += it.statements;
    for (const std::string& e : it.errors) Note("failed: " + e);
    if (transforms.empty()) {
      transforms = it.transforms;
    } else {
      bool bit_identical = it.transforms.size() == transforms.size();
      for (size_t i = 0;
           i < it.transforms.size() && i < transforms.size(); ++i) {
        if (auto diff = CompareResults(it.transforms[i], transforms[i])) {
          checks->Fail("iteration " + std::to_string(pipeline_ms.size()) +
                       " analytics result differs from the first: " + *diff);
        }
        bit_identical = bit_identical && ExactRender(it.transforms[i]) ==
                                             ExactRender(transforms[i]);
      }
      if (!bit_identical) ++drifted;
    }
    if (signature.empty()) {
      signature = it.Signature();
    } else if (std::string sig = it.Signature(); sig != signature) {
      checks->Fail("iteration " + std::to_string(pipeline_ms.size()) +
                   " differs from the first: " +
                   FirstDifference(sig, signature));
    }
  }
};

// Share of iterations after the first whose NORMALIZE / KMEANS results are
// not bit-identical to the first iteration's.
double DriftShare(const Totals& t) {
  return t.pipeline_ms.size() > 1
             ? static_cast<double>(t.drifted) /
                   static_cast<double>(t.pipeline_ms.size() - 1)
             : 0;
}

void NoteDrift(const Totals& t) {
  if (t.drifted == 0) return;
  Note("NORMALIZE/KMEANS results differ in low-order bits from the first "
       "iteration in " + std::to_string(t.drifted) + " of " +
       std::to_string(t.pipeline_ms.size() - 1) +
       " iterations (within 1e-9 relative; see perfbench/README.md)");
}

}  // namespace

int RunElt(const Options& opts) {
  EltPlan plan = MakeEltPlan(opts.seed);
  std::unique_ptr<idaa::IdaaSystem> system;
  double setup_s = TimedSetup(opts.trace ? 1 : kSetupReps,
                              [&] { return Build(opts.seed, plan); }, &system);
  std::vector<idaa::Row> rows;
  rows.reserve(kRawRows);
  for (int64_t i = 0; i < kRawRows; ++i) {
    rows.push_back(RawRow(opts.seed, i, kCustomers));
  }

  Checks checks;
  Totals totals;
  auto conn = system->NewConnection();
  uint64_t bytes0 = BoundaryBytes(*system);
  uint64_t t0 = NowNs();
  uint64_t deadline = t0 + static_cast<uint64_t>(opts.seconds * 1e9);
  while (NowNs() < deadline) {
    totals.Add(RunUntraced(*system, *conn, plan, rows), &checks);
  }
  double elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  uint64_t bytes = BoundaryBytes(*system) - bytes0;
  double iterations = static_cast<double>(totals.pipeline_ms.size());
  if (totals.rows_loaded != iterations * kRawRows) {
    checks.Fail("loader did not load every generated row");
  }

  NoteDrift(totals);
  if (!opts.trace) {
    NoteLatency("pipeline", totals.pipeline_ms, 50);
    NoteMetric("load_rows_per_s", totals.rows_loaded / (totals.load_ms / 1e3),
               "rows/s", totals.pipeline_ms.size());
    Metrics m;
    m.Set("setup_s", setup_s, "s");
    m.Set("stmt_per_s", static_cast<double>(totals.statements) / elapsed_s,
          "1/s");
    m.Set("work_p50_ms",
          WorkP50(totals.pipeline_ms), "ms");
    m.Set("boundary_bytes_per_op", static_cast<double>(bytes) / iterations,
          "B");
    m.Set("accel_bytes_per_row",
          AccelBytesPerRow(*system,
                           {"elt_raw", "elt_enriched", "elt_features"}),
          "B");
    return Finish(checks, totals.attempted, totals.failed, m);
  }

  // Traced phase: the same iterations through the decomposed path; they
  // must reproduce the untraced iterations exactly (traced-run fidelity).
  LayerInputs in;
  in.untraced_unit_ms[static_cast<int>(StmtClass::kPipeline)] =
      totals.pipeline_ms;
  TracedPath path(system.get(), &in.trace);
  idaa::MetricsDelta delta(system->metrics());
  uint64_t tbytes0 = BoundaryBytes(*system);
  uint64_t tdeadline = NowNs() + static_cast<uint64_t>(opts.seconds * 1e9);
  Totals traced;
  traced.signature = totals.signature;
  traced.transforms = totals.transforms;
  for (uint64_t id = 0; NowNs() < tdeadline; ++id) {
    traced.Add(RunTraced(path, plan, rows, id), &checks);
  }
  in.boundary_bytes = BoundaryBytes(*system) - tbytes0;
  in.traced_statements = traced.statements;
  in.retries = delta.Delta(idaa::metric::kFederationRetries);
  in.failbacks = delta.Delta(idaa::metric::kFederationFailbacks);
  in.analytics_drift_share = DriftShare(totals);
  NoteDrift(traced);
  SaveSpans(opts, in.trace.log);
  return Finish(checks, totals.attempted + traced.attempted,
                totals.failed + traced.failed, LayerMetrics(in));
}

}  // namespace perfbench
