// Shared plumbing of the three workloads: run options, system set-up,
// timed statement execution, metric reporting and the traced (decomposed)
// statement path.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gen.h"
#include "idaa/system.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its span log
};

// -- outcome of a run ---------------------------------------------------------

/// Named metrics in insertion order, printed as the run's JSON result.
class Metrics {
 public:
  /// Append one metric (each name is set once).
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Correctness verdict: every failed check adds a message.
struct Checks {
  std::vector<std::string> failures;
  void Fail(const std::string& what) { failures.push_back(what); }
  bool ok() const { return failures.empty(); }
};

/// Print a human-readable line (prefixed "# ") on stdout.
void Note(const std::string& line);
/// Print `name = value unit` with the sample count behind it.
void NoteMetric(const std::string& name, double value, const std::string& unit,
                size_t samples);
/// The p50 of a unit-of-work sample; when the run was too short for ten
/// samples beyond the median, notes it and falls back to the plain median.
double WorkP50(const std::vector<double>& samples);

/// Print the final result line and return the process exit code.
int Finish(const Checks& checks, uint64_t attempted, uint64_t failed,
           const Metrics& metrics);

/// Median of `samples` at `pct`, noted under `<prefix>_p<pct>_ms`; the
/// percentile is lowered to what the sample supports.
void NoteLatency(const std::string& prefix, const std::vector<double>& samples,
                 int pct);

// -- set-up -------------------------------------------------------------------

/// Abort the run (no result line, exit code 2) when a set-up step fails.
void MustOk(const idaa::Status& status, const std::string& what);
void MustExec(idaa::Connection& conn, const std::string& sql);

/// Load `rows` generated rows into the existing DB2 table `table` through
/// the loader.
void LoadDb2Table(idaa::IdaaSystem& system, const std::string& table,
                  const idaa::Schema& schema, int64_t rows,
                  std::function<idaa::Row(size_t)> row);

/// Build `orders` (`orders` rows) and `customers` (`customers` rows) in DB2
/// through the loader, accelerate both and GROOM once.
void LoadAndAccelerate(idaa::IdaaSystem& system, uint64_t seed, int64_t orders,
                       int64_t customers, bool distribute_by_id);

/// Run `build` `reps` times, keeping the last system; returns the median
/// wall time in seconds.
double TimedSetup(
    int reps, const std::function<std::unique_ptr<idaa::IdaaSystem>()>& build,
    std::unique_ptr<idaa::IdaaSystem>* keep);

/// Compressed column bytes of `tables` summed over every shard, divided by
/// their live rows (counted with SELECT COUNT(*) on the accelerator).
double AccelBytesPerRow(idaa::IdaaSystem& system,
                        const std::vector<std::string>& tables);

/// DB2 <-> accelerator bytes crossed so far.
uint64_t BoundaryBytes(idaa::IdaaSystem& system);

// -- timed statements ---------------------------------------------------------

/// One statement through Connection::Execute, timed.
struct Timed {
  double ms = 0;
  bool ok = false;  ///< succeeded, on the intended engine, without failback
  std::string error;
  idaa::federation::StatementResult result;
};
Timed TimedExecute(idaa::Connection& conn, const std::string& sql);

/// Front-door counters of the untraced phase.
struct FrontDoor {
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t result_hits = 0, result_lookups = 0;
  uint64_t queued_us = 0, statements = 0;
  void Record(const idaa::federation::StatementResult& r);
};

// -- traced run ---------------------------------------------------------------

/// Counters read around accelerator SELECTs, per class.
struct ScanCounters {
  uint64_t selects = 0;
  uint64_t rows_scanned = 0, rows_skipped = 0;
  uint64_t encoded_eval = 0, decode_fallback = 0;
};

/// Everything one traced client records.
struct TraceData {
  SpanLog log;
  std::array<ScanCounters, kNumClasses> scans{};
  uint64_t db2_rows_examined = 0, db2_rows_changed = 0;
  uint64_t groom_calls = 0, groom_rows_reclaimed = 0, zones_compacted = 0;
  uint64_t flushes = 0, changes_applied = 0, apply_misses = 0;
  double pending_csn_sum = 0;
  uint64_t rows_rejected = 0;
  std::array<std::vector<double>, kNumClasses> unit_ms;  ///< root durations
  void Merge(const TraceData& other);
};

/// The statement path FederationEngine takes, called entry point by entry
/// point with one span per call. Only the statement shapes the workloads
/// generate are decomposed; other kinds go through FederationEngine::Execute
/// as one span.
class TracedPath {
 public:
  TracedPath(idaa::IdaaSystem* system, TraceData* data)
      : system_(system), data_(data) {}

  /// Auto-commit SELECT: parse, route, bind, ship, execute, fetch.
  idaa::Result<idaa::ResultSet> Select(const std::string& sql, StmtClass cls,
                                       int parent, uint64_t stmt_id);
  /// Statement inside `txn` (INSERT VALUES / UPDATE on DB2, or any other
  /// kind through FederationEngine::Execute under span `exec_name`).
  idaa::Result<idaa::federation::ExecResult> Statement(
      const std::string& sql, idaa::Transaction* txn, StmtClass cls,
      int parent, uint64_t stmt_id,
      const char* exec_name = "federation.execute");
  /// Auto-commit wrapper around Statement().
  idaa::Result<idaa::federation::ExecResult> AutoCommit(
      const std::string& sql, StmtClass cls, int parent, uint64_t stmt_id,
      const char* exec_name = "federation.execute");
  /// Commit under a txn.commit span and release the transaction's locks.
  idaa::Status Commit(idaa::Transaction* txn, StmtClass cls, int parent,
                      uint64_t stmt_id);

  idaa::IdaaSystem* system() { return system_; }
  TraceData* data() { return data_; }

 private:
  idaa::IdaaSystem* system_;
  TraceData* data_;
};

/// Per-layer metrics from a traced run (every per-layer name, 0 where the
/// workload does not exercise the layer).
struct LayerInputs {
  TraceData trace;
  std::array<std::vector<double>, kNumClasses> untraced_unit_ms;
  FrontDoor front_door;
  uint64_t traced_statements = 0;
  uint64_t boundary_bytes = 0, retries = 0, failbacks = 0;
  double analytics_drift_share = 0;  ///< elt only
};
Metrics LayerMetrics(const LayerInputs& in);

/// Write the traced run's spans under opts.trace_dir (if set).
void SaveSpans(const Options& opts, const SpanLog& log);

// -- workloads ----------------------------------------------------------------

int RunOffload(const Options& opts);
int RunHtap(const Options& opts);
int RunElt(const Options& opts);

}  // namespace perfbench
