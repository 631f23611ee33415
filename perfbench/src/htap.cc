// htap: DB2 order entry, replication and accelerator analytics at once, on a
// 200k-row `orders` table DISTRIBUTE BY (id) over a 4-shard accelerator with
// one worker thread per shard. Three client threads: an order-entry writer,
// a dashboard reader (scan, join, report) and a maintenance thread that
// flushes replication every kFlushCommits commits and grooms every
// kGroomFlushes flushes (automatic apply is off, so the benchmark owns the
// apply cadence like IDAA's asynchronous incremental update).

#include <algorithm>
#include <thread>

#include "oracle.h"
#include "reads.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr int64_t kOrders = 200'000;
constexpr int64_t kCustomers = 10'000;
constexpr size_t kShards = 4;
constexpr uint64_t kFlushCommits = 16;  // K
constexpr uint64_t kGroomFlushes = 4;   // M
constexpr int kSetupReps = 3;
constexpr size_t kFidelitySamplesPerClass = 2;

const std::vector<StmtClass> kRound = {StmtClass::kScan, StmtClass::kJoin,
                                       StmtClass::kReport};
const std::string kBegin = "BEGIN";
const std::string kCommit = "COMMIT";

std::unique_ptr<idaa::IdaaSystem> Build(uint64_t seed) {
  idaa::SystemOptions options;
  options.accelerator_shards = kShards;
  options.accelerator.num_threads = 1;
  options.replication_batch_size = 0;
  auto system = std::make_unique<idaa::IdaaSystem>(options);
  LoadAndAccelerate(*system, seed, kOrders, kCustomers,
                    /*distribute_by_id=*/true);
  return system;
}

struct CommitMark {
  uint64_t begin_ns = 0;
  uint64_t commit_ns = 0;  ///< COMMIT returned
  idaa::Csn csn = 0;
};

struct FlushMark {
  uint64_t end_ns = 0;  ///< Flush returned
  idaa::Csn applied = 0;
};

struct Shared {
  std::atomic<uint64_t> commits{0};
  std::atomic<bool> stop{false};
};

struct WriterOutcome {
  std::vector<CommitMark> commits;
  std::vector<double> txn_ms;  ///< BEGIN .. COMMIT returned, failed = inf
  uint64_t attempted = 0, failed = 0, statements = 0;
  std::vector<std::string> errors;
};

struct MaintOutcome {
  std::vector<FlushMark> flushes;
  uint64_t grooms = 0, attempted = 0, failed = 0, misses = 0;
  std::vector<std::string> errors;
};

void WriterUntraced(idaa::IdaaSystem& system, uint64_t seed, Shared& shared,
                    WriterOutcome* out) {
  auto conn = system.NewConnection();
  OrderEntryStream stream(StreamSeed(seed, kWriterStream), kOrders, kCustomers);
  while (!shared.stop.load()) {
    OrderTxn txn = stream.Next();
    uint64_t begin = NowNs();
    bool ok = true;
    idaa::TxnId id = 0;
    for (const std::string* sql : std::initializer_list<const std::string*>{
             &kBegin, &txn.insert_sql, &txn.update_sql, &kCommit}) {
      if (!ok) break;
      if (sql == &kCommit) id = conn->current_transaction()->id();
      Timed t = TimedExecute(*conn, *sql);
      ++out->attempted;
      if (t.ok) {
        ++out->statements;
      } else {
        ok = false;
        ++out->failed;
        if (out->errors.size() < 5) {
          out->errors.push_back(*sql + ": " + t.error);
        }
      }
    }
    if (!ok) {
      if (conn->InTransaction()) (void)conn->Rollback();
      out->txn_ms.push_back(kFailedLatency);
      continue;
    }
    uint64_t end = NowNs();
    out->txn_ms.push_back(static_cast<double>(end - begin) / 1e6);
    out->commits.push_back({begin, end, system.txn_manager().CommitCsnOf(id)});
    shared.commits.fetch_add(1);
  }
}

void WriterTraced(TracedPath& path, uint64_t seed, Shared& shared,
                  WriterOutcome* out) {
  idaa::IdaaSystem& system = *path.system();
  TraceData* data = path.data();
  OrderEntryStream stream(StreamSeed(seed, kWriterStream), kOrders, kCustomers);
  uint64_t id = 1ULL << 40;
  for (; !shared.stop.load(); ++id) {
    OrderTxn txn_sql = stream.Next();
    uint64_t begin = NowNs();
    ScopedSpan root(&data->log, "unit", -1, id, StmtClass::kTxn);
    idaa::Transaction* txn = system.txn_manager().Begin();
    const StmtClass cls = StmtClass::kTxn;
    auto r = path.Statement(txn_sql.insert_sql, txn, cls, root.index(), id);
    if (r.ok()) {
      r = path.Statement(txn_sql.update_sql, txn, cls, root.index(), id);
    }
    idaa::Status st =
        r.ok() ? path.Commit(txn, cls, root.index(), id) : r.status();
    root.End();
    out->attempted += 4;  // BEGIN, INSERT, UPDATE, COMMIT
    if (!r.ok()) {
      (void)system.txn_manager().Abort(txn);
      system.db2().lock_manager().ReleaseAll(txn->id());
    }
    if (!st.ok()) {
      ++out->failed;
      if (out->errors.size() < 5) out->errors.push_back(st.ToString());
      continue;
    }
    out->statements += 4;
    double ms = static_cast<double>(NowNs() - begin) / 1e6;
    out->txn_ms.push_back(ms);
    data->unit_ms[static_cast<int>(StmtClass::kTxn)].push_back(ms);
    shared.commits.fetch_add(1);
  }
}

// Root span of a maintenance call in the traced phase; -1 when untraced.
int OpenSpan(TraceData* trace, const char* name, uint64_t id) {
  return trace != nullptr ? trace->log.Open(name, -1, id, StmtClass::kTxn)
                          : -1;
}

void Maintain(idaa::IdaaSystem& system, Shared& shared, TraceData* trace,
              MaintOutcome* out) {
  idaa::replication::ReplicationService& repl = system.replication();
  uint64_t covered = 0;
  uint64_t id = 1ULL << 50;
  while (!shared.stop.load()) {
    uint64_t commits = shared.commits.load();
    if (commits - covered < kFlushCommits) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    covered = commits;
    double pending = static_cast<double>(repl.HighestCapturedCsn() -
                                         repl.HighestAppliedCsn());
    int span = OpenSpan(trace, "replication.flush", id);
    auto stats = repl.Flush();
    if (span >= 0) trace->log.Close(span);
    ++out->attempted;
    if (!stats.ok()) {
      ++out->failed;
      if (out->errors.size() < 5) {
        out->errors.push_back(stats.status().ToString());
      }
      continue;
    }
    out->flushes.push_back({NowNs(), repl.HighestAppliedCsn()});
    out->misses += stats->misses;
    if (trace != nullptr) {
      ++trace->flushes;
      trace->changes_applied += stats->changes_applied;
      trace->apply_misses += stats->misses;
      trace->pending_csn_sum += pending;
    }
    if (out->flushes.size() % kGroomFlushes == 0) {
      span = OpenSpan(trace, "accel.groom", id);
      idaa::accel::GroomStats gs = system.accelerator(0).GroomAll();
      if (span >= 0) trace->log.Close(span);
      ++out->grooms;
      if (trace != nullptr) {
        ++trace->groom_calls;
        trace->groom_rows_reclaimed += gs.rows_reclaimed;
        trace->zones_compacted += gs.zones_compacted;
      }
    }
    ++id;
  }
}

// Accelerator copy of `orders` equals DB2's after a final flush.
void CheckConverged(idaa::IdaaSystem& system, MaintOutcome* maint,
                    Checks* checks) {
  auto flushed = system.replication().Flush();
  if (!flushed.ok()) {
    checks->Fail("final flush failed: " + flushed.status().ToString());
    return;
  }
  maint->misses += flushed->misses;
  if (maint->misses != 0) {
    checks->Fail("replication apply misses: " + std::to_string(maint->misses));
  }
  auto info = system.catalog().GetTable("orders");
  MustOk(info.ok() ? idaa::Status::OK() : info.status(), "catalog orders");
  auto accel = system.AcceleratorForTable(**info);
  MustOk(accel.ok() ? idaa::Status::OK() : accel.status(), "placement orders");
  idaa::Transaction* txn = system.txn_manager().Begin();
  auto db2_rows = system.db2().TableSnapshot(**info, txn);
  auto accel_rows =
      (*accel)->SnapshotRows((*info)->name, txn->id(), txn->snapshot_csn());
  (void)system.txn_manager().Commit(txn);
  system.db2().lock_manager().ReleaseAll(txn->id());
  if (!db2_rows.ok() || !accel_rows.ok()) {
    checks->Fail("table snapshot failed");
    return;
  }
  if (auto diff = CompareRows(std::move(*accel_rows), std::move(*db2_rows))) {
    checks->Fail("accelerator orders differ from DB2 after flush: " + *diff);
  }
}

void NoteErrors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) Note("failed: " + e);
}

struct Phase {
  WriterOutcome writer;
  ReadOutcome reader;
  MaintOutcome maint;
  TraceData writer_trace, reader_trace, maint_trace;
  double elapsed_s = 0;
  uint64_t bytes = 0;

  uint64_t Attempted() const {
    return writer.attempted + reader.attempted + maint.attempted;
  }
  /// Failed statements and flushes, plus replication apply misses.
  uint64_t Failed() const {
    return writer.failed + reader.failed + maint.failed + maint.misses;
  }
};

// Runs the three threads for opts.seconds; `traced` switches every client to
// the decomposed path.
void RunPhase(idaa::IdaaSystem& system, const Options& opts, bool traced,
              Phase* p) {
  Shared shared;
  ReadStream stream(StreamSeed(opts.seed, kReaderStream), kOrders, kCustomers,
                    kRound);
  Sampler sampler(StreamSeed(opts.seed, kSampleStream),
                  traced ? kFidelitySamplesPerClass : 0);
  TracedPath writer_path(&system, &p->writer_trace);
  TracedPath reader_path(&system, &p->reader_trace);
  uint64_t bytes0 = BoundaryBytes(system);
  uint64_t t0 = NowNs();
  std::thread writer([&] {
    if (traced) {
      WriterTraced(writer_path, opts.seed, shared, &p->writer);
    } else {
      WriterUntraced(system, opts.seed, shared, &p->writer);
    }
  });
  std::thread reader([&] {
    if (traced) {
      ReadLoopTraced(reader_path, stream, sampler, 0, shared.stop, &p->reader);
    } else {
      auto conn = system.NewConnection();
      ReadLoopUntraced(*conn, stream, sampler, 0, shared.stop, &p->reader);
    }
  });
  std::thread maint([&] {
    Maintain(system, shared, traced ? &p->maint_trace : nullptr, &p->maint);
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(opts.seconds));
  shared.stop.store(true);
  writer.join();
  reader.join();
  maint.join();
  p->elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  p->bytes = BoundaryBytes(system) - bytes0;
  NoteErrors(p->writer.errors);
  NoteErrors(p->reader.errors);
  NoteErrors(p->maint.errors);
}

}  // namespace

int RunHtap(const Options& opts) {
  std::unique_ptr<idaa::IdaaSystem> system;
  double setup_s = TimedSetup(opts.trace ? 1 : kSetupReps,
                              [&] { return Build(opts.seed); }, &system);
  Checks checks;
  Phase phase;
  RunPhase(*system, opts, /*traced=*/false, &phase);

  // Freshness: a commit is fresh when the first Flush whose applied CSN
  // covers it returns.
  std::vector<double> fresh_ms, work_ms;
  for (const CommitMark& c : phase.writer.commits) {
    const auto& flushes = phase.maint.flushes;
    auto covers = [&](const FlushMark& f) { return f.applied >= c.csn; };
    auto it = std::find_if(flushes.begin(), flushes.end(), covers);
    if (it == flushes.end()) continue;  // applied after the run
    // A commit can return after the flush that applied it: fresh is 0 then.
    uint64_t fresh_ns = it->end_ns > c.commit_ns ? it->end_ns - c.commit_ns : 0;
    fresh_ms.push_back(static_cast<double>(fresh_ns) / 1e6);
    work_ms.push_back(static_cast<double>(it->end_ns - c.begin_ns) / 1e6);
  }
  for (double ms : phase.writer.txn_ms) {
    if (ms == kFailedLatency) {
      fresh_ms.push_back(kFailedLatency);
      work_ms.push_back(kFailedLatency);
    }
  }
  CheckConverged(*system, &phase.maint, &checks);

  uint64_t attempted = phase.Attempted();
  uint64_t failed = phase.Failed();
  uint64_t statements = phase.writer.statements + phase.reader.statements;

  if (!opts.trace) {
    std::vector<double> reads;
    for (StmtClass cls : kRound) {
      const auto& ms = phase.reader.class_ms[static_cast<int>(cls)];
      reads.insert(reads.end(), ms.begin(), ms.end());
      NoteLatency(ClassName(cls), ms, 50);
    }
    NoteLatency("read", reads, 99);
    NoteLatency("txn", phase.writer.txn_ms, 50);
    NoteLatency("txn", phase.writer.txn_ms, 90);
    NoteLatency("fresh", fresh_ms, 50);
    NoteLatency("fresh", fresh_ms, 90);
    size_t flushes = phase.maint.flushes.size();
    NoteMetric("flushes", static_cast<double>(flushes), "count", flushes);
    NoteMetric("grooms", static_cast<double>(phase.maint.grooms), "count",
               phase.maint.grooms);
    Metrics m;
    m.Set("setup_s", setup_s, "s");
    m.Set("stmt_per_s", static_cast<double>(statements) / phase.elapsed_s,
          "1/s");
    m.Set("work_p50_ms", WorkP50(work_ms), "ms");
    m.Set("boundary_bytes_per_op",
          static_cast<double>(phase.bytes) /
              static_cast<double>(std::max<uint64_t>(statements, 1)),
          "B");
    m.Set("accel_bytes_per_row",
          AccelBytesPerRow(*system, {"orders", "customers"}), "B");
    return Finish(checks, attempted, failed, m);
  }

  // Traced phase on a fresh system built from the same seed.
  LayerInputs in;
  in.untraced_unit_ms = phase.reader.class_ms;
  in.untraced_unit_ms[static_cast<int>(StmtClass::kTxn)] = phase.writer.txn_ms;
  in.front_door = phase.reader.front_door;
  system.reset();
  system = Build(opts.seed);
  Phase traced;
  idaa::MetricsDelta delta(system->metrics());
  RunPhase(*system, opts, /*traced=*/true, &traced);
  in.trace.Merge(traced.writer_trace);
  in.trace.Merge(traced.reader_trace);
  in.trace.Merge(traced.maint_trace);
  in.boundary_bytes = traced.bytes;
  in.traced_statements = traced.writer.statements + traced.reader.statements;
  in.retries = delta.Delta(idaa::metric::kFederationRetries);
  in.failbacks = delta.Delta(idaa::metric::kFederationFailbacks);
  CheckConverged(*system, &traced.maint, &checks);
  CheckTracedFidelity(*system, traced.reader.samples, &checks);
  SaveSpans(opts, in.trace.log);
  attempted += traced.Attempted();
  failed += traced.Failed();
  return Finish(checks, attempted, failed, LayerMetrics(in));
}

}  // namespace perfbench
