// offload: read-only analytics on an accelerated 1M-row `orders` table and a
// 10k-row `customers` table, one accelerator, one shard, default 4 workers.
// One client issues dashboard rounds (lookup, scan, join, report). DB2, txn,
// replication and the loader are idle after set-up.

#include "reads.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr int64_t kOrders = 1'000'000;
constexpr int64_t kCustomers = 10'000;
constexpr int kSetupReps = 3;
constexpr size_t kOracleSamplesPerClass = 2;

const std::vector<StmtClass> kRound = {StmtClass::kLookup, StmtClass::kScan,
                                       StmtClass::kJoin, StmtClass::kReport};

std::unique_ptr<idaa::IdaaSystem> Build(uint64_t seed) {
  auto system = std::make_unique<idaa::IdaaSystem>(idaa::SystemOptions{});
  LoadAndAccelerate(*system, seed, kOrders, kCustomers,
                    /*distribute_by_id=*/false);
  return system;
}

uint64_t Deadline(const Options& opts) {
  return NowNs() + static_cast<uint64_t>(opts.seconds * 1e9);
}

void NoteErrors(const ReadOutcome& out) {
  for (const std::string& e : out.errors) Note("failed: " + e);
}

}  // namespace

int RunOffload(const Options& opts) {
  std::unique_ptr<idaa::IdaaSystem> system;
  double setup_s = TimedSetup(opts.trace ? 1 : kSetupReps,
                              [&] { return Build(opts.seed); }, &system);
  Checks checks;
  std::atomic<bool> never{false};

  // Untraced phase: the end-to-end numbers.
  auto conn = system->NewConnection();
  ReadStream stream(StreamSeed(opts.seed, kReaderStream), kOrders, kCustomers,
                    kRound);
  Sampler sampler(StreamSeed(opts.seed, kSampleStream), kOracleSamplesPerClass);
  ReadOutcome out;
  uint64_t bytes0 = BoundaryBytes(*system);
  uint64_t t0 = NowNs();
  ReadLoopUntraced(*conn, stream, sampler, Deadline(opts), never, &out);
  double elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  uint64_t bytes = BoundaryBytes(*system) - bytes0;
  NoteErrors(out);

  CheckAgainstDb2(*system, out.samples, &checks);

  if (!opts.trace) {
    double accel_bytes = AccelBytesPerRow(*system, {"orders", "customers"});
    std::vector<double> reads;
    for (StmtClass cls : kRound) {
      const auto& ms = out.class_ms[static_cast<int>(cls)];
      reads.insert(reads.end(), ms.begin(), ms.end());
      NoteLatency(ClassName(cls), ms, 50);
    }
    NoteLatency("read", reads, 99);
    Metrics m;
    m.Set("setup_s", setup_s, "s");
    m.Set("stmt_per_s", static_cast<double>(out.statements) / elapsed_s, "1/s");
    m.Set("work_p50_ms", WorkP50(out.round_ms),
          "ms");
    m.Set("boundary_bytes_per_op",
          static_cast<double>(bytes) /
              static_cast<double>(std::max<uint64_t>(out.statements, 1)),
          "B");
    m.Set("accel_bytes_per_row", accel_bytes, "B");
    NoteMetric("rounds", static_cast<double>(out.round_ms.size()), "count",
               out.round_ms.size());
    return Finish(checks, out.attempted, out.failed, m);
  }

  // Traced phase: same seed, same length, the decomposed call chain.
  LayerInputs in;
  in.untraced_unit_ms = out.class_ms;
  in.front_door = out.front_door;
  ReadStream traced_stream(StreamSeed(opts.seed, kReaderStream), kOrders,
                           kCustomers, kRound);
  Sampler traced_sampler(StreamSeed(opts.seed, kSampleStream),
                         kOracleSamplesPerClass);
  TracedPath path(system.get(), &in.trace);
  ReadOutcome traced;
  idaa::MetricsDelta delta(system->metrics());
  uint64_t tbytes0 = BoundaryBytes(*system);
  ReadLoopTraced(path, traced_stream, traced_sampler, Deadline(opts), never,
                 &traced);
  in.boundary_bytes = BoundaryBytes(*system) - tbytes0;
  in.traced_statements = traced.statements;
  in.retries = delta.Delta(idaa::metric::kFederationRetries);
  in.failbacks = delta.Delta(idaa::metric::kFederationFailbacks);
  NoteErrors(traced);
  CheckTracedFidelity(*system, traced.samples, &checks);
  SaveSpans(opts, in.trace.log);
  return Finish(checks, out.attempted + traced.attempted,
                out.failed + traced.failed, LayerMetrics(in));
}

}  // namespace perfbench
