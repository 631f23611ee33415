// E3 — IDAA Loader ingestion: loading external data directly into an
// accelerator-only table vs. the legacy route (DB2 insert + incremental
// re-replication to the accelerator). Sweeps row count and batch size,
// then sweeps the pipelined loader's worker count over a pre-rendered
// CSV feed to isolate the parse/convert parallelism win.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/csv.h"
#include "loader/record_source.h"

namespace idaa::bench {
namespace {

Schema FeedSchema() {
  return Schema({{"ID", DataType::kInteger, false},
                 {"USERNAME", DataType::kVarchar, true},
                 {"SENTIMENT", DataType::kDouble, true}});
}

loader::GeneratorSource MakeFeed(size_t rows, Rng* rng) {
  return loader::GeneratorSource(FeedSchema(), rows, [rng](size_t i) {
    return Row{Value::Integer(static_cast<int64_t>(i)),
               Value::Varchar("user_" + std::to_string(rng->Uniform(1, 999))),
               Value::Double(rng->UniformDouble(-1, 1))};
  });
}

struct IngestStats {
  double millis = 0;
  uint64_t boundary_bytes = 0;
  uint64_t db2_rows = 0;
};

/// direct=true: AOT target (loader -> accelerator).
/// direct=false: accelerated DB2 table (loader -> DB2 -> replication).
IngestStats RunIngest(size_t rows, size_t batch_size, bool direct) {
  IdaaSystem system;
  if (direct) {
    Must(system, "CREATE TABLE feed (id INT NOT NULL, username VARCHAR, "
                 "sentiment DOUBLE) IN ACCELERATOR");
  } else {
    Must(system, "CREATE TABLE feed (id INT NOT NULL, username VARCHAR, "
                 "sentiment DOUBLE)");
    Must(system, "CALL SYSPROC.ACCEL_ADD_TABLES('feed')");
  }
  Rng rng(5);
  auto feed = MakeFeed(rows, &rng);
  loader::LoadOptions options;
  options.batch_size = batch_size;

  MetricsDelta delta(system.metrics());
  WallTimer timer;
  auto report = system.loader().Load("feed", &feed, options);
  if (!report.ok()) std::exit(1);
  if (!direct) {
    // The replica only converges once incremental update ran.
    auto flushed = system.replication().Flush();
    if (!flushed.ok()) std::exit(1);
  }
  IngestStats stats;
  stats.millis = timer.Millis();
  stats.boundary_bytes = delta.Delta(metric::kFederationBytesToAccel) +
                         delta.Delta(metric::kFederationBytesFromAccel);
  stats.db2_rows = delta.Delta(metric::kDb2RowsMaterialized);
  return stats;
}

/// Pre-rendered CSV body for the parallel sweep: quoted usernames with an
/// embedded delimiter every few rows so the parse stage does real
/// quote-handling work, occasional NULL sentiment.
std::string RenderFeedCsv(size_t rows) {
  Rng rng(7);
  std::string body;
  body.reserve(rows * 32);
  for (size_t i = 0; i < rows; ++i) {
    Row row{Value::Integer(static_cast<int64_t>(i)),
            i % 5 == 0
                ? Value::Varchar("user, " + std::to_string(rng.Uniform(1, 999)))
                : Value::Varchar("user_" + std::to_string(rng.Uniform(1, 999))),
            i % 11 == 0 ? Value::Null()
                        : Value::Double(rng.UniformDouble(-1, 1))};
    body += FormatCsvRow(row);
    body += '\n';
  }
  return body;
}

/// Times one CSV load of `body` into a fresh AOT (direct) or accelerated
/// DB2 table (via replication) with `num_workers` parse workers.
double RunCsvIngest(const std::string& body, size_t batch_size,
                    size_t num_workers, bool direct) {
  IdaaSystem system;
  if (direct) {
    Must(system, "CREATE TABLE feed (id INT NOT NULL, username VARCHAR, "
                 "sentiment DOUBLE) IN ACCELERATOR");
  } else {
    Must(system, "CREATE TABLE feed (id INT NOT NULL, username VARCHAR, "
                 "sentiment DOUBLE)");
    Must(system, "CALL SYSPROC.ACCEL_ADD_TABLES('feed')");
  }
  loader::CsvStringSource source(body, FeedSchema());
  loader::LoadOptions options;
  options.batch_size = batch_size;
  options.num_workers = num_workers;

  WallTimer timer;
  auto report = system.loader().Load("feed", &source, options);
  if (!report.ok()) std::exit(1);
  if (!direct) {
    auto flushed = system.replication().Flush();
    if (!flushed.ok()) std::exit(1);
  }
  return timer.Millis();
}

void PrintParallelTable(BenchJson* json) {
  PrintHeader("E3b: pipelined CSV ingestion (parse/convert parallelism)",
              "Claim: splitting the load into reader -> N parse workers -> "
              "ordered commit\nscales CSV ingestion with cores while keeping "
              "the loaded state bit-identical.");
  std::printf("%8s %8s | %10s | %10s %8s\n", "rows", "workers", "direct ms",
              "rows/s", "speedup");
  for (size_t rows : {10000u, 50000u}) {
    const std::string body = RenderFeedCsv(rows);
    double one_worker_ms = 0;
    double best_parallel_ms = 0;
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      // Best of three runs — fresh system each, so allocator noise and
      // first-touch costs don't masquerade as pipeline overhead.
      double ms = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        double m = RunCsvIngest(body, 2048, workers, /*direct=*/true);
        if (m < ms) ms = m;
      }
      if (workers == 1) one_worker_ms = ms;
      if (workers == 4) best_parallel_ms = ms;
      std::printf("%8zu %8zu | %10.1f | %10.0f | %7.2fx\n", rows, workers, ms,
                  rows / (ms / 1000.0), one_worker_ms / ms);
    }
    if (json != nullptr) {
      double via_db2_ms = RunCsvIngest(body, 2048, 4, /*direct=*/false);
      // db2_ms = legacy via-DB2 route, accel_ms = 4-worker direct load,
      // one_worker_ms = the pipeline at one worker — so speedup_vs_db2 is
      // the paper's E3 claim and pipeline_speedup is the
      // pipeline-parallelism win.
      json->Add("csv_load_" + std::to_string(rows), rows, via_db2_ms,
                best_parallel_ms,
                {{"one_worker_ms", one_worker_ms},
                 {"pipeline_speedup", one_worker_ms / best_parallel_ms}});
    }
  }
}

void PrintTable() {
  PrintHeader("E3: external data ingestion (IDAA Loader)",
              "Claim: loading external feeds directly into AOTs avoids the "
              "DB2 write\npath and the re-replication pass entirely.");
  std::printf("%8s %7s | %12s %10s | %12s %10s | %9s\n", "rows", "batch",
              "via-db2 ms", "db2 rows", "direct ms", "db2 rows", "speedup");
  for (size_t rows : {10000u, 50000u}) {
    for (size_t batch : {256u, 2048u, 8192u}) {
      IngestStats via_db2 = RunIngest(rows, batch, /*direct=*/false);
      IngestStats direct = RunIngest(rows, batch, /*direct=*/true);
      std::printf("%8zu %7zu | %12.1f %10llu | %12.1f %10llu | %8.2fx\n",
                  rows, batch, via_db2.millis,
                  (unsigned long long)via_db2.db2_rows, direct.millis,
                  (unsigned long long)direct.db2_rows,
                  via_db2.millis / direct.millis);
    }
  }
}

void BM_LoaderDirect(benchmark::State& state) {
  for (auto _ : state) {
    IngestStats stats = RunIngest(static_cast<size_t>(state.range(0)),
                                  2048, /*direct=*/true);
    state.counters["db2_rows"] = static_cast<double>(stats.db2_rows);
  }
}

void BM_LoaderViaDb2(benchmark::State& state) {
  for (auto _ : state) {
    IngestStats stats = RunIngest(static_cast<size_t>(state.range(0)),
                                  2048, /*direct=*/false);
    state.counters["db2_rows"] = static_cast<double>(stats.db2_rows);
  }
}

BENCHMARK(BM_LoaderDirect)->Arg(20000)->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_LoaderViaDb2)->Arg(20000)->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace idaa::bench

int main(int argc, char** argv) {
  idaa::bench::PrintTable();
  idaa::bench::BenchJson json("loader_ingest");
  idaa::bench::PrintParallelTable(&json);
  json.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
