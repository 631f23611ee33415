// E1 — Multi-stage ELT: accelerator-only tables vs. the legacy
// materialize-in-DB2-and-recopy flow (the paper's core claim: "minimize
// data movement while still exploiting the accelerator").
//
// Sweep: number of pipeline stages k, base table size. For each variant we
// report wall time, bytes crossing the DB2<->accelerator boundary, and rows
// materialized in DB2. At 50k rows the entry also carries the throughput of
// one AOT INSERT ... SELECT stage over the whole base table (the columnar
// scan-to-append path). Writes BENCH_elt_pipeline.json.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace idaa::bench {
namespace {

/// One transformation stage: filter+project from the previous stage table.
/// Legacy lands the result in DB2 and re-copies it to the accelerator;
/// AOT keeps it on the accelerator.
struct PipelineStats {
  double millis = 0;
  uint64_t boundary_bytes = 0;
  uint64_t db2_rows = 0;
};

PipelineStats RunPipeline(size_t rows, int stages, bool use_aot) {
  IdaaSystem system;
  SeedOrders(system, rows, /*accelerate=*/true);
  MetricsDelta delta(system.metrics());
  WallTimer timer;

  std::string prev = "orders";
  for (int s = 0; s < stages; ++s) {
    std::string table = "stage" + std::to_string(s);
    std::string filter =
        s == 0 ? StrFormat("SELECT cust, SUM(amount) FROM %s GROUP BY cust",
                           prev.c_str())
               : StrFormat("SELECT cust, spend * 1.01 FROM %s "
                           "WHERE spend > %d",
                           prev.c_str(), 5 * s);
    if (use_aot) {
      Must(system, StrFormat("CREATE TABLE %s (cust INT, spend DOUBLE) "
                             "IN ACCELERATOR",
                             table.c_str()));
      Must(system, "INSERT INTO " + table + " " + filter);
    } else {
      Must(system, StrFormat("CREATE TABLE %s (cust INT, spend DOUBLE)",
                             table.c_str()));
      Must(system, "INSERT INTO " + table + " " + filter);
      Must(system, "CALL SYSPROC.ACCEL_ADD_TABLES('" + table + "')");
    }
    prev = table;
  }
  // Final consumption query (always offloaded).
  Must(system, "SELECT COUNT(*), SUM(spend) FROM " + prev);

  PipelineStats stats;
  stats.millis = timer.Millis();
  stats.boundary_bytes = delta.Delta(metric::kFederationBytesToAccel) +
                         delta.Delta(metric::kFederationBytesFromAccel);
  stats.db2_rows = delta.Delta(metric::kDb2RowsMaterialized);
  return stats;
}

/// Rows per second appended by one accelerator-side AOT INSERT ... SELECT
/// that filters and projects the whole `rows`-row base table (best of
/// three).
double AotStageRowsPerSec(size_t rows) {
  IdaaSystem system;
  SeedOrders(system, rows, /*accelerate=*/true);
  double best_ms = 0;
  size_t appended = 0;
  for (int rep = 0; rep < 3; ++rep) {
    (void)system.Execute("DROP TABLE wide");
    Must(system,
         "CREATE TABLE wide (id INT, cust INT, revenue DOUBLE, "
         "region VARCHAR) IN ACCELERATOR");
    WallTimer timer;
    auto r = system.Execute(
        "INSERT INTO wide SELECT id, cust, amount * qty, region FROM orders "
        "WHERE qty > 2");
    const double ms = timer.Millis();
    if (!r.ok()) {
      std::cerr << "bench stage failed: " << r.status() << "\n";
      std::exit(1);
    }
    appended = r->rows_affected;
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms > 0 ? static_cast<double>(appended) / (best_ms / 1000.0)
                     : 0.0;
}

void PrintTable() {
  BenchJson json("elt_pipeline");
  const double stage_rate = AotStageRowsPerSec(50000);
  PrintHeader("E1: multi-stage ELT pipeline (legacy vs AOT)",
              "Claim: AOTs eliminate per-stage DB2 materialization and "
              "re-replication;\ndata movement should stay flat with stage "
              "count instead of growing.");
  std::printf("%6s %7s | %12s %16s %10s | %12s %16s %10s | %9s\n", "rows",
              "stages", "legacy ms", "legacy bytes", "db2 rows", "aot ms",
              "aot bytes", "db2 rows", "byte red.");
  for (size_t rows : {10000u, 50000u}) {
    for (int stages : {1, 2, 4, 8}) {
      PipelineStats legacy = RunPipeline(rows, stages, /*use_aot=*/false);
      PipelineStats aot = RunPipeline(rows, stages, /*use_aot=*/true);
      std::printf(
          "%6zu %7d | %12.1f %16llu %10llu | %12.1f %16llu %10llu | %8.1fx\n",
          rows, stages, legacy.millis,
          (unsigned long long)legacy.boundary_bytes,
          (unsigned long long)legacy.db2_rows, aot.millis,
          (unsigned long long)aot.boundary_bytes,
          (unsigned long long)aot.db2_rows,
          legacy.boundary_bytes / std::max<double>(1.0, aot.boundary_bytes));
      BenchJson::Extra extra = {
          {"stages", stages},
          {"legacy_boundary_bytes", static_cast<double>(legacy.boundary_bytes)},
          {"aot_boundary_bytes", static_cast<double>(aot.boundary_bytes)},
          {"legacy_db2_rows", static_cast<double>(legacy.db2_rows)},
          {"aot_db2_rows", static_cast<double>(aot.db2_rows)}};
      // The single-stage measurement rides on one entry.
      if (rows == 50000 && stages == 1) {
        extra.push_back({"aot_stage_rows_per_s", stage_rate});
      }
      // db2_ms / accel_ms carry the legacy and AOT pipeline times, so
      // speedup_vs_db2 reads as the AOT pipeline's speedup.
      json.Add(StrFormat("E1 %d-stage ELT", stages), rows, legacy.millis,
               aot.millis, std::move(extra));
    }
  }
  std::printf("AOT INSERT ... SELECT stage at 50000 rows: %.0f rows/s\n",
              stage_rate);
  json.Write();
}

void BM_PipelineLegacy(benchmark::State& state) {
  for (auto _ : state) {
    PipelineStats stats =
        RunPipeline(static_cast<size_t>(state.range(0)),
                    static_cast<int>(state.range(1)), /*use_aot=*/false);
    state.counters["boundary_bytes"] = static_cast<double>(stats.boundary_bytes);
  }
}

void BM_PipelineAot(benchmark::State& state) {
  for (auto _ : state) {
    PipelineStats stats =
        RunPipeline(static_cast<size_t>(state.range(0)),
                    static_cast<int>(state.range(1)), /*use_aot=*/true);
    state.counters["boundary_bytes"] = static_cast<double>(stats.boundary_bytes);
  }
}

BENCHMARK(BM_PipelineLegacy)
    ->Args({10000, 4})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_PipelineAot)
    ->Args({10000, 4})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace idaa::bench

int main(int argc, char** argv) {
  idaa::bench::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
