// E5 — In-database analytics: an SPSS-style prepare+model pipeline run
// (a) in-accelerator via the analytics framework (data never leaves the
// accelerator; only the model summary is returned), vs.
// (b) client-side: every stage's input is extracted to the "client"
// through the DB2 boundary, transformed there, and re-inserted.

#include <benchmark/benchmark.h>

#include "analytics/kmeans.h"
#include "bench_util.h"

namespace idaa::bench {
namespace {

void SeedFeatures(IdaaSystem& system, size_t rows) {
  Must(system, "CREATE TABLE feats (id INT NOT NULL, x DOUBLE, y DOUBLE, "
               "z DOUBLE)");
  Schema schema({{"ID", DataType::kInteger, false},
                 {"X", DataType::kDouble, true},
                 {"Y", DataType::kDouble, true},
                 {"Z", DataType::kDouble, true}});
  Rng rng(17);
  loader::GeneratorSource source(schema, rows, [&rng](size_t i) {
    double base = (i % 3) * 10.0;
    return Row{Value::Integer(static_cast<int64_t>(i)),
               Value::Double(rng.Gaussian(base, 1)),
               Value::Double(rng.Gaussian(base, 1)),
               Value::Double(rng.Gaussian(base, 1))};
  });
  loader::LoadOptions options;
  options.batch_size = 8192;
  auto r = system.loader().Load("feats", &source, options);
  if (!r.ok()) std::exit(1);
  Must(system, "CALL SYSPROC.ACCEL_ADD_TABLES('feats')");
}

struct AnalyticsStats {
  double millis = 0;
  uint64_t boundary_bytes = 0;
};

/// In-accelerator: NORMALIZE then KMEANS via CALL; only summaries return.
AnalyticsStats RunInDatabase(IdaaSystem& system) {
  MetricsDelta delta(system.metrics());
  WallTimer timer;
  Must(system, "CALL IDAA.NORMALIZE('input=feats', 'output=feats_n', "
               "'columns=x,y,z')");
  Must(system, "CALL IDAA.KMEANS('input=feats_n', 'output=feats_k', "
               "'columns=x,y,z', 'k=3', 'seed=5')");
  AnalyticsStats stats;
  stats.millis = timer.Millis();
  stats.boundary_bytes = delta.Delta(metric::kFederationBytesToAccel) +
                         delta.Delta(metric::kFederationBytesFromAccel);
  return stats;
}

/// Client-side: SELECT the full table out (crossing the boundary),
/// normalize + cluster in client memory, write assignments back.
AnalyticsStats RunClientSide(IdaaSystem& system) {
  MetricsDelta delta(system.metrics());
  WallTimer timer;

  auto rs = system.Query("SELECT x, y, z FROM feats");
  if (!rs.ok()) std::exit(1);
  // Client-side normalize.
  std::vector<std::vector<double>> points;
  points.reserve(rs->NumRows());
  double mean[3] = {0, 0, 0}, m2[3] = {0, 0, 0};
  for (const Row& row : rs->rows()) {
    std::vector<double> p(3);
    for (int d = 0; d < 3; ++d) {
      p[d] = row[d].is_null() ? 0.0 : row[d].AsDouble();
      mean[d] += p[d];
      m2[d] += p[d] * p[d];
    }
    points.push_back(std::move(p));
  }
  double n = static_cast<double>(points.size());
  for (auto& p : points) {
    for (int d = 0; d < 3; ++d) {
      double mu = mean[d] / n;
      double sd = std::sqrt(std::max(1e-12, m2[d] / n - mu * mu));
      p[d] = (p[d] - mu) / sd;
    }
  }
  analytics::KMeansResult km =
      analytics::RunKMeans(points, 3, 25, 5, /*pool=*/nullptr);

  // Write the assignments back through the boundary.
  Must(system, "CREATE TABLE client_k (x DOUBLE, y DOUBLE, z DOUBLE, "
               "cluster INT) IN ACCELERATOR");
  std::string insert;
  size_t pending = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (pending == 0) insert = "INSERT INTO client_k VALUES ";
    insert += StrFormat("%s(%.6f, %.6f, %.6f, %zu)", pending ? ", " : "",
                        points[i][0], points[i][1], points[i][2],
                        km.assignments[i]);
    if (++pending == 500 || i + 1 == points.size()) {
      Must(system, insert);
      pending = 0;
    }
  }
  AnalyticsStats stats;
  stats.millis = timer.Millis();
  stats.boundary_bytes = delta.Delta(metric::kFederationBytesToAccel) +
                         delta.Delta(metric::kFederationBytesFromAccel);
  return stats;
}

void PrintTable() {
  PrintHeader("E5: in-database analytics vs client-side round trips",
              "Claim: executing prep + mining on the accelerator avoids "
              "extracting the\nworking set to the client and re-ingesting "
              "derived data.");
  std::printf("%8s | %10s | %12s %16s | %9s\n", "rows", "in-db ms",
              "client ms", "client bytes", "byte red.");
  BenchJson json("indb_analytics");
  for (size_t rows : {5000u, 20000u, 80000u}) {
    IdaaSystem system;
    SeedFeatures(system, rows);
    AnalyticsStats indb = RunInDatabase(system);
    AnalyticsStats client = RunClientSide(system);
    std::printf("%8zu | %10.1f | %12.1f %16llu | %8.1fx\n", rows,
                indb.millis, client.millis,
                (unsigned long long)client.boundary_bytes,
                client.boundary_bytes /
                    std::max<double>(1.0, indb.boundary_bytes));
    json.Add("normalize+kmeans @" + std::to_string(rows), rows,
             client.millis, indb.millis);
  }
  json.Write();
}

void BM_InDbPipeline(benchmark::State& state) {
  for (auto _ : state) {
    IdaaSystem system;
    SeedFeatures(system, static_cast<size_t>(state.range(0)));
    AnalyticsStats stats = RunInDatabase(system);
    state.counters["boundary_bytes"] =
        static_cast<double>(stats.boundary_bytes);
  }
}

BENCHMARK(BM_InDbPipeline)->Arg(20000)->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace idaa::bench

int main(int argc, char** argv) {
  idaa::bench::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
