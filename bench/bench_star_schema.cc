// E7 — Star-schema BI workload: a fact table with two dimensions, six
// representative reporting queries, both engines. This widens E2's claim
// ("extremely fast execution of complex, analytical queries") to the
// dimensional query shapes the paper's reporting use case implies.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace idaa::bench {
namespace {

void SeedStarSchema(IdaaSystem& system, size_t fact_rows) {
  // Dimensions.
  Must(system, "CREATE TABLE dim_date (dkey INT NOT NULL, month INT, "
               "quarter INT, year INT)");
  for (int d = 0; d < 365; ++d) {
    Must(system, StrFormat("INSERT INTO dim_date VALUES (%d, %d, %d, 2016)",
                           d, d / 31 + 1, d / 92 + 1));
  }
  Must(system, "CREATE TABLE dim_product (pkey INT NOT NULL, "
               "category VARCHAR, brand VARCHAR)");
  static const char* kCategories[] = {"FOOD", "TECH", "HOME", "TOYS"};
  for (int p = 0; p < 200; ++p) {
    Must(system,
         StrFormat("INSERT INTO dim_product VALUES (%d, '%s', 'brand_%d')", p,
                   kCategories[p % 4], p % 25));
  }
  // Fact table, bulk-loaded.
  Must(system, "CREATE TABLE fact_sales (id INT NOT NULL, dkey INT, "
               "pkey INT, qty INT, revenue DOUBLE)");
  Schema schema({{"ID", DataType::kInteger, false},
                 {"DKEY", DataType::kInteger, true},
                 {"PKEY", DataType::kInteger, true},
                 {"QTY", DataType::kInteger, true},
                 {"REVENUE", DataType::kDouble, true}});
  Rng rng(2016);
  loader::GeneratorSource source(schema, fact_rows, [&rng](size_t i) {
    return Row{Value::Integer(static_cast<int64_t>(i)),
               Value::Integer(rng.Uniform(0, 364)),
               Value::Integer(rng.Uniform(0, 199)),
               Value::Integer(rng.Uniform(1, 20)),
               Value::Double(rng.UniformDouble(1, 500))};
  });
  loader::LoadOptions options;
  options.batch_size = 8192;
  if (!system.loader().Load("fact_sales", &source, options).ok()) {
    std::exit(1);
  }
  for (const char* t : {"dim_date", "dim_product", "fact_sales"}) {
    Must(system, std::string("CALL SYSPROC.ACCEL_ADD_TABLES('") + t + "')");
  }
}

const struct {
  const char* name;
  const char* sql;
} kQueries[] = {
    {"S1 revenue by quarter",
     "SELECT d.quarter, SUM(f.revenue) FROM fact_sales f "
     "JOIN dim_date d ON f.dkey = d.dkey GROUP BY d.quarter"},
    {"S2 category mix",
     "SELECT p.category, COUNT(*), SUM(f.revenue) FROM fact_sales f "
     "JOIN dim_product p ON f.pkey = p.pkey GROUP BY p.category"},
    {"S3 two-dim drilldown",
     "SELECT d.month, p.category, SUM(f.qty) FROM fact_sales f "
     "JOIN dim_date d ON f.dkey = d.dkey "
     "JOIN dim_product p ON f.pkey = p.pkey "
     "WHERE d.quarter = 1 GROUP BY d.month, p.category"},
    {"S4 top brands",
     "SELECT p.brand, SUM(f.revenue) AS rev FROM fact_sales f "
     "JOIN dim_product p ON f.pkey = p.pkey GROUP BY p.brand "
     "ORDER BY rev DESC LIMIT 10"},
    {"S5 selective window",
     "SELECT COUNT(*), AVG(f.revenue) FROM fact_sales f "
     "WHERE f.dkey BETWEEN 100 AND 110"},
    {"S6 big-ticket orders",
     "SELECT f.id, f.revenue FROM fact_sales f "
     "WHERE f.revenue > 495 ORDER BY f.revenue DESC LIMIT 20"},
};

double TimeQuery(IdaaSystem& system, const char* sql,
                 federation::AccelerationMode mode, int reps) {
  system.SetAccelerationMode(mode);
  Must(system, sql);
  // Best-of-three groups: the single shared CPU makes any one group
  // vulnerable to a scheduling hiccup inflating the mean; the fastest
  // group is the least-disturbed measurement of the same work.
  double best = 0;
  for (int group = 0; group < 3; ++group) {
    WallTimer timer;
    for (int i = 0; i < reps; ++i) Must(system, sql);
    double ms = timer.Millis() / reps;
    if (group == 0 || ms < best) best = ms;
  }
  return best;
}

void PrintTable() {
  PrintHeader("E7: star-schema reporting workload",
              "Dimensional BI queries (the paper's read-only reporting "
              "baseline use case),\nDB2 row engine vs accelerator.");
  BenchJson json("star_schema");
  for (size_t rows : {50000u, 200000u}) {
    IdaaSystem system;
    SeedStarSchema(system, rows);
    std::printf("fact rows = %zu\n", rows);
    std::printf("  %-24s %12s %12s %9s\n", "query", "db2 ms", "accel ms",
                "vs db2");
    for (const auto& q : kQueries) {
      double db2 =
          TimeQuery(system, q.sql, federation::AccelerationMode::kNone, 3);
      // The accelerator is sub-millisecond at these scales; more reps keep
      // its timing from jittering with the host.
      double accel = TimeQuery(system, q.sql,
                               federation::AccelerationMode::kEligible, 15);
      std::printf("  %-24s %12.3f %12.3f %8.2fx\n", q.name, db2, accel,
                  db2 / accel);
      json.Add(std::string(q.name) + " @" + std::to_string(rows), rows, db2,
               accel);
    }
    std::printf("\n");
  }
  json.Write();
}

void BM_StarQuery(benchmark::State& state) {
  static IdaaSystem* system = [] {
    auto* s = new IdaaSystem();
    SeedStarSchema(*s, 100000);
    return s;
  }();
  const auto& q = kQueries[state.range(0)];
  system->SetAccelerationMode(state.range(1)
                                  ? federation::AccelerationMode::kEligible
                                  : federation::AccelerationMode::kNone);
  for (auto _ : state) {
    auto r = system->Execute(q.sql, RawExecOptions());
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  state.SetLabel(std::string(q.name) + (state.range(1) ? " accel" : " db2"));
}

BENCHMARK(BM_StarQuery)->Args({0, 0})->Args({0, 1})->Args({2, 0})->Args({2, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace idaa::bench

int main(int argc, char** argv) {
  idaa::bench::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
