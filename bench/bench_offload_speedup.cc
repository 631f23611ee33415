// E2 — Query offload: analytical queries on the accelerator's columnar,
// zone-map-pruned engine vs. DB2's row-at-a-time volcano engine ("extremely
// fast execution of complex, analytical queries"), plus the crossover for
// short transactional lookups that the ENABLE-mode heuristic protects.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace idaa::bench {
namespace {

struct QueryDef {
  const char* name;
  const char* sql;
};

const QueryDef kQueries[] = {
    {"Q1 full scan agg",
     "SELECT COUNT(*), SUM(amount), AVG(amount) FROM orders"},
    {"Q2 selective filter",
     "SELECT COUNT(*) FROM orders WHERE id BETWEEN 1000 AND 1100"},
    {"Q3 group by region",
     "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region"},
    {"Q4 join + group",
     "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o "
     "JOIN customers c ON o.cust = c.cid GROUP BY c.tier"},
    {"Q5 point lookup", "SELECT amount FROM orders WHERE id = 77"},
};

double TimeQuery(IdaaSystem& system, const std::string& sql,
                 federation::AccelerationMode mode, int reps) {
  system.SetAccelerationMode(mode);
  // Warm up once. Caches stay off throughout: this bench times the engine.
  auto warm = system.Execute(sql, RawExecOptions());
  if (!warm.ok()) {
    std::cerr << "query failed: " << sql << ": " << warm.status() << "\n";
    std::exit(1);
  }
  // Best-of-three groups: the single shared CPU makes any one group
  // vulnerable to a scheduling hiccup inflating the mean; the fastest
  // group is the least-disturbed measurement of the same work.
  double best = 0;
  for (int group = 0; group < 3; ++group) {
    WallTimer timer;
    for (int i = 0; i < reps; ++i) {
      auto r = system.Execute(sql, RawExecOptions());
      if (!r.ok()) std::exit(1);
    }
    double ms = timer.Millis() / reps;
    if (group == 0 || ms < best) best = ms;
  }
  return best;
}

void PrintTable() {
  PrintHeader("E2: analytical query offload speedup",
              "Claim: the accelerator wins on analytical shapes (scans, "
              "grouping, joins);\nshort point lookups are better off in "
              "DB2 (the ENABLE heuristic's crossover).");
  BenchJson json("offload");
  for (size_t rows : {20000u, 100000u, 400000u}) {
    IdaaSystem system;
    SeedOrders(system, rows, /*accelerate=*/true);
    SeedCustomers(system, 1000, /*accelerate=*/true);
    std::printf("rows = %zu\n", rows);
    std::printf("  %-22s %12s %12s %9s\n", "query", "db2 ms", "accel ms",
                "vs db2");
    for (const QueryDef& q : kQueries) {
      int reps = rows > 100000 ? 3 : 5;
      double db2 = TimeQuery(system, q.sql,
                             federation::AccelerationMode::kNone, reps);
      // The accelerator is orders of magnitude faster than DB2; more reps
      // keep its timing from jittering with the host.
      int accel_reps = rows > 100000 ? 10 : 15;
      double accel = TimeQuery(
          system, q.sql, federation::AccelerationMode::kEligible, accel_reps);
      std::printf("  %-22s %12.3f %12.3f %8.2fx\n", q.name, db2, accel,
                  db2 / accel);
      json.Add(std::string(q.name) + " @" + std::to_string(rows), rows, db2,
               accel);
    }
    std::printf("\n");
  }
  json.Write();
}

void BM_OffloadQuery(benchmark::State& state) {
  static IdaaSystem* system = [] {
    auto* s = new IdaaSystem();
    SeedOrders(*s, 100000, true);
    SeedCustomers(*s, 1000, true);
    return s;
  }();
  const QueryDef& q = kQueries[state.range(0)];
  auto mode = state.range(1) ? federation::AccelerationMode::kEligible
                             : federation::AccelerationMode::kNone;
  system->SetAccelerationMode(mode);
  for (auto _ : state) {
    auto r = system->Execute(q.sql, RawExecOptions());
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(std::string(q.name) + (state.range(1) ? " accel" : " db2"));
}

BENCHMARK(BM_OffloadQuery)
    ->Args({0, 0})->Args({0, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Args({3, 0})->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace idaa::bench

int main(int argc, char** argv) {
  idaa::bench::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
