// Shared helpers for the experiment benchmarks (see DESIGN.md §4 and
// EXPERIMENTS.md). Each bench binary prints its experiment table(s) —
// the reproduction of the paper's claims — and then runs google-benchmark
// micro timings.

#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "idaa/system.h"

namespace idaa::bench {

/// Statement options for measurement loops: both statement caches off, so a
/// repeated query times the engine (parse + route + execute), not a cache
/// hit. Benches that measure the caches themselves (bench_wlm) opt back in.
inline federation::ExecOptions RawExecOptions() {
  federation::ExecOptions opts;
  opts.use_plan_cache = false;
  opts.use_result_cache = false;
  return opts;
}

/// Execute-or-die. Used for both setup and timing loops, so it runs with
/// the statement caches off (RawExecOptions) — a bench repeating the same
/// SELECT must measure the engine, not the result cache.
inline void Must(IdaaSystem& system, const std::string& sql) {
  auto r = system.Execute(sql, RawExecOptions());
  if (!r.ok()) {
    std::cerr << "bench statement failed: " << sql << "\n  " << r.status()
              << "\n";
    std::exit(1);
  }
}

/// Bulk-load `rows` synthetic order rows into a DB2 table via the loader
/// (much faster than per-row INSERT) and optionally accelerate it.
inline void SeedOrders(IdaaSystem& system, size_t rows, bool accelerate,
                       const std::string& table = "orders") {
  Must(system, "CREATE TABLE " + table +
                   " (id INT NOT NULL, cust INT, amount DOUBLE, "
                   "region VARCHAR, qty INT)");
  Schema schema({{"ID", DataType::kInteger, false},
                 {"CUST", DataType::kInteger, true},
                 {"AMOUNT", DataType::kDouble, true},
                 {"REGION", DataType::kVarchar, true},
                 {"QTY", DataType::kInteger, true}});
  static const char* kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
  Rng rng(42);
  loader::GeneratorSource source(schema, rows, [&rng](size_t i) {
    return Row{Value::Integer(static_cast<int64_t>(i)),
               Value::Integer(rng.Uniform(0, 999)),
               Value::Double(rng.UniformDouble(0, 1000)),
               Value::Varchar(kRegions[rng.Uniform(0, 3)]),
               Value::Integer(rng.Uniform(1, 50))};
  });
  loader::LoadOptions options;
  options.batch_size = 8192;
  auto report = system.loader().Load(table, &source, options);
  if (!report.ok()) {
    std::cerr << "bench seed failed: " << report.status() << "\n";
    std::exit(1);
  }
  if (accelerate) {
    Must(system, "CALL SYSPROC.ACCEL_ADD_TABLES('" + table + "')");
  }
}

/// Seed a small dimension table (customers) on both sides.
inline void SeedCustomers(IdaaSystem& system, size_t rows, bool accelerate) {
  Must(system,
       "CREATE TABLE customers (cid INT NOT NULL, tier VARCHAR, "
       "score DOUBLE)");
  Schema schema({{"CID", DataType::kInteger, false},
                 {"TIER", DataType::kVarchar, true},
                 {"SCORE", DataType::kDouble, true}});
  static const char* kTiers[] = {"GOLD", "SILVER", "BRONZE"};
  Rng rng(7);
  loader::GeneratorSource source(schema, rows, [&rng](size_t i) {
    return Row{Value::Integer(static_cast<int64_t>(i)),
               Value::Varchar(kTiers[i % 3]),
               Value::Double(rng.UniformDouble(0, 1))};
  });
  auto report = system.loader().Load("customers", &source);
  if (!report.ok()) {
    std::cerr << "bench seed failed: " << report.status() << "\n";
    std::exit(1);
  }
  if (accelerate) {
    Must(system, "CALL SYSPROC.ACCEL_ADD_TABLES('customers')");
  }
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Millis() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::cout << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

/// Accumulates per-query timings and writes `BENCH_<name>.json` — the
/// machine-readable perf trajectory tracked across PRs (CI uploads it as
/// an artifact). `extra` appends bench-specific numeric fields to the
/// entry (e.g. a one-worker baseline next to the parallel timing).
class BenchJson {
 public:
  using Extra = std::vector<std::pair<std::string, double>>;

  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& query, size_t table_rows, double db2_ms,
           double accel_ms, Extra extra = {}) {
    entries_.push_back(
        {query, table_rows, db2_ms, accel_ms, std::move(extra)});
  }

  /// Write BENCH_<name>.json into $IDAA_BENCH_JSON_DIR (default: cwd).
  void Write() const {
    const char* dir = std::getenv("IDAA_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && *dir != '\0'
                            ? std::string(dir) + "/"
                            : std::string()) +
                       "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "cannot write " << path << "\n";
      return;
    }
    std::fprintf(f, "{\n  \"experiment\": \"%s\",\n  \"entries\": [\n",
                 name_.c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      double accel_rows_per_sec =
          e.accel_ms > 0 ? e.table_rows / (e.accel_ms / 1000.0) : 0.0;
      // Sub-0.1ms accelerator timings are dominated by per-statement fixed
      // cost (parse + route + snapshot), not scan throughput: zone-map
      // pruning can finish a "scan" in microseconds, making the
      // speedup_vs_db2 ratio noise. Label them so consumers — including
      // the CI perf gate — treat the ratio as non-significant.
      bool fixed_cost_dominated = e.accel_ms > 0 && e.accel_ms < 0.1;
      std::fprintf(
          f,
          "    {\"query\": \"%s\", \"rows\": %zu, \"db2_ms\": %.3f, "
          "\"accel_ms\": %.3f, \"accel_rows_per_sec\": %.0f, "
          "\"speedup_vs_db2\": %.2f, ",
          e.query.c_str(), e.table_rows, e.db2_ms, e.accel_ms,
          accel_rows_per_sec, e.accel_ms > 0 ? e.db2_ms / e.accel_ms : 0.0);
      for (const auto& [key, value] : e.extra) {
        std::fprintf(f, "\"%s\": %.3f, ", key.c_str(), value);
      }
      std::fprintf(f, "\"fixed_cost_dominated\": %s}%s\n",
                   fixed_cost_dominated ? "true" : "false",
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::cout << "wrote " << path << "\n";
  }

 private:
  struct Entry {
    std::string query;
    size_t table_rows;
    double db2_ms;
    double accel_ms;
    Extra extra;
  };
  std::string name_;
  std::vector<Entry> entries_;
};

}  // namespace idaa::bench
