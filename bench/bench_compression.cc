// E11 — Compressed columnar storage with direct execution on encodings:
// the same scan-heavy queries on the same accelerator-only table, first
// with every zone as flat arrays, then after GROOM compacted the zones
// into RLE / frame-of-reference form (see DESIGN.md §11). Claims pinned
// by CI: the encoded zones cost >= 3x less column memory, and the
// scan-heavy shapes run >= 2x faster because predicates and aggregates
// evaluate per run / per packed word instead of per row.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "bench_util.h"

namespace idaa::bench {
namespace {

struct QueryDef {
  const char* name;
  const char* sql;
  /// Counts toward the headline scan_speedup geomean. Gated shapes are
  /// the two canonical analytical scans (full-scan aggregation, grouped
  /// aggregation) where run-folded execution on encodings pays. The
  /// filter shapes are reported but not gated: their cycles are dominated
  /// by the per-row visibility check and selection-vector fill that both
  /// arms share, so the encoded win there is bytes, not time — see
  /// EXPERIMENTS.md E11.
  bool scan_heavy;
};

// The day/price/amount/status columns are run-heavy the way a fact table
// clustered on its load date is: long stretches of identical values. id,
// region, qty and cust have no runs and land in frame-of-reference zones,
// so the table exercises both encodings (and the plain fallback is covered
// by the hot tail left after groom).
const QueryDef kQueries[] = {
    {"C1 full scan fold agg",
     "SELECT COUNT(*), SUM(price), MIN(price), MAX(price) FROM comp", true},
    {"C2 run filter count",
     "SELECT COUNT(*) FROM comp WHERE status = 'SHIPPED'", false},
    {"C3 range + sum",
     "SELECT COUNT(*), SUM(qty) FROM comp WHERE day BETWEEN 200 AND 1400",
     false},
    {"C4 group by day",
     "SELECT day, COUNT(*), SUM(amount) FROM comp GROUP BY day", true},
    {"C5 point lookup", "SELECT amount FROM comp WHERE id = 123457", false},
};

void SeedComp(IdaaSystem& system, size_t rows) {
  // Accelerator-only: the loader writes straight into the columnar store,
  // so a 10M-row arm never materializes a DB2-side row copy.
  Must(system,
       "CREATE TABLE comp (id INT NOT NULL, day INT, price INT, "
       "amount DOUBLE, status VARCHAR, region VARCHAR, qty INT) "
       "IN ACCELERATOR");
  Schema schema({{"ID", DataType::kInteger, false},
                 {"DAY", DataType::kInteger, true},
                 {"PRICE", DataType::kInteger, true},
                 {"AMOUNT", DataType::kDouble, true},
                 {"STATUS", DataType::kVarchar, true},
                 {"REGION", DataType::kVarchar, true},
                 {"QTY", DataType::kInteger, true}});
  static const char* kStatuses[] = {"NEW", "PAID", "SHIPPED", "DONE"};
  static const char* kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
  loader::GeneratorSource source(schema, rows, [](size_t i) {
    const int64_t day = static_cast<int64_t>(i / 5000);
    return Row{Value::Integer(static_cast<int64_t>(i)),
               Value::Integer(day),
               Value::Integer(100 + day % 20),
               Value::Double(static_cast<double>(day % 100) + 0.25),
               Value::Varchar(kStatuses[(i / 300) % 4]),
               Value::Varchar(kRegions[i % 4]),
               Value::Integer(static_cast<int64_t>(i % 50) + 1)};
  });
  loader::LoadOptions options;
  options.batch_size = 8192;
  auto report = system.loader().Load("comp", &source, options);
  if (!report.ok()) {
    std::cerr << "bench seed failed: " << report.status() << "\n";
    std::exit(1);
  }
}

double TimeQuery(IdaaSystem& system, const std::string& sql, int reps) {
  auto warm = system.Execute(sql, RawExecOptions());
  if (!warm.ok()) {
    std::cerr << "query failed: " << sql << ": " << warm.status() << "\n";
    std::exit(1);
  }
  // Best-of-three groups, same rationale as bench_offload_speedup: the
  // fastest group is the least-disturbed measurement of identical work.
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

struct ArmResult {
  size_t rows = 0;
  double raw_ms[std::size(kQueries)] = {};
  double encoded_ms[std::size(kQueries)] = {};
  double memory_ratio = 0;
  double scan_speedup = 0;
  size_t raw_col_bytes = 0;
  size_t encoded_col_bytes = 0;
  size_t hot_rows = 0;
};

ArmResult RunArm(size_t rows) {
  ArmResult arm;
  arm.rows = rows;

  SystemOptions options;
  // Encoding stays off while the raw arm is timed; the toggle only affects
  // future grooms, so flipping it on afterwards measures the identical
  // data through the identical plans — only the storage format differs.
  options.accelerator.enable_encoding = false;
  IdaaSystem system(options);
  SeedComp(system, rows);

  const int reps = rows > 2000000 ? 3 : 5;
  for (size_t q = 0; q < std::size(kQueries); ++q) {
    arm.raw_ms[q] = TimeQuery(system, kQueries[q].sql, reps);
  }

  system.accelerator().SetEncodingEnabled(true);
  auto groom = system.accelerator().GroomAll();
  if (groom.zones_compacted == 0) {
    std::cerr << "groom compacted no zones; encoded arm is meaningless\n";
    std::exit(1);
  }
  auto table = system.accelerator().GetTable("comp");
  if (!table.ok()) {
    std::cerr << "comp missing after groom: " << table.status() << "\n";
    std::exit(1);
  }
  const accel::TableEncodingStats enc = (*table)->EncodingStats();
  arm.raw_col_bytes = enc.columns.raw_bytes;
  arm.encoded_col_bytes = enc.columns.encoded_bytes;
  arm.hot_rows = enc.hot_rows;
  arm.memory_ratio =
      enc.columns.encoded_bytes > 0
          ? static_cast<double>(enc.columns.raw_bytes) /
                static_cast<double>(enc.columns.encoded_bytes)
          : 0.0;

  for (size_t q = 0; q < std::size(kQueries); ++q) {
    arm.encoded_ms[q] = TimeQuery(system, kQueries[q].sql, reps);
  }

  double log_sum = 0;
  size_t scan_heavy = 0;
  for (size_t q = 0; q < std::size(kQueries); ++q) {
    if (!kQueries[q].scan_heavy || arm.encoded_ms[q] <= 0) continue;
    log_sum += std::log(arm.raw_ms[q] / arm.encoded_ms[q]);
    ++scan_heavy;
  }
  arm.scan_speedup = scan_heavy > 0 ? std::exp(log_sum / scan_heavy) : 0.0;
  return arm;
}

/// BenchJson carries a per-query db2/accel schema, so this bench writes
/// its own file: the CI gate reads the top-level
/// memory_ratio and scan_speedup (taken from the largest arm).
void WriteJson(const std::vector<ArmResult>& arms) {
  const ArmResult& head = arms.back();
  const char* dir = std::getenv("IDAA_BENCH_JSON_DIR");
  std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/"
                                      : std::string()) +
      "BENCH_compression.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  std::fprintf(f,
               "{\n  \"experiment\": \"compression\",\n"
               "  \"rows\": %zu,\n"
               "  \"memory_ratio\": %.2f,\n"
               "  \"scan_speedup\": %.2f,\n"
               "  \"raw_col_bytes\": %zu,\n"
               "  \"encoded_col_bytes\": %zu,\n"
               "  \"hot_rows\": %zu,\n"
               "  \"entries\": [\n",
               head.rows, head.memory_ratio, head.scan_speedup,
               head.raw_col_bytes, head.encoded_col_bytes, head.hot_rows);
  bool first = true;
  for (const ArmResult& arm : arms) {
    for (size_t q = 0; q < std::size(kQueries); ++q) {
      std::fprintf(
          f,
          "%s    {\"query\": \"%s @%zu\", \"rows\": %zu, "
          "\"raw_ms\": %.3f, \"encoded_ms\": %.3f, \"speedup\": %.2f, "
          "\"scan_heavy\": %s}",
          first ? "" : ",\n", kQueries[q].name, arm.rows, arm.rows,
          arm.raw_ms[q], arm.encoded_ms[q],
          arm.encoded_ms[q] > 0 ? arm.raw_ms[q] / arm.encoded_ms[q] : 0.0,
          kQueries[q].scan_heavy ? "true" : "false");
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

void PrintTable() {
  PrintHeader(
      "E11: compressed columnar storage, direct execution on encodings",
      "Claim: GROOM-compacted RLE/FOR zones cost >= 3x less column memory "
      "and\nscan-heavy shapes run >= 2x faster by evaluating per run "
      "instead of per row.");
  std::vector<ArmResult> arms;
  for (size_t rows : {size_t{1000000}, size_t{10000000}}) {
    ArmResult arm = RunArm(rows);
    std::printf("rows = %zu   (raw %zu bytes -> encoded %zu bytes, "
                "%.2fx smaller; hot tail %zu rows)\n",
                arm.rows, arm.raw_col_bytes, arm.encoded_col_bytes,
                arm.memory_ratio, arm.hot_rows);
    std::printf("  %-24s %12s %12s %9s\n", "query", "raw ms", "encoded ms",
                "speedup");
    for (size_t q = 0; q < std::size(kQueries); ++q) {
      std::printf("  %-24s %12.3f %12.3f %8.2fx%s\n", kQueries[q].name,
                  arm.raw_ms[q], arm.encoded_ms[q],
                  arm.encoded_ms[q] > 0 ? arm.raw_ms[q] / arm.encoded_ms[q]
                                        : 0.0,
                  kQueries[q].scan_heavy ? "" : "  (not gated)");
    }
    std::printf("  scan-heavy geomean speedup: %.2fx\n\n", arm.scan_speedup);
    arms.push_back(arm);
  }
  WriteJson(arms);
}

void BM_EncodedScan(benchmark::State& state) {
  static IdaaSystem* system = [] {
    SystemOptions options;
    options.accelerator.enable_encoding = true;
    auto* s = new IdaaSystem(options);
    SeedComp(*s, 1000000);
    s->accelerator().GroomAll();
    return s;
  }();
  const QueryDef& q = kQueries[state.range(0)];
  for (auto _ : state) {
    auto r = system->Execute(q.sql, RawExecOptions());
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(std::string(q.name) + " encoded");
}

BENCHMARK(BM_EncodedScan)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace idaa::bench

int main(int argc, char** argv) {
  idaa::bench::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
