// E10 — Shard scale-out: one logical accelerator hash-partitioned across
// N shard instances. The scan-aggregate mix is dominated by equality
// predicates on the distribution column, which the coordinator prunes to
// exactly one shard — each query touches ~1/N of the fact table, so
// throughput scales with the shard count even on a single core (hash
// placement defeats zone maps, so the 1-shard baseline scans everything).
// The mix runs under the concurrent-stress load: a DB2 writer with
// replication flushes plus a GROOM thread stay live throughout, exactly
// like the concurrent_stress_test scenario. A final phase kills and
// recovers individual shards of the 4-shard system under ENABLE WITH
// FAILBACK and counts user-visible errors (must be zero). The star-join
// arm times star aggregates (fact DISTRIBUTE BY (id), broadcast
// dimensions) at 1 vs 4 shards, with the scatter strategy the 4-shard
// coordinator chose.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "accel/sharded_accelerator.h"
#include "bench_util.h"

namespace idaa::bench {
namespace {

constexpr size_t kRows = 120000;
constexpr int kPrunedReps = 60;
constexpr int kFullScanReps = 10;

struct ShardPoint {
  size_t shards;
  double pruned_qps;
  double pruned_ms;
  double fullscan_ms;
  double speedup_vs_1shard;  // pruned mix, filled in after the sweep
};

constexpr size_t kStarFactRows = 200000;
constexpr int kStarReps = 10;
/// ROADMAP's scale-out target for star aggregates at 4 shards.
constexpr double kStarTarget4Shards = 1.5;

struct StarQuery {
  const char* name;
  const char* sql;
};

const StarQuery kStarQueries[] = {
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
};

struct StarPoint {
  const char* query = nullptr;
  double ms_1shard = 0;
  double ms_4shard = 0;
  std::string strategy_4shard;
};

struct StarArm {
  std::vector<StarPoint> points;
  double speedup_4_vs_1 = 0;  // geomean over the queries
};

void WriteJson(const std::vector<ShardPoint>& points,
               uint64_t shard_kill_errors, const StarArm& star) {
  const char* dir = std::getenv("IDAA_BENCH_JSON_DIR");
  std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/"
                                      : std::string()) +
      "BENCH_shard_scaleout.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  std::fprintf(f,
               "{\n  \"experiment\": \"shard_scaleout\",\n"
               "  \"rows\": %zu,\n"
               "  \"shard_kill_user_errors\": %llu,\n"
               "  \"star_fact_rows\": %zu,\n"
               "  \"star_speedup_4_vs_1\": %.2f,\n"
               "  \"star_target_4_vs_1\": %.2f,\n"
               "  \"star_entries\": [\n",
               kRows, static_cast<unsigned long long>(shard_kill_errors),
               kStarFactRows, star.speedup_4_vs_1, kStarTarget4Shards);
  for (size_t i = 0; i < star.points.size(); ++i) {
    const StarPoint& e = star.points[i];
    std::fprintf(f,
                 "    {\"query\": \"%s\", \"ms_1shard\": %.3f, "
                 "\"ms_4shard\": %.3f, \"speedup_4_vs_1\": %.2f, "
                 "\"strategy_4shard\": \"%s\"}%s\n",
                 e.query, e.ms_1shard, e.ms_4shard,
                 e.ms_4shard > 0 ? e.ms_1shard / e.ms_4shard : 0.0,
                 e.strategy_4shard.c_str(),
                 i + 1 < star.points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"entries\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ShardPoint& e = points[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"pruned_qps\": %.1f, "
                 "\"pruned_ms_per_query\": %.3f, "
                 "\"fullscan_ms_per_query\": %.3f, "
                 "\"speedup_vs_1shard\": %.2f}%s\n",
                 e.shards, e.pruned_qps, e.pruned_ms, e.fullscan_ms,
                 e.speedup_vs_1shard, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

/// Orders fact table hash-distributed on `cust`, loaded through the bulk
/// loader and accelerated, plus a `noise` table for the concurrent writer.
void SeedSharded(IdaaSystem& system) {
  Must(system,
       "CREATE TABLE orders (id INT NOT NULL, cust INT, amount DOUBLE, "
       "region VARCHAR, qty INT) DISTRIBUTE BY (cust)");
  Schema schema({{"ID", DataType::kInteger, false},
                 {"CUST", DataType::kInteger, true},
                 {"AMOUNT", DataType::kDouble, true},
                 {"REGION", DataType::kVarchar, true},
                 {"QTY", DataType::kInteger, true}});
  static const char* kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
  Rng rng(42);
  loader::GeneratorSource source(schema, kRows, [&rng](size_t i) {
    return Row{Value::Integer(static_cast<int64_t>(i)),
               Value::Integer(rng.Uniform(0, 999)),
               Value::Double(rng.UniformDouble(0, 1000)),
               Value::Varchar(kRegions[rng.Uniform(0, 3)]),
               Value::Integer(rng.Uniform(1, 50))};
  });
  loader::LoadOptions options;
  options.batch_size = 8192;
  auto report = system.loader().Load("orders", &source, options);
  if (!report.ok()) {
    std::cerr << "bench seed failed: " << report.status() << "\n";
    std::exit(1);
  }
  Must(system, "CALL SYSPROC.ACCEL_ADD_TABLES('orders')");
  Must(system, "CREATE TABLE noise (id INT NOT NULL, v INT)");
  Must(system, "CALL SYSPROC.ACCEL_ADD_TABLES('noise')");
}

/// The concurrent-stress mix from the stress suite: a DB2 writer with
/// replication flushes and a GROOM thread run for the whole measurement.
class BackgroundLoad {
 public:
  explicit BackgroundLoad(IdaaSystem& system) : system_(system) {
    writer_ = std::thread([this] {
      auto conn = system_.NewConnection();
      int id = 0;
      while (!stop_.load(std::memory_order_relaxed)) {
        (void)conn->Execute(
            StrFormat("INSERT INTO noise VALUES (%d, %d)", id, id % 7));
        ++id;
        (void)system_.replication().Flush();
        std::this_thread::yield();
      }
    });
    groomer_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        (void)system_.accelerator().GroomAll();
        std::this_thread::yield();
      }
    });
  }
  ~BackgroundLoad() {
    stop_.store(true);
    writer_.join();
    groomer_.join();
  }

 private:
  IdaaSystem& system_;
  std::atomic<bool> stop_{false};
  std::thread writer_;
  std::thread groomer_;
};

ShardPoint MeasureShards(size_t shards) {
  SystemOptions options;
  options.accelerator_shards = shards;
  options.replication_batch_size = 64;
  IdaaSystem system(options);
  SeedSharded(system);
  system.SetAccelerationMode(federation::AccelerationMode::kAll);

  ShardPoint point;
  point.shards = shards;
  point.speedup_vs_1shard = 1.0;
  {
    BackgroundLoad load(system);
    // Warm both shapes once (dictionary decode, morsel pool spin-up).
    Must(system, "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = 1");
    Must(system,
         "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region");

    WallTimer pruned_timer;
    for (int i = 0; i < kPrunedReps; ++i) {
      Must(system, StrFormat("SELECT COUNT(*), SUM(amount), MAX(qty) "
                             "FROM orders WHERE cust = %d",
                             (i * 37) % 1000));
    }
    point.pruned_ms = pruned_timer.Millis() / kPrunedReps;
    point.pruned_qps =
        point.pruned_ms > 0 ? 1000.0 / point.pruned_ms : 0.0;

    WallTimer full_timer;
    for (int i = 0; i < kFullScanReps; ++i) {
      Must(system,
           "SELECT region, COUNT(*), SUM(amount) FROM orders "
           "GROUP BY region");
    }
    point.fullscan_ms = full_timer.Millis() / kFullScanReps;
  }
  return point;
}

/// Star schema with the fact table hash-distributed on `id` and broadcast
/// dimensions, so every shard joins its fact partition locally.
void SeedStarSharded(IdaaSystem& system) {
  Must(system, "CREATE TABLE dim_date (dkey INT NOT NULL, month INT, "
               "quarter INT)");
  for (int d = 0; d < 365; d += 73) {
    std::string insert = "INSERT INTO dim_date VALUES ";
    for (int k = d; k < d + 73; ++k) {
      if (k != d) insert += ", ";
      insert += StrFormat("(%d, %d, %d)", k, k / 31 + 1, k / 92 + 1);
    }
    Must(system, insert);
  }
  Must(system, "CREATE TABLE dim_product (pkey INT NOT NULL, "
               "category VARCHAR)");
  static const char* kCategories[] = {"FOOD", "TECH", "HOME", "TOYS"};
  std::string insert = "INSERT INTO dim_product VALUES ";
  for (int p = 0; p < 200; ++p) {
    if (p != 0) insert += ", ";
    insert += StrFormat("(%d, '%s')", p, kCategories[p % 4]);
  }
  Must(system, insert);
  Must(system, "CREATE TABLE fact_sales (id INT NOT NULL, dkey INT, "
               "pkey INT, qty INT, revenue DOUBLE) DISTRIBUTE BY (id)");
  Schema schema({{"ID", DataType::kInteger, false},
                 {"DKEY", DataType::kInteger, true},
                 {"PKEY", DataType::kInteger, true},
                 {"QTY", DataType::kInteger, true},
                 {"REVENUE", DataType::kDouble, true}});
  Rng rng(2016);
  loader::GeneratorSource source(schema, kStarFactRows, [&rng](size_t i) {
    return Row{Value::Integer(static_cast<int64_t>(i)),
               Value::Integer(rng.Uniform(0, 364)),
               Value::Integer(rng.Uniform(0, 199)),
               Value::Integer(rng.Uniform(1, 20)),
               Value::Double(rng.UniformDouble(1, 500))};
  });
  loader::LoadOptions options;
  options.batch_size = 8192;
  if (!system.loader().Load("fact_sales", &source, options).ok()) {
    std::cerr << "star seed failed\n";
    std::exit(1);
  }
  for (const char* t : {"dim_date", "dim_product", "fact_sales"}) {
    Must(system, std::string("CALL SYSPROC.ACCEL_ADD_TABLES('") + t + "')");
  }
}

/// Best-of-three mean latency of `sql` over kStarReps runs.
double TimeStarQuery(IdaaSystem& system, const char* sql) {
  Must(system, sql);
  double best = 0;
  for (int group = 0; group < 3; ++group) {
    WallTimer timer;
    for (int i = 0; i < kStarReps; ++i) Must(system, sql);
    double ms = timer.Millis() / kStarReps;
    if (group == 0 || ms < best) best = ms;
  }
  return best;
}

/// The shard_scatter strategy EXPLAIN ANALYZE reports for `sql`
/// ("single" when the plan never scatters).
std::string ScatterStrategy(IdaaSystem& system, const char* sql) {
  auto rs = system.Query(std::string("EXPLAIN ANALYZE ") + sql);
  if (!rs.ok()) return "error";
  for (const Row& row : rs->rows()) {
    for (const Value& v : row) {
      if (!v.is_varchar()) continue;
      const std::string& text = v.AsVarchar();
      size_t pos = text.find("strategy=");
      if (pos == std::string::npos) continue;
      pos += 9;
      return text.substr(pos, text.find(' ', pos) - pos);
    }
  }
  return "single";
}

StarArm MeasureStarArm() {
  StarArm arm;
  for (const StarQuery& q : kStarQueries) {
    StarPoint point;
    point.query = q.name;
    arm.points.push_back(point);
  }
  for (size_t shards : {1, 4}) {
    SystemOptions options;
    options.accelerator_shards = shards;
    IdaaSystem system(options);
    SeedStarSharded(system);
    system.SetAccelerationMode(federation::AccelerationMode::kAll);
    for (size_t q = 0; q < std::size(kStarQueries); ++q) {
      const double ms = TimeStarQuery(system, kStarQueries[q].sql);
      if (shards == 1) {
        arm.points[q].ms_1shard = ms;
      } else {
        arm.points[q].ms_4shard = ms;
        arm.points[q].strategy_4shard =
            ScatterStrategy(system, kStarQueries[q].sql);
      }
    }
  }
  double log_sum = 0;
  for (const StarPoint& p : arm.points) {
    log_sum += std::log(p.ms_1shard / p.ms_4shard);
  }
  arm.speedup_4_vs_1 = std::exp(log_sum / arm.points.size());
  return arm;
}

/// Kill/recover shards of a 4-shard system while an ENABLE WITH FAILBACK
/// reader runs the scan-aggregate mix; returns user-visible errors (the
/// shard design promises zero: a dead shard fails back per-shard).
uint64_t ShardKillPhase() {
  SystemOptions options;
  options.accelerator_shards = 4;
  options.replication_batch_size = 64;
  IdaaSystem system(options);
  SeedSharded(system);
  auto* shard_accel =
      dynamic_cast<accel::ShardedAccelerator*>(&system.accelerator());
  if (shard_accel == nullptr) {
    std::cerr << "expected a sharded accelerator\n";
    std::exit(1);
  }
  system.SetAccelerationMode(
      federation::AccelerationMode::kEnableWithFailback);

  std::atomic<bool> stop{false};
  std::thread killer([&shard_accel, &stop] {
    size_t victim = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      shard_accel->SetShardState(victim, accel::AcceleratorState::kOffline);
      std::this_thread::yield();
      shard_accel->SetShardState(victim, accel::AcceleratorState::kOnline);
      victim = (victim + 1) % shard_accel->num_shards();
      std::this_thread::yield();
    }
  });

  uint64_t errors = 0;
  for (int i = 0; i < 200; ++i) {
    auto r = system.Execute(
        StrFormat("SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = %d",
                  (i * 37) % 1000),
        RawExecOptions());
    if (!r.ok()) ++errors;
  }
  stop.store(true);
  killer.join();
  return errors;
}

void PrintTable() {
  PrintHeader(
      "E10: shard scale-out on the scan-aggregate mix",
      "Claim: hash-partitioning one logical accelerator across N shards "
      "scales partition-key-pruned scan-aggregate throughput with N (each "
      "query touches ~1/N of the data), stays exact, and a dead shard is "
      "invisible under ENABLE WITH FAILBACK.");

  std::vector<ShardPoint> points;
  std::printf("%7s | %12s %14s %16s %10s\n", "shards", "pruned qps",
              "pruned ms/q", "fullscan ms/q", "speedup");
  for (size_t shards : {1, 2, 4, 8}) {
    ShardPoint point = MeasureShards(shards);
    if (!points.empty() && points.front().pruned_ms > 0) {
      point.speedup_vs_1shard = points.front().pruned_ms / point.pruned_ms;
    }
    points.push_back(point);
    std::printf("%7zu | %12.1f %14.3f %16.3f %9.2fx\n", point.shards,
                point.pruned_qps, point.pruned_ms, point.fullscan_ms,
                point.speedup_vs_1shard);
  }

  StarArm star = MeasureStarArm();
  std::printf("\nstar-join arm (%zu fact rows, DISTRIBUTE BY (id)):\n",
              kStarFactRows);
  std::printf("  %-22s %10s %10s %8s  %s\n", "query", "1-shard ms",
              "4-shard ms", "speedup", "4-shard strategy");
  for (const StarPoint& p : star.points) {
    std::printf("  %-22s %10.3f %10.3f %7.2fx  %s\n", p.query, p.ms_1shard,
                p.ms_4shard, p.ms_1shard / p.ms_4shard,
                p.strategy_4shard.c_str());
  }
  std::printf("  geomean 4-vs-1 speedup %.2fx (target %.1fx)\n",
              star.speedup_4_vs_1, kStarTarget4Shards);

  uint64_t kill_errors = ShardKillPhase();
  std::printf("\nshard-kill phase (4 shards, failback readers): "
              "%llu user-visible errors\n",
              static_cast<unsigned long long>(kill_errors));
  WriteJson(points, kill_errors, star);
}

// Micro: a single pruned point-aggregate on a 4-shard system, no
// background load — the floor for the coordinator + one-shard path.
void BM_PrunedPointAggregate4Shards(benchmark::State& state) {
  static IdaaSystem* system = [] {
    auto* s = new IdaaSystem([] {
      SystemOptions o;
      o.accelerator_shards = 4;
      return o;
    }());
    SeedSharded(*s);
    s->SetAccelerationMode(federation::AccelerationMode::kAll);
    return s;
  }();
  int k = 0;
  for (auto _ : state) {
    auto r = system->Execute(
        StrFormat("SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = %d",
                  (k++ * 37) % 1000),
        RawExecOptions());
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
}

BENCHMARK(BM_PrunedPointAggregate4Shards);

}  // namespace
}  // namespace idaa::bench

int main(int argc, char** argv) {
  idaa::bench::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
