// Seeded input generation. Every table row and every statement a client
// issues is a pure function of the run seed, the client's stream id and the
// position in the stream, so the same seed yields the same statement prefix
// however fast the program under test runs. The program only ever sees the
// generated SQL text and rows.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"

namespace perfbench {

/// Statement classes the benchmark reports latencies for. kTxn is one
/// order-entry transaction and kPipeline one whole ELT iteration.
enum class StmtClass { kLookup, kScan, kJoin, kReport, kTxn, kPipeline };
inline constexpr int kNumClasses = 6;
const char* ClassName(StmtClass cls);

/// splitmix64 finalizer.
uint64_t Mix64(uint64_t x);

/// Independent streams of one run: each client draws from its own.
enum StreamId : uint64_t {
  kReaderStream = 0,
  kWriterStream = 1,
  kEltStream = 2,
  kSampleStream = 3,  ///< which statements are kept for result checks
};

/// Seed of stream `client` in a run seeded `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t client);

/// Small deterministic PRNG over Mix64 (identical on every platform, unlike
/// the standard distributions).
class StreamRng {
 public:
  explicit StreamRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_ += 0x9E3779B97F4A7C15ULL); }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo +
           static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// -- tables ------------------------------------------------------------------

idaa::Schema OrdersSchema();
idaa::Schema CustomersSchema();
/// DDL for the DB2 `orders` table, hash-distributed on id when sharded.
std::string OrdersDdl(bool distribute_by_id);
std::string CustomersDdl();

/// Row `id` of `orders` (id, cust, amount, region, qty).
idaa::Row OrderRow(uint64_t seed, int64_t id, int64_t customers);
/// Row `cid` of `customers` (cid, tier, score).
idaa::Row CustomerRow(uint64_t seed, int64_t cid);

// -- read clients (offload, htap reader) --------------------------------------

struct ReadStmt {
  StmtClass cls = StmtClass::kScan;
  std::string sql;
  bool round_end = false;  ///< last statement of a dashboard round
};

/// Dashboard rounds: every round issues one statement of each of `classes`
/// in a seeded order, with seeded literals. `report` statements come from a
/// small fixed set and repeat with identical text.
class ReadStream {
 public:
  ReadStream(uint64_t stream_seed, int64_t orders, int64_t customers,
             std::vector<StmtClass> classes);
  ReadStmt Next();

 private:
  std::string Make(StmtClass cls);

  StreamRng rng_;
  int64_t orders_;
  int64_t customers_;
  std::vector<StmtClass> classes_;
  std::vector<StmtClass> round_;
  size_t pos_ = 0;
};

// -- order entry (htap writer) ------------------------------------------------

struct OrderTxn {
  std::string insert_sql;
  std::string update_sql;
};

/// Order-entry transactions: insert a new order (ids above the initial
/// table), then re-price an existing order picked uniformly.
class OrderEntryStream {
 public:
  OrderEntryStream(uint64_t stream_seed, int64_t orders, int64_t customers);
  OrderTxn Next();

 private:
  StreamRng rng_;
  uint64_t row_seed_;
  int64_t orders_;
  int64_t customers_;
  int64_t next_id_;
};

// -- ELT pipeline -------------------------------------------------------------

/// One ELT iteration: the same statements every iteration of a run.
struct EltPlan {
  /// DROP + CREATE of the raw and stage AOTs (set-up creates them once, so
  /// every iteration starts by dropping them).
  std::vector<std::string> drop_sql;
  std::vector<std::string> create_sql;
  std::string load_table;  ///< AOT the loader fills
  std::vector<std::string> stage_sql;  ///< AOT -> AOT INSERT ... SELECT
  /// CALL IDAA.<op> statements with the operator name.
  std::vector<std::pair<std::string, std::string>> analytics_sql;
};
EltPlan MakeEltPlan(uint64_t seed);
idaa::Schema RawSchema();
/// Row `i` of the ELT input (id, cust, amount, qty, channel).
idaa::Row RawRow(uint64_t seed, int64_t i, int64_t customers);

}  // namespace perfbench
