// Property tests over randomized workloads:
//  1. Replication convergence: after any committed DML stream + flush, the
//     accelerator replica holds exactly the same multiset of rows as DB2.
//  2. Groom invariance: grooming never changes visible query results.
//  3. Rollback invariance: an aborted transaction leaves both engines
//     exactly as they were.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <regex>
#include <string>
#include <thread>

#include "accel/sharded_accelerator.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "idaa/system.h"

namespace idaa {
namespace {

/// Sorted row renderings; doubles at `digits` significant digits (17 is
/// exact: every double renders distinctly).
std::vector<std::string> CanonicalRows(const ResultSet& rs, int digits = 9) {
  std::vector<std::string> lines;
  for (const Row& row : rs.rows()) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_double() ? StrFormat("%.*g", digits, v.AsDouble())
                            : v.ToString();
      line += "|";
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

class ConvergenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvergenceFuzz, ReplicaMatchesDb2AfterRandomDml) {
  SystemOptions options;
  options.replication_batch_size = 0;
  IdaaSystem system(options);
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE t (id INT NOT NULL, grp INT, "
                              "v DOUBLE)")
                  .ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('t')").ok());

  Rng rng(GetParam());
  int next_id = 0;
  for (int op = 0; op < 120; ++op) {
    int kind = static_cast<int>(rng.Uniform(0, 9));
    std::string sql;
    if (kind <= 4 || next_id == 0) {
      // Insert (biased; duplicates in grp/v are intentional).
      sql = StrFormat("INSERT INTO t VALUES (%d, %d, %d.5)", next_id++,
                      static_cast<int>(rng.Uniform(0, 4)),
                      static_cast<int>(rng.Uniform(0, 3)));
    } else if (kind <= 6) {
      sql = StrFormat("UPDATE t SET v = v + 1 WHERE grp = %d",
                      static_cast<int>(rng.Uniform(0, 4)));
    } else if (kind == 7) {
      sql = StrFormat("DELETE FROM t WHERE id %% 7 = %d",
                      static_cast<int>(rng.Uniform(0, 6)));
    } else {
      // Periodic flush mid-stream.
      ASSERT_TRUE(system.replication().Flush().ok());
      continue;
    }
    auto r = system.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  auto flushed = system.replication().Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed->misses, 0u);

  system.SetAccelerationMode(federation::AccelerationMode::kNone);
  auto db2 = system.Query("SELECT id, grp, v FROM t");
  ASSERT_TRUE(db2.ok());
  system.SetAccelerationMode(federation::AccelerationMode::kEligible);
  auto accel = system.Query("SELECT id, grp, v FROM t");
  ASSERT_TRUE(accel.ok());
  EXPECT_EQ(CanonicalRows(*db2), CanonicalRows(*accel))
      << "seed " << GetParam();
}

// Differential harness: on a randomized schema with NULL-riddled data, the
// accelerator's vectorized batch engine and DB2 must return identical
// results for randomized predicate / aggregation / DISTINCT queries.
TEST_P(ConvergenceFuzz, BatchAndRowPathsAgreeOnRandomSchemas) {
  Rng rng(GetParam() + 5000);
  SystemOptions options;
  options.accelerator.num_slices = 1 + GetParam() % 4;
  options.accelerator.zone_size = 16;
  options.accelerator.morsel_size = 16 + 16 * (GetParam() % 3);
  IdaaSystem system(options);

  // Random schema: id plus 2–4 columns drawn from INT / DOUBLE / VARCHAR.
  static const char* kTypes[] = {"INT", "DOUBLE", "VARCHAR"};
  int num_cols = 2 + static_cast<int>(rng.Uniform(0, 2));
  std::vector<int> col_type(num_cols);
  std::string ddl = "CREATE TABLE f (id INT NOT NULL";
  for (int c = 0; c < num_cols; ++c) {
    col_type[c] = static_cast<int>(rng.Uniform(0, 2));
    ddl += StrFormat(", c%d %s", c, kTypes[col_type[c]]);
  }
  ddl += ")";
  ASSERT_TRUE(system.Execute(ddl).ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('f')").ok());

  static const char* kWords[] = {"ALPHA", "BETA", "GAMMA", "DELTA", "OMEGA"};
  for (int i = 0; i < 150; ++i) {
    std::string insert = StrFormat("INSERT INTO f VALUES (%d", i);
    for (int c = 0; c < num_cols; ++c) {
      insert += ", ";
      if (rng.Bernoulli(0.15)) {
        insert += "NULL";
      } else if (col_type[c] == 0) {
        insert += StrFormat("%d", static_cast<int>(rng.Uniform(0, 50)) - 10);
      } else if (col_type[c] == 1) {
        insert += StrFormat("%d.25", static_cast<int>(rng.Uniform(0, 400)));
      } else {
        insert += StrFormat("'%s'", kWords[rng.Uniform(0, 4)]);
      }
    }
    insert += ")";
    ASSERT_TRUE(system.Execute(insert).ok());
  }
  ASSERT_TRUE(system.replication().Flush().ok());

  auto random_predicate = [&]() {
    std::string pred;
    int conjuncts = 1 + static_cast<int>(rng.Uniform(0, 1));
    static const char* kOps[] = {"<", "<=", ">", ">=", "=", "<>"};
    for (int k = 0; k < conjuncts; ++k) {
      if (k > 0) pred += " AND ";
      int c = static_cast<int>(rng.Uniform(0, num_cols - 1));
      const char* op = kOps[rng.Uniform(0, 5)];
      if (col_type[c] == 2) {
        // Sometimes a literal no slice dictionary contains.
        const char* lit =
            rng.Bernoulli(0.2) ? "ZZZ_MISSING" : kWords[rng.Uniform(0, 4)];
        pred += StrFormat("c%d %s '%s'", c, op, lit);
      } else if (rng.Bernoulli(0.3)) {
        // Cross-type: int column vs double literal and vice versa.
        pred += StrFormat("c%d %s %d.5", c,
                          op, static_cast<int>(rng.Uniform(0, 60)) - 10);
      } else {
        pred += StrFormat("c%d %s %d", c, op,
                          static_cast<int>(rng.Uniform(0, 300)) - 10);
      }
    }
    return pred;
  };

  std::vector<std::string> queries;
  for (int q = 0; q < 12; ++q) {
    queries.push_back("SELECT * FROM f WHERE " + random_predicate());
  }
  for (int q = 0; q < 6; ++q) {
    int c = static_cast<int>(rng.Uniform(0, num_cols - 1));
    int g = static_cast<int>(rng.Uniform(0, num_cols - 1));
    const char* agg = col_type[c] == 2 ? "MIN" : "SUM";
    queries.push_back(StrFormat(
        "SELECT c%d, COUNT(*), COUNT(c%d), %s(c%d) FROM f WHERE %s "
        "GROUP BY c%d",
        g, c, agg, c, random_predicate().c_str(), g));
  }
  for (int c = 0; c < num_cols; ++c) {
    queries.push_back(StrFormat("SELECT DISTINCT c%d FROM f", c));
    queries.push_back(
        StrFormat("SELECT COUNT(*) FROM f WHERE c%d IS NULL", c));
  }

  for (const std::string& sql : queries) {
    system.SetAccelerationMode(federation::AccelerationMode::kNone);
    auto db2 = system.Query(sql);
    ASSERT_TRUE(db2.ok()) << sql << ": " << db2.status().ToString();
    system.SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto batch = system.Query(sql);
    ASSERT_TRUE(batch.ok()) << sql << ": " << batch.status().ToString();
    EXPECT_EQ(CanonicalRows(*db2), CanonicalRows(*batch))
        << "seed " << GetParam() << ": " << sql;
  }
}

// Mid-transaction reads on an accelerator-only table: own uncommitted
// inserts/deletes must be visible on the accelerator exactly as DB2 shows
// them on a DB2 twin table that receives the same statements in the same
// transaction.
TEST_P(ConvergenceFuzz, UncommittedWritesAgreeOnBothPaths) {
  SystemOptions options;
  options.accelerator.num_slices = 2;
  options.accelerator.zone_size = 16;
  options.accelerator.morsel_size = 32;
  IdaaSystem system(options);
  const std::regex kTable("\\bu\\b");
  auto twin = [&kTable](const std::string& sql) {
    return std::regex_replace(sql, kTable, "u_db2");
  };
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE u (id INT NOT NULL, v INT, "
                              "w VARCHAR) IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE u_db2 (id INT NOT NULL, v INT, "
                           "w VARCHAR)")
                  .ok());
  Rng rng(GetParam() + 9000);
  static const char* kWords[] = {"A", "B", "C"};
  int next_id = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string sql =
        StrFormat("INSERT INTO u VALUES (%d, %d, '%s')", next_id++,
                  (int)rng.Uniform(0, 9), kWords[rng.Uniform(0, 2)]);
    ASSERT_TRUE(system.Execute(sql).ok()) << sql;
    ASSERT_TRUE(system.Execute(twin(sql)).ok()) << twin(sql);
  }
  ASSERT_TRUE(system.Begin().ok());
  for (int op = 0; op < 12; ++op) {
    std::string sql;
    if (rng.Bernoulli(0.5)) {
      sql = StrFormat("INSERT INTO u VALUES (%d, %d, '%s')", next_id++,
                      (int)rng.Uniform(0, 9), kWords[rng.Uniform(0, 2)]);
    } else if (rng.Bernoulli(0.5)) {
      sql = StrFormat("DELETE FROM u WHERE id %% 5 = %d",
                      (int)rng.Uniform(0, 4));
    } else {
      sql = StrFormat("UPDATE u SET v = v + 10 WHERE v = %d",
                      (int)rng.Uniform(0, 9));
    }
    ASSERT_TRUE(system.Execute(sql).ok()) << sql;
    ASSERT_TRUE(system.Execute(twin(sql)).ok()) << twin(sql);

    // Compare mid-transaction on every mutation.
    for (const char* probe :
         {"SELECT id, v, w FROM u WHERE v >= 3",
          "SELECT w, COUNT(*), SUM(v) FROM u GROUP BY w",
          "SELECT COUNT(*) FROM u"}) {
      auto batch = system.Query(probe);
      ASSERT_TRUE(batch.ok()) << probe;
      auto db2 = system.Query(twin(probe));
      ASSERT_TRUE(db2.ok()) << twin(probe);
      EXPECT_EQ(CanonicalRows(*db2), CanonicalRows(*batch))
          << "seed " << GetParam() << " op " << op << ": " << probe;
    }
  }
  ASSERT_TRUE(system.Rollback().ok());
}

TEST_P(ConvergenceFuzz, GroomNeverChangesVisibleResults) {
  IdaaSystem system;
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE g (id INT NOT NULL, v INT) "
                              "IN ACCELERATOR")
                  .ok());
  Rng rng(GetParam() + 1000);
  int next_id = 0;
  for (int op = 0; op < 80; ++op) {
    if (rng.Bernoulli(0.6) || next_id == 0) {
      ASSERT_TRUE(system
                      .Execute(StrFormat("INSERT INTO g VALUES (%d, %d)",
                                            next_id++,
                                            (int)rng.Uniform(0, 9)))
                      .ok());
    } else if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(system
                      .Execute(StrFormat(
                          "UPDATE g SET v = v * 2 WHERE id %% 5 = %d",
                          (int)rng.Uniform(0, 4)))
                      .ok());
    } else {
      ASSERT_TRUE(system
                      .Execute(StrFormat("DELETE FROM g WHERE v = %d",
                                            (int)rng.Uniform(0, 9)))
                      .ok());
    }
  }
  auto before = system.Query("SELECT id, v FROM g");
  ASSERT_TRUE(before.ok());
  size_t versions_before =
      (*system.accelerator().GetTable("g"))->NumVersions();
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_GROOM()").ok());
  auto after = system.Query("SELECT id, v FROM g");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(CanonicalRows(*before), CanonicalRows(*after))
      << "seed " << GetParam();
  size_t versions_after = (*system.accelerator().GetTable("g"))->NumVersions();
  EXPECT_LE(versions_after, versions_before);
  EXPECT_EQ(versions_after, after->NumRows());  // only live versions remain
}

// Analytics-pipeline arm: a randomized data-prep -> mining pipeline over a
// stable AOT input runs on the morsel-parallel batch path while (a) the
// fault injector fails 10% of accelerator/channel crossings with retryable
// errors and (b) a concurrent writer keeps replication busy on another
// table. Invariants: no CALL ever fails terminally (transient faults are
// absorbed by retrying the idempotent operator), and the final summaries
// and every produced table are bit-identical to a clean reference system
// (same fits, no faults, no load).
TEST_P(ConvergenceFuzz, AnalyticsPipelineMatchesSerialUnderFaults) {
  Rng rng(GetParam() + 7000);

  // Deterministic input rows, rendered once so both systems load byte-for-
  // byte identical data.
  static const char* kWords[] = {"RED", "GREEN", "BLUE"};
  std::vector<std::string> row_literals;
  {
    Rng data(GetParam() * 31 + 7);
    for (int i = 0; i < 240; ++i) {
      std::string a = data.Bernoulli(0.1)
                          ? "NULL"
                          : StrFormat("%d.25", (int)data.Uniform(0, 100));
      std::string c = data.Bernoulli(0.1)
                          ? "NULL"
                          : StrFormat("'%s'", kWords[data.Uniform(0, 2)]);
      row_literals.push_back(StrFormat("(%d, %s, %d.5, %s)", i, a.c_str(),
                                       (int)data.Uniform(0, 50), c.c_str()));
    }
  }

  // One randomized pipeline, shared verbatim by both systems: 1-2 prep
  // stages chained, then a mining operator.
  std::vector<std::string> calls;
  std::vector<std::string> tables;  // produced AOTs to diff at the end
  std::string current = "af";
  int preps = 1 + (int)rng.Uniform(0, 1);
  for (int s = 0; s < preps; ++s) {
    std::string out = StrFormat("p%d", s + 1);
    switch (rng.Uniform(0, 3)) {
      case 0:
        calls.push_back(StrFormat(
            "CALL IDAA.NORMALIZE('input=%s', 'output=%s', 'columns=a,b'%s)",
            current.c_str(), out.c_str(),
            rng.Bernoulli(0.5) ? ", 'method=minmax'" : ""));
        break;
      case 1:
        calls.push_back(StrFormat(
            "CALL IDAA.DISCRETIZE('input=%s', 'output=%s', 'column=a', "
            "'bins=%d')",
            current.c_str(), out.c_str(), 3 + (int)rng.Uniform(0, 4)));
        break;
      case 2:
        calls.push_back(StrFormat(
            "CALL IDAA.IMPUTE('input=%s', 'output=%s', 'columns=a,c')",
            current.c_str(), out.c_str()));
        break;
      default:
        calls.push_back(StrFormat(
            "CALL IDAA.SAMPLE('input=%s', 'output=%s', 'fraction=0.6', "
            "'seed=%d')",
            current.c_str(), out.c_str(), (int)(GetParam() + 3)));
    }
    tables.push_back(out);
    current = out;
  }
  switch (rng.Uniform(0, 3)) {
    case 0:
      calls.push_back(StrFormat(
          "CALL IDAA.KMEANS('input=%s', 'output=model', 'columns=a,b', "
          "'k=3', 'seed=%d')",
          current.c_str(), (int)GetParam()));
      break;
    case 1:
      calls.push_back(StrFormat(
          "CALL IDAA.LINREG('input=%s', 'target=b', 'columns=a', "
          "'output=model')",
          current.c_str()));
      break;
    case 2:
      calls.push_back(StrFormat(
          "CALL IDAA.NAIVEBAYES('input=%s', 'label=c', 'columns=a,b', "
          "'output=model')",
          current.c_str()));
      break;
    default:
      calls.push_back(StrFormat(
          "CALL IDAA.DECISIONTREE('input=%s', 'label=c', 'columns=a,b', "
          "'max_depth=3', 'output=model')",
          current.c_str()));
  }
  tables.push_back("model");

  auto setup = [&row_literals](IdaaSystem& system) {
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE af (id INT NOT NULL, a DOUBLE, "
                                "b DOUBLE, c VARCHAR) IN ACCELERATOR")
                    .ok());
    for (size_t i = 0; i < row_literals.size(); i += 40) {
      std::string insert = "INSERT INTO af VALUES ";
      for (size_t j = i; j < std::min(i + 40, row_literals.size()); ++j) {
        if (j > i) insert += ", ";
        insert += row_literals[j];
      }
      ASSERT_TRUE(system.Execute(insert).ok()) << insert;
    }
  };

  // Clean reference: the same fits, no faults, no load.
  IdaaSystem reference;
  setup(reference);
  std::vector<std::string> ref_summaries;
  for (const std::string& call : calls) {
    auto rs = reference.Query(call);
    ASSERT_TRUE(rs.ok()) << call << ": " << rs.status().ToString();
    for (const std::string& line : CanonicalRows(*rs, 17)) {
      ref_summaries.push_back(line);
    }
  }

  // System under test: 10% faults, busy replication.
  SystemOptions options;
  options.replication_batch_size = 16;
  IdaaSystem faulty(options);
  setup(faulty);
  ASSERT_TRUE(
      faulty.Execute("CREATE TABLE noise (id INT NOT NULL, v INT)").ok());
  ASSERT_TRUE(
      faulty.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('noise')").ok());
  FaultSpec spec;
  spec.probability = 0.1;
  faulty.fault_injector().ArmChannel(spec);
  faulty.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"), spec);

  std::atomic<bool> stop{false};
  std::thread writer([&faulty, &stop] {
    auto conn = faulty.NewConnection();
    int id = 0;
    while (!stop.load()) {
      auto r = conn->Execute(
          StrFormat("INSERT INTO noise VALUES (%d, %d)", id, id % 7));
      if (!r.ok()) {
        ASSERT_TRUE(r.status().retryable() ||
                    r.status().code() == StatusCode::kConflict)
            << r.status().ToString();
      }
      ++id;
      auto flushed = faulty.replication().Flush();
      if (!flushed.ok()) {
        ASSERT_TRUE(flushed.status().retryable())
            << flushed.status().ToString();
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::string> got_summaries;
  for (const std::string& call : calls) {
    bool done = false;
    for (int attempt = 0; attempt < 200 && !done; ++attempt) {
      auto rs = faulty.Query(call);
      if (rs.ok()) {
        for (const std::string& line : CanonicalRows(*rs, 17)) {
          got_summaries.push_back(line);
        }
        done = true;
      } else {
        ASSERT_TRUE(rs.status().retryable() ||
                    rs.status().code() == StatusCode::kConflict)
            << "user-visible terminal error from " << call << ": "
            << rs.status().ToString();
        std::this_thread::yield();
      }
    }
    ASSERT_TRUE(done) << "retries exhausted for " << call;
  }
  stop.store(true);
  writer.join();
  faulty.fault_injector().Reset();

  EXPECT_EQ(got_summaries, ref_summaries) << "seed " << GetParam();
  for (const std::string& table : tables) {
    auto got = faulty.Query("SELECT * FROM " + table);
    auto want = reference.Query("SELECT * FROM " + table);
    ASSERT_TRUE(got.ok()) << table << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << table << ": " << want.status().ToString();
    EXPECT_EQ(CanonicalRows(*got, 17), CanonicalRows(*want, 17))
        << "seed " << GetParam() << " table " << table;
  }
}

// Loader arm: a randomized CSV document (quoting, embedded delimiters and
// newlines, NULLs vs quoted empties, scattered type errors) is loaded twice
// — direct-to-AOT over the columnar wire, and via DB2 + replication — with
// 10% of channel/accelerator crossings failing retryably. Invariants: both
// loads absorb the faults via retry/backoff, reject exactly the same
// records, and converge to identical visible contents (and the via-DB2
// replica matches DB2 row for row).
TEST_P(ConvergenceFuzz, LoaderDirectAndViaDb2ConvergeUnderFaults) {
  Rng rng(GetParam() + 11000);
  static const char* kWords[] = {"alpha", "beta,comma", "line\nbreak",
                                 "quote\"inside", "plain", "x,y\nz"};

  // Random CSV body. Record shapes are chosen per field; ~7% of records
  // carry a type error or NOT NULL violation and must be rejected by BOTH
  // load paths at the same record index.
  std::ostringstream body;
  const int num_records = 250 + (int)rng.Uniform(0, 100);
  for (int i = 0; i < num_records; ++i) {
    // id INT NOT NULL: occasionally malformed or missing.
    if (rng.Bernoulli(0.03)) {
      body << (rng.Bernoulli(0.5) ? "notanint" : "");
    } else {
      body << i;
    }
    body << ",";
    // s VARCHAR: plain / quoted with delimiter / embedded newline /
    // doubled quote / unquoted empty (NULL) / quoted empty ("").
    if (rng.Bernoulli(0.15)) {
      body << (rng.Bernoulli(0.5) ? "" : "\"\"");
    } else {
      const std::string word = kWords[rng.Uniform(0, 5)];
      bool needs_quote = word.find(',') != std::string::npos ||
                         word.find('\n') != std::string::npos ||
                         word.find('"') != std::string::npos;
      if (needs_quote) {
        body << '"';
        for (char c : word) {
          body << c;
          if (c == '"') body << '"';
        }
        body << '"';
      } else {
        body << word;
      }
    }
    body << ",";
    // v DOUBLE: numeric, NULL, or malformed.
    if (rng.Bernoulli(0.04)) {
      body << "oops";
    } else if (rng.Bernoulli(0.1)) {
      // NULL
    } else {
      body << StrFormat("%d.%d", (int)rng.Uniform(0, 500),
                        (int)rng.Uniform(0, 9));
    }
    body << (rng.Bernoulli(0.2) ? "\r\n" : "\n");
  }
  const std::string csv = body.str();
  Schema schema({{"ID", DataType::kInteger, false},
                 {"S", DataType::kVarchar, true},
                 {"V", DataType::kDouble, true}});

  SystemOptions options;
  options.replication_batch_size = 0;
  IdaaSystem system(options);
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE direct_t (id INT NOT NULL, "
                              "s VARCHAR, v DOUBLE) IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE via_t (id INT NOT NULL, "
                              "s VARCHAR, v DOUBLE)")
                  .ok());
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('via_t')").ok());

  // 10% of every boundary crossing fails with a retryable fault.
  FaultSpec spec;
  spec.probability = 0.1;
  system.fault_injector().ArmChannel(spec);
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"), spec);

  loader::LoadOptions lo;
  lo.max_rejects = loader::kUnlimitedRejects;
  lo.retry.max_attempts = 10;  // absorb p=0.1 faults with certainty
  lo.retry.initial_backoff_us = 20;

  lo.num_workers = 1 + rng.Uniform(0, 7);
  lo.batch_size = 16 + (size_t)rng.Uniform(0, 64);
  loader::CsvStringSource direct_source(csv, schema);
  auto direct = system.loader().Load("direct_t", &direct_source, lo);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE(direct->columnar);

  lo.num_workers = 1 + rng.Uniform(0, 7);
  lo.batch_size = 16 + (size_t)rng.Uniform(0, 64);
  loader::CsvStringSource via_source(csv, schema);
  auto via = system.loader().Load("via_t", &via_source, lo);
  ASSERT_TRUE(via.ok()) << via.status().ToString();

  // Replication to the via_t replica, retrying through injected faults.
  bool flushed = false;
  for (int attempt = 0; attempt < 200 && !flushed; ++attempt) {
    auto r = system.replication().Flush();
    if (r.ok()) {
      flushed = r->misses == 0;
    } else {
      ASSERT_TRUE(r.status().retryable()) << r.status().ToString();
    }
  }
  ASSERT_TRUE(flushed);
  system.fault_injector().Reset();

  // Rejects accounted identically: same count, same record indices.
  EXPECT_EQ(direct->rows_rejected, via->rows_rejected) << "seed " << GetParam();
  EXPECT_EQ(direct->rows_loaded, via->rows_loaded);
  ASSERT_EQ(direct->reject_samples.size(), via->reject_samples.size());
  for (size_t i = 0; i < direct->reject_samples.size(); ++i) {
    EXPECT_EQ(direct->reject_samples[i].record_index,
              via->reject_samples[i].record_index);
    EXPECT_EQ(direct->reject_samples[i].raw, via->reject_samples[i].raw);
  }

  // Visible contents converge: AOT == DB2 rows == replica rows.
  auto aot = system.Query("SELECT id, s, v FROM direct_t");
  ASSERT_TRUE(aot.ok()) << aot.status().ToString();
  system.SetAccelerationMode(federation::AccelerationMode::kNone);
  auto db2 = system.Query("SELECT id, s, v FROM via_t");
  ASSERT_TRUE(db2.ok());
  system.SetAccelerationMode(federation::AccelerationMode::kEligible);
  auto replica = system.Query("SELECT id, s, v FROM via_t");
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(CanonicalRows(*aot), CanonicalRows(*db2)) << "seed " << GetParam();
  EXPECT_EQ(CanonicalRows(*db2), CanonicalRows(*replica))
      << "seed " << GetParam();
  EXPECT_EQ(aot->NumRows(), direct->rows_loaded);
}

TEST_P(ConvergenceFuzz, RollbackRestoresBothEngines) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE r1 (id INT NOT NULL, v INT)")
                  .ok());
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE r2 (id INT NOT NULL, v INT) "
                              "IN ACCELERATOR")
                  .ok());
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(system
                    .Execute(StrFormat("INSERT INTO r1 VALUES (%d, %d)", i,
                                          (int)rng.Uniform(0, 9)))
                    .ok());
    ASSERT_TRUE(system
                    .Execute(StrFormat("INSERT INTO r2 VALUES (%d, %d)", i,
                                          (int)rng.Uniform(0, 9)))
                    .ok());
  }
  auto before_db2 = system.Query("SELECT * FROM r1");
  auto before_aot = system.Query("SELECT * FROM r2");

  ASSERT_TRUE(system.Begin().ok());
  for (int op = 0; op < 15; ++op) {
    const char* table = rng.Bernoulli(0.5) ? "r1" : "r2";
    std::string sql;
    switch (rng.Uniform(0, 2)) {
      case 0:
        sql = StrFormat("INSERT INTO %s VALUES (%d, 0)", table, 100 + op);
        break;
      case 1:
        sql = StrFormat("UPDATE %s SET v = -1 WHERE id %% 3 = %d", table,
                        (int)rng.Uniform(0, 2));
        break;
      default:
        sql = StrFormat("DELETE FROM %s WHERE id %% 4 = %d", table,
                        (int)rng.Uniform(0, 3));
    }
    auto r = system.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  ASSERT_TRUE(system.Rollback().ok());

  auto after_db2 = system.Query("SELECT * FROM r1");
  auto after_aot = system.Query("SELECT * FROM r2");
  EXPECT_EQ(CanonicalRows(*before_db2), CanonicalRows(*after_db2))
      << "seed " << GetParam();
  EXPECT_EQ(CanonicalRows(*before_aot), CanonicalRows(*after_aot))
      << "seed " << GetParam();
}

// Join arm: randomized star-join pipelines over replicated tables while 10%
// of accelerator/channel crossings fail with retryable faults and a writer
// keeps replication busy. For every query shape (inner / left-outer / cross,
// INT and dictionary-coded VARCHAR keys, residual non-equi conjuncts,
// GROUP BY through the join) the accelerator's join and the DB2 reference
// must return identical rows; transient faults may only delay
// an answer, never change it.
TEST_P(ConvergenceFuzz, JoinPipelinesAgreeUnderFaults) {
  Rng rng(GetParam() + 9000);
  SystemOptions options;
  options.accelerator.num_slices = 1 + GetParam() % 3;
  options.accelerator.zone_size = 16;
  options.accelerator.morsel_size = 32;
  IdaaSystem system(options);

  ASSERT_TRUE(system
                  .Execute("CREATE TABLE jf (id INT NOT NULL, ik INT, "
                              "vk VARCHAR, m INT, w DOUBLE)")
                  .ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE jd1 (ik INT, tag VARCHAR, boost INT)")
          .ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE jd2 (vk VARCHAR, score INT)").ok());

  static const char* kKeys[] = {"RED", "GREEN", "BLUE", "CYAN", "PINK"};
  for (int i = 0; i < 120; ++i) {
    std::string ik = rng.Bernoulli(0.15)
                         ? "NULL"
                         : StrFormat("%d", (int)rng.Uniform(0, 12));
    std::string vk = rng.Bernoulli(0.15)
                         ? "NULL"
                         : StrFormat("'%s'", kKeys[rng.Uniform(0, 4)]);
    auto r = system.Execute(
        StrFormat("INSERT INTO jf VALUES (%d, %s, %s, %d, %d.25)", i,
                  ik.c_str(), vk.c_str(), (int)rng.Uniform(0, 9),
                  (int)rng.Uniform(0, 100)));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Duplicate-heavy dimension keys, a NULL key, and keys matching nothing.
  for (int k = 0; k < 15; ++k) {
    auto r = system.Execute(
        StrFormat("INSERT INTO jd1 VALUES (%d, '%s', %d)",
                  (int)rng.Uniform(0, 9), kKeys[rng.Uniform(0, 4)],
                  (int)rng.Uniform(0, 5)));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(system.Execute("INSERT INTO jd1 VALUES (NULL, 'VOID', 9), "
                                "(99, 'LONELY', 9)")
                  .ok());
  for (const char* k : kKeys) {
    auto r = system.Execute(StrFormat("INSERT INTO jd2 VALUES ('%s', %d)",
                                         k, (int)rng.Uniform(0, 50)));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(
      system.Execute("INSERT INTO jd2 VALUES (NULL, -1), ('MAUVE', -2)")
          .ok());
  for (const char* t : {"jf", "jd1", "jd2"}) {
    ASSERT_TRUE(
        system.Execute(StrFormat("CALL SYSPROC.ACCEL_ADD_TABLES('%s')", t))
            .ok());
  }
  ASSERT_TRUE(system.replication().Flush().ok());

  // Random join pipelines. The joined tables stay static, so answers are
  // deterministic even while the writer below churns another table.
  std::vector<std::string> queries;
  for (int q = 0; q < 10; ++q) {
    const bool int_key = rng.Bernoulli(0.5);
    const char* join = rng.Bernoulli(0.3) ? "LEFT JOIN" : "JOIN";
    std::string on = int_key ? "f.ik = d.ik" : "f.vk = d.vk";
    const char* dim = int_key ? "jd1" : "jd2";
    if (rng.Bernoulli(0.3)) {
      on += StrFormat(" AND f.m > %d", (int)rng.Uniform(0, 5));
    }
    std::string sql;
    if (rng.Bernoulli(0.4)) {
      const char* val = int_key ? "d.tag" : "d.score";
      sql = StrFormat(
          "SELECT %s, COUNT(*), SUM(f.m) FROM jf f %s %s d ON %s GROUP BY %s",
          val, join, dim, on.c_str(), val);
    } else {
      const char* proj = int_key ? "d.boost" : "d.score";
      sql = StrFormat("SELECT f.id, %s FROM jf f %s %s d ON %s", proj, join,
                      dim, on.c_str());
      if (rng.Bernoulli(0.4)) {
        sql += StrFormat(" WHERE f.m <= %d", (int)rng.Uniform(2, 7));
      }
    }
    queries.push_back(std::move(sql));
  }
  queries.push_back("SELECT COUNT(*) FROM jf f CROSS JOIN jd2 d");

  // 10% of boundary crossings fail; a writer keeps replication busy on an
  // unrelated table throughout.
  ASSERT_TRUE(
      system.Execute("CREATE TABLE jnoise (id INT NOT NULL, v INT)").ok());
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('jnoise')").ok());
  FaultSpec spec;
  spec.probability = 0.1;
  system.fault_injector().ArmChannel(spec);
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"), spec);
  std::atomic<bool> stop{false};
  std::thread writer([&system, &stop] {
    auto conn = system.NewConnection();
    int n = 0;
    while (!stop.load()) {
      (void)conn->Execute(
          StrFormat("INSERT INTO jnoise VALUES (%d, %d)", n, n % 5));
      ++n;
      (void)system.replication().Flush();
      std::this_thread::yield();
    }
  });

  auto query_with_retry = [&](const std::string& sql) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto rs = system.Query(sql);
      if (rs.ok()) return CanonicalRows(*rs);
      EXPECT_TRUE(rs.status().retryable() ||
                  rs.status().code() == StatusCode::kConflict)
          << "terminal error from " << sql << ": " << rs.status().ToString();
      std::this_thread::yield();
    }
    ADD_FAILURE() << "retries exhausted for " << sql;
    return std::vector<std::string>();
  };

  for (const std::string& sql : queries) {
    system.SetAccelerationMode(federation::AccelerationMode::kNone);
    auto db2 = query_with_retry(sql);
    system.SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto batch = query_with_retry(sql);
    EXPECT_EQ(db2, batch) << "seed " << GetParam() << ": " << sql;
  }
  stop.store(true);
  writer.join();
  system.fault_injector().Reset();
}

// Shard arm: a randomized stream of DML, DDL, GROOM and online AddShard
// rebalances runs against a hash-partitioned N-shard accelerator while 10%
// of channel and per-shard accelerator crossings fail retryably. The same
// statement stream applied to a clean serial 1-shard reference must
// converge to identical visible contents on every table — faults and
// topology changes may delay convergence, never corrupt it.
TEST_P(ConvergenceFuzz, ShardedReplicaConvergesUnderFaultsAndRebalance) {
  Rng rng(GetParam() + 13000);
  const size_t num_shards = 2 + GetParam() % 3;

  SystemOptions ref_options;
  ref_options.replication_batch_size = 0;
  IdaaSystem reference(ref_options);

  SystemOptions options;
  options.replication_batch_size = 8;
  options.accelerator_shards = num_shards;
  IdaaSystem sharded(options);
  auto* shard_accel =
      dynamic_cast<accel::ShardedAccelerator*>(&sharded.accelerator());
  ASSERT_NE(shard_accel, nullptr);

  // Runs one statement on both systems: the serial reference must accept
  // it outright; the faulty sharded system may need retries.
  auto both = [&](const std::string& sql) {
    auto ref = reference.Execute(sql);
    ASSERT_TRUE(ref.ok()) << sql << ": " << ref.status().ToString();
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto got = sharded.Execute(sql);
      if (got.ok()) return;
      ASSERT_TRUE(got.status().retryable() ||
                  got.status().code() == StatusCode::kConflict)
          << "terminal error from " << sql << ": " << got.status().ToString();
      std::this_thread::yield();
    }
    FAIL() << "retries exhausted for " << sql;
  };

  both("CREATE TABLE st (id INT NOT NULL, grp INT, v DOUBLE) "
       "DISTRIBUTE BY (grp)");
  both("CALL SYSPROC.ACCEL_ADD_TABLES('st')");

  FaultSpec spec;
  spec.probability = 0.1;
  sharded.fault_injector().ArmChannel(spec);
  // Shards are independent failure domains: arm every per-shard site (and
  // a few extra indices so shards added mid-run fault too).
  for (size_t i = 0; i < num_shards + 3; ++i) {
    sharded.fault_injector().Arm(
        FaultInjector::AcceleratorSite(StrFormat("ACCEL1#%zu", i)), spec);
  }

  int next_id = 0;
  bool made_second_table = false;
  for (int op = 0; op < 100; ++op) {
    int kind = static_cast<int>(rng.Uniform(0, 11));
    if (kind <= 4 || next_id == 0) {
      both(StrFormat("INSERT INTO st VALUES (%d, %d, %d.25)", next_id++,
                     static_cast<int>(rng.Uniform(0, 6)),
                     static_cast<int>(rng.Uniform(0, 40))));
    } else if (kind == 5) {
      // Distribution-key update: replication reroutes the row to its new
      // home shard (delete at the old hash, reinsert at the new one).
      both(StrFormat("UPDATE st SET grp = %d WHERE id %% 5 = %d",
                     static_cast<int>(rng.Uniform(0, 6)),
                     static_cast<int>(rng.Uniform(0, 4))));
    } else if (kind == 6) {
      both(StrFormat("UPDATE st SET v = v + 1 WHERE grp = %d",
                     static_cast<int>(rng.Uniform(0, 6))));
    } else if (kind == 7) {
      both(StrFormat("DELETE FROM st WHERE id %% 7 = %d",
                     static_cast<int>(rng.Uniform(0, 6))));
    } else if (kind == 8) {
      for (int attempt = 0; attempt < 200; ++attempt) {
        auto flushed = sharded.replication().Flush();
        if (flushed.ok()) break;
        ASSERT_TRUE(flushed.status().retryable())
            << flushed.status().ToString();
      }
      ASSERT_TRUE(reference.replication().Flush().ok());
    } else if (kind == 9) {
      both("CALL SYSPROC.ACCEL_GROOM()");
    } else if (!made_second_table) {
      // Mid-stream DDL: a second partitioned table joins the stream.
      made_second_table = true;
      both("CREATE TABLE st2 (k INT NOT NULL, t VARCHAR) DISTRIBUTE BY (k)");
      both("CALL SYSPROC.ACCEL_ADD_TABLES('st2')");
      for (int i = 0; i < 10; ++i) {
        both(StrFormat("INSERT INTO st2 VALUES (%d, 'w%d')", i, i % 3));
      }
    } else if (shard_accel->num_shards() < num_shards + 2) {
      // Online rebalance, mid-stream, with replication traffic pending.
      for (int attempt = 0; attempt < 200; ++attempt) {
        Status added = shard_accel->AddShard();
        if (added.ok()) break;
        ASSERT_TRUE(added.retryable()) << added.ToString();
        std::this_thread::yield();
      }
    }
  }

  // Quiesce: drop the faults, then drain replication to both replicas.
  sharded.fault_injector().Reset();
  ASSERT_TRUE(reference.replication().Flush().ok());
  bool drained = false;
  for (int attempt = 0; attempt < 200 && !drained; ++attempt) {
    auto flushed = sharded.replication().Flush();
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    drained = flushed->misses == 0;
  }
  ASSERT_TRUE(drained);

  std::vector<std::string> tables = {"st"};
  if (made_second_table) tables.push_back("st2");
  for (const std::string& table : tables) {
    const std::string sql = "SELECT * FROM " + table;
    // DB2 ≡ sharded replica ≡ serial 1-shard replica.
    sharded.SetAccelerationMode(federation::AccelerationMode::kNone);
    auto db2 = sharded.Query(sql);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    sharded.SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto sharded_rows = sharded.Query(sql);
    ASSERT_TRUE(sharded_rows.ok()) << sharded_rows.status().ToString();
    reference.SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto serial_rows = reference.Query(sql);
    ASSERT_TRUE(serial_rows.ok()) << serial_rows.status().ToString();
    EXPECT_EQ(CanonicalRows(*db2), CanonicalRows(*sharded_rows))
        << "seed " << GetParam() << " table " << table;
    EXPECT_EQ(CanonicalRows(*serial_rows), CanonicalRows(*sharded_rows))
        << "seed " << GetParam() << " table " << table;
  }
}

// Encoding arm: a randomized stream of DML, GROOM compaction and
// encoding-enable/disable toggles runs against an accelerator with tiny
// zones (every groom re-encodes real data) while 10% of channel and
// accelerator crossings fail retryably. A clean serial reference with
// encoding disabled must end with identical visible contents — zone
// compression may change layout and timing, never results.
TEST_P(ConvergenceFuzz, EncodedStorageConvergesUnderFaultsAndToggles) {
  Rng rng(GetParam() + 21000);

  SystemOptions ref_options;
  ref_options.replication_batch_size = 0;
  ref_options.accelerator.enable_encoding = false;
  IdaaSystem reference(ref_options);

  SystemOptions options;
  options.replication_batch_size = 8;
  options.accelerator.zone_size = 16;
  options.accelerator.num_slices = 2;
  options.accelerator.morsel_size = 32;
  IdaaSystem encoded(options);

  auto both = [&](const std::string& sql) {
    auto ref = reference.Execute(sql);
    ASSERT_TRUE(ref.ok()) << sql << ": " << ref.status().ToString();
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto got = encoded.Execute(sql);
      if (got.ok()) return;
      ASSERT_TRUE(got.status().retryable() ||
                  got.status().code() == StatusCode::kConflict)
          << "terminal error from " << sql << ": " << got.status().ToString();
      std::this_thread::yield();
    }
    FAIL() << "retries exhausted for " << sql;
  };

  both("CREATE TABLE et (id INT NOT NULL, grp INT, v DOUBLE, s VARCHAR)");
  both("CALL SYSPROC.ACCEL_ADD_TABLES('et')");

  FaultSpec spec;
  spec.probability = 0.1;
  encoded.fault_injector().ArmChannel(spec);
  encoded.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"),
                               spec);

  int next_id = 0;
  for (int op = 0; op < 120; ++op) {
    int kind = static_cast<int>(rng.Uniform(0, 10));
    if (kind <= 4 || next_id == 0) {
      // Runs and small ranges so full zones land on RLE and FOR.
      both(StrFormat("INSERT INTO et VALUES (%d, %d, %d.25, 'tag%d')",
                     next_id, next_id / 8,
                     static_cast<int>(rng.Uniform(0, 12)),
                     next_id / 16));
      ++next_id;
    } else if (kind == 5) {
      both(StrFormat("UPDATE et SET v = v + 1 WHERE grp = %d",
                     static_cast<int>(rng.Uniform(0, 8))));
    } else if (kind == 6) {
      both(StrFormat("DELETE FROM et WHERE id %% 9 = %d",
                     static_cast<int>(rng.Uniform(0, 8))));
    } else if (kind == 7) {
      for (int attempt = 0; attempt < 200; ++attempt) {
        auto flushed = encoded.replication().Flush();
        if (flushed.ok()) break;
        ASSERT_TRUE(flushed.status().retryable())
            << flushed.status().ToString();
      }
      ASSERT_TRUE(reference.replication().Flush().ok());
    } else if (kind == 8) {
      // Compaction mid-stream: encodes full zones, rebuilds zones with
      // reclaimed rows. The reference grooms too (uncompressed rebuild).
      both("CALL SYSPROC.ACCEL_GROOM()");
    } else {
      // Toggle: future grooms stop (or resume) compacting; existing
      // encoded zones must keep serving reads either way.
      encoded.accelerator().SetEncodingEnabled(rng.Uniform(0, 2) < 1);
    }
  }
  encoded.accelerator().SetEncodingEnabled(true);

  // Quiesce: drop the faults, drain replication, then compact once more so
  // the final comparison reads from genuinely encoded zones.
  encoded.fault_injector().Reset();
  ASSERT_TRUE(reference.replication().Flush().ok());
  bool drained = false;
  for (int attempt = 0; attempt < 200 && !drained; ++attempt) {
    auto flushed = encoded.replication().Flush();
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    drained = flushed->misses == 0;
  }
  ASSERT_TRUE(drained);
  encoded.accelerator().GroomAll();

  for (const char* sql :
       {"SELECT * FROM et",
        "SELECT grp, COUNT(*), SUM(v), MIN(id), MAX(id) FROM et GROUP BY "
        "grp"}) {
    encoded.SetAccelerationMode(federation::AccelerationMode::kNone);
    auto db2 = encoded.Query(sql);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    encoded.SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto enc_rows = encoded.Query(sql);
    ASSERT_TRUE(enc_rows.ok()) << enc_rows.status().ToString();
    reference.SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto ref_rows = reference.Query(sql);
    ASSERT_TRUE(ref_rows.ok()) << ref_rows.status().ToString();
    EXPECT_EQ(CanonicalRows(*db2), CanonicalRows(*enc_rows))
        << "seed " << GetParam() << ": " << sql;
    EXPECT_EQ(CanonicalRows(*ref_rows), CanonicalRows(*enc_rows))
        << "seed " << GetParam() << ": " << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace idaa
