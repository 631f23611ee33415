// Concurrent-session stress suite: several connections hammer one
// IdaaSystem with mixed DML on an accelerated table, AOT writes, reads,
// concurrent GROOM passes and replication batch applies. Invariants:
// no lost updates (final counts equal the number of successful writes on
// both the DB2 and the accelerator route) and snapshot-consistent reads
// (two COUNT(*) in one transaction agree). Built to run clean under
// -DIDAA_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "accel/sharded_accelerator.h"
#include "analytics/batch_input.h"
#include "analytics/operator.h"
#include "common/string_util.h"
#include "idaa/system.h"
#include "loader/record_source.h"

namespace idaa {
namespace {

using federation::AccelerationMode;

// Retry kConflict (lock timeouts under contention) and the retryable fault
// codes (kUnavailable/kChannelError/kTimeout — accelerator outages); any
// terminal error is fatal. Returns whether the statement eventually
// succeeded.
bool ExecuteWithRetry(Connection* conn, const std::string& sql,
                      int max_attempts = 20) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    auto result = conn->Execute(sql);
    if (result.ok()) return true;
    if (result.status().code() != StatusCode::kConflict &&
        !result.status().retryable()) {
      ADD_FAILURE() << "unexpected failure for '" << sql
                    << "': " << result.status().ToString();
      return false;
    }
    std::this_thread::yield();
  }
  return false;
}

TEST(ConcurrentStressTest, MixedWorkloadKeepsCountsAndSnapshots) {
  SystemOptions options;
  options.accelerator.num_slices = 4;
  options.replication_batch_size = 8;  // frequent auto-applies under load
  IdaaSystem system(options);

  ASSERT_TRUE(system.Execute("CREATE TABLE acc (id INT, v INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO acc VALUES (0, 0)").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('acc')").ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE aot (id INT, v INT) IN ACCELERATOR")
          .ok());
  ASSERT_TRUE(system.Execute("INSERT INTO aot VALUES (0, 0)").ok());

  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 40;
  constexpr int kAotInserts = 60;
  constexpr int kReaderIterations = 25;

  std::atomic<size_t> acc_inserted{0};
  std::atomic<size_t> aot_inserted{0};
  std::atomic<size_t> acc_updates{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Writers: disjoint id ranges into the accelerated (DB2-resident) table.
  // Lock contention surfaces as kConflict and is retried; only successful
  // statements count toward the invariant.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&system, &acc_inserted, &acc_updates, w] {
      auto conn = system.NewConnection();
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        int id = 1000 * (w + 1) + i;
        if (ExecuteWithRetry(conn.get(),
                             "INSERT INTO acc VALUES (" + std::to_string(id) +
                                 ", " + std::to_string(i) + ")")) {
          acc_inserted.fetch_add(1);
        }
        if (i % 8 == 0 &&
            ExecuteWithRetry(conn.get(),
                             "UPDATE acc SET v = v + 1 WHERE id = " +
                                 std::to_string(id))) {
          acc_updates.fetch_add(1);
        }
      }
    });
  }

  // AOT writer: slice-parallel MVCC path, no DB2 locks involved.
  threads.emplace_back([&system, &aot_inserted] {
    auto conn = system.NewConnection();
    for (int i = 0; i < kAotInserts; ++i) {
      if (ExecuteWithRetry(conn.get(),
                           "INSERT INTO aot VALUES (" + std::to_string(i + 1) +
                               ", " + std::to_string(i) + ")")) {
        aot_inserted.fetch_add(1);
      }
    }
  });

  // Readers: snapshot consistency — two COUNT(*) inside one transaction
  // must agree no matter what commits in between.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&system] {
      auto conn = system.NewConnection();
      for (int i = 0; i < kReaderIterations; ++i) {
        ASSERT_TRUE(conn->Begin().ok());
        auto first = conn->Query("SELECT COUNT(*) FROM aot");
        auto second = conn->Query("SELECT COUNT(*) FROM aot");
        ASSERT_TRUE(first.ok()) << first.status().ToString();
        ASSERT_TRUE(second.ok()) << second.status().ToString();
        EXPECT_EQ(first->At(0, 0).AsInteger(), second->At(0, 0).AsInteger())
            << "snapshot moved inside one transaction";
        ASSERT_TRUE(conn->Commit().ok());
      }
    });
  }

  // Groomer: space reclamation races the scans and the replication applies.
  threads.emplace_back([&system, &stop] {
    auto conn = system.NewConnection();
    while (!stop.load()) {
      ASSERT_TRUE(conn->Execute("CALL SYSPROC.ACCEL_GROOM()").ok());
      std::this_thread::yield();
    }
  });

  // Flusher: drains captured changes concurrently with the auto-applies
  // triggered from commit listeners.
  threads.emplace_back([&system, &stop] {
    while (!stop.load()) {
      auto stats = system.replication().Flush();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      std::this_thread::yield();
    }
  });

  for (size_t t = 0; t + 2 < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[threads.size() - 2].join();
  threads[threads.size() - 1].join();

  // Everything the writers managed to commit (no retries exhausted).
  EXPECT_EQ(acc_inserted.load(), size_t{kWriters * kInsertsPerWriter});
  EXPECT_EQ(aot_inserted.load(), size_t{kAotInserts});

  // Drain replication fully, then check both routes agree with the
  // successful-write counts: no lost updates on either side.
  ASSERT_TRUE(system.replication().Flush().ok());
  EXPECT_EQ(system.replication().PendingChanges(), 0u);

  const auto expected_acc =
      static_cast<int64_t>(1 + acc_inserted.load());  // seed row + inserts
  system.SetAccelerationMode(AccelerationMode::kNone);
  auto db2_count = system.Query("SELECT COUNT(*) FROM acc");
  ASSERT_TRUE(db2_count.ok()) << db2_count.status().ToString();
  EXPECT_EQ(db2_count->At(0, 0).AsInteger(), expected_acc);

  system.SetAccelerationMode(AccelerationMode::kAll);
  auto accel_count = system.Query("SELECT COUNT(*) FROM acc");
  ASSERT_TRUE(accel_count.ok()) << accel_count.status().ToString();
  EXPECT_EQ(accel_count->At(0, 0).AsInteger(), expected_acc);

  // The update increments survived replication too: v sums agree.
  system.SetAccelerationMode(AccelerationMode::kNone);
  auto db2_sum = system.Query("SELECT SUM(v) FROM acc");
  system.SetAccelerationMode(AccelerationMode::kAll);
  auto accel_sum = system.Query("SELECT SUM(v) FROM acc");
  ASSERT_TRUE(db2_sum.ok() && accel_sum.ok());
  EXPECT_EQ(db2_sum->At(0, 0).AsInteger(), accel_sum->At(0, 0).AsInteger());

  auto aot_count = system.Query("SELECT COUNT(*) FROM aot");
  ASSERT_TRUE(aot_count.ok());
  EXPECT_EQ(aot_count->At(0, 0).AsInteger(),
            static_cast<int64_t>(1 + aot_inserted.load()));
}

TEST(ConcurrentStressTest, RandomOutagesUnderFailbackNeverSurfaceErrors) {
  // An outage thread flips the accelerator OFFLINE/ONLINE while writers
  // keep inserting into the DB2 side of an accelerated table and readers
  // run under ENABLE WITH FAILBACK. Invariants: failback readers never see
  // an error, replication never loses the backlog, and after the final
  // ONLINE + Flush both routes agree and ACCEL_VERIFY_TABLES converges.
  SystemOptions options;
  options.accelerator.num_slices = 4;
  options.replication_batch_size = 8;
  IdaaSystem system(options);

  ASSERT_TRUE(system.Execute("CREATE TABLE acc (id INT, v INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO acc VALUES (0, 0)").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('acc')").ok());

  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 40;
  constexpr int kReaderIterations = 40;
  constexpr int kOutageCycles = 12;

  std::atomic<size_t> acc_inserted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Writers: the DB2 side stays writable through every outage.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&system, &acc_inserted, w] {
      auto conn = system.NewConnection();
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        int id = 1000 * (w + 1) + i;
        if (ExecuteWithRetry(conn.get(),
                             "INSERT INTO acc VALUES (" + std::to_string(id) +
                                 ", " + std::to_string(i) + ")")) {
          acc_inserted.fetch_add(1);
        }
      }
    });
  }

  // Failback readers: ENABLE WITH FAILBACK must absorb every outage — an
  // error here is a test failure, not a retry.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&system] {
      auto conn = system.NewConnection();
      conn->SetAccelerationMode(AccelerationMode::kEnableWithFailback);
      for (int i = 0; i < kReaderIterations; ++i) {
        auto rs = conn->Query("SELECT COUNT(*), SUM(v) FROM acc");
        ASSERT_TRUE(rs.ok()) << "failback reader saw an error: "
                             << rs.status().ToString();
      }
    });
  }

  // Flusher: replication apply may fail with a retryable error while the
  // accelerator is away, but must never lose changes or fail terminally.
  threads.emplace_back([&system, &stop] {
    while (!stop.load()) {
      auto stats = system.replication().Flush();
      if (!stats.ok()) {
        ASSERT_TRUE(stats.status().retryable())
            << "replication failed terminally: " << stats.status().ToString();
      }
      std::this_thread::yield();
    }
  });

  // Outage thread: OFFLINE, let the workload run into it, ONLINE (which
  // replays the backlog through the Recovering state), repeat.
  threads.emplace_back([&system] {
    auto conn = system.NewConnection();
    for (int c = 0; c < kOutageCycles; ++c) {
      ASSERT_TRUE(
          conn->Execute("CALL SYSPROC.ACCEL_CONTROL('ACCEL1', 'OFFLINE')")
              .ok());
      std::this_thread::yield();
      ASSERT_TRUE(
          conn->Execute("CALL SYSPROC.ACCEL_CONTROL('ACCEL1', 'ONLINE')")
              .ok());
      std::this_thread::yield();
    }
  });

  for (size_t t = 0; t + 2 < threads.size(); ++t) threads[t].join();
  threads.back().join();  // outage thread
  stop.store(true);
  threads[threads.size() - 2].join();  // flusher

  EXPECT_EQ(acc_inserted.load(), size_t{kWriters * kInsertsPerWriter});

  // Final recovery: accelerator online, backlog drained, replica converged.
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_CONTROL('ACCEL1', 'ONLINE')")
          .ok());
  ASSERT_TRUE(system.replication().Flush().ok());
  EXPECT_EQ(system.replication().PendingChanges(), 0u);

  const auto expected = static_cast<int64_t>(1 + acc_inserted.load());
  system.SetAccelerationMode(AccelerationMode::kNone);
  auto db2_count = system.Query("SELECT COUNT(*) FROM acc");
  ASSERT_TRUE(db2_count.ok()) << db2_count.status().ToString();
  EXPECT_EQ(db2_count->At(0, 0).AsInteger(), expected);

  system.SetAccelerationMode(AccelerationMode::kAll);
  auto accel_count = system.Query("SELECT COUNT(*) FROM acc");
  ASSERT_TRUE(accel_count.ok()) << accel_count.status().ToString();
  EXPECT_EQ(accel_count->At(0, 0).AsInteger(), expected);

  auto verify = system.Query("CALL SYSPROC.ACCEL_VERIFY_TABLES('acc')");
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  ASSERT_EQ(verify->NumRows(), 1u);
  EXPECT_TRUE(verify->At(0, 3).AsBoolean()) << "replica diverged from DB2";
}

TEST(ConcurrentStressTest, ParallelAnalyticsSessionsShareInputsWithWriters) {
  // Several sessions run CALL IDAA.* concurrently on one shared accelerated
  // input while writers keep mutating the DB2 side (replication applying
  // into the replica mid-scan), a groomer reclaims space, and every analyst
  // materializes its own output AOTs. The morsel-parallel operators pin the
  // input for each fit, so no CALL may ever fail terminally or observe a
  // torn row set. Built to run clean under -DIDAA_SANITIZE=thread.
  SystemOptions options;
  options.accelerator.num_slices = 4;
  options.accelerator.zone_size = 64;
  options.accelerator.morsel_size = 128;  // many morsels on small data
  options.replication_batch_size = 8;
  IdaaSystem system(options);

  ASSERT_TRUE(system
                  .Execute("CREATE TABLE feats (id INT NOT NULL, "
                              "x DOUBLE, y DOUBLE, lbl VARCHAR)")
                  .ok());
  static const char* kLabels[] = {"A", "B", "C"};
  for (int base = 0; base < 600; base += 50) {
    std::string insert = "INSERT INTO feats VALUES ";
    for (int i = base; i < base + 50; ++i) {
      if (i > base) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 40) +
                ".5, " + std::to_string(i % 25) + ".25, '" +
                kLabels[i % 3] + "')";
    }
    ASSERT_TRUE(system.Execute(insert).ok());
  }
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('feats')").ok());

  constexpr int kAnalysts = 4;
  constexpr int kCallsPerAnalyst = 5;
  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 60;

  std::atomic<size_t> calls_succeeded{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Analysts: every session fits models off the same shared input, each
  // into its own output AOTs (per-session names, so re-creates never race
  // another session's reads of the same output).
  for (int a = 0; a < kAnalysts; ++a) {
    threads.emplace_back([&system, &calls_succeeded, a] {
      auto conn = system.NewConnection();
      const std::string suffix = "_s" + std::to_string(a);
      const std::string calls[] = {
          "CALL IDAA.NORMALIZE('input=feats', 'output=norm" + suffix +
              "', 'columns=x,y')",
          "CALL IDAA.KMEANS('input=feats', 'output=clus" + suffix +
              "', 'columns=x,y', 'k=3', 'seed=" + std::to_string(a) + "')",
          "CALL IDAA.NAIVEBAYES('input=feats', 'label=lbl', "
          "'columns=x,y', 'output=nb" + suffix + "')",
          "CALL IDAA.SUMMARIZE('input=feats')",
      };
      for (int i = 0; i < kCallsPerAnalyst; ++i) {
        for (const std::string& call : calls) {
          if (ExecuteWithRetry(conn.get(), call)) {
            calls_succeeded.fetch_add(1);
          }
        }
      }
    });
  }

  // Writers: the shared input keeps growing underneath the running fits.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&system, w] {
      auto conn = system.NewConnection();
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        int id = 10000 * (w + 1) + i;
        ExecuteWithRetry(conn.get(),
                         "INSERT INTO feats VALUES (" + std::to_string(id) +
                             ", " + std::to_string(i % 31) + ".5, " +
                             std::to_string(i % 13) + ".25, '" +
                             kLabels[i % 3] + "')");
      }
    });
  }

  // Groomer: races the pinned analytics scans and output re-creates.
  threads.emplace_back([&system, &stop] {
    auto conn = system.NewConnection();
    while (!stop.load()) {
      ASSERT_TRUE(conn->Execute("CALL SYSPROC.ACCEL_GROOM()").ok());
      std::this_thread::yield();
    }
  });

  // Flusher: replication applies land in the replica mid-fit.
  threads.emplace_back([&system, &stop] {
    while (!stop.load()) {
      auto stats = system.replication().Flush();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      std::this_thread::yield();
    }
  });

  for (size_t t = 0; t + 2 < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[threads.size() - 2].join();
  threads[threads.size() - 1].join();

  EXPECT_EQ(calls_succeeded.load(), size_t{kAnalysts * kCallsPerAnalyst * 4});

  // Quiesced check: with writers stopped and replication drained, the
  // KMEANS summary is bit-identical to the same CALL on a fresh 1-thread,
  // 1-slice system holding the quiesced rows in the order the operator
  // reads them (the chunk merges do not depend on the thread count).
  ASSERT_TRUE(system.replication().Flush().ok());
  const std::string final_call =
      "CALL IDAA.KMEANS('input=feats', 'output=final_k', 'columns=x,y', "
      "'k=3', 'seed=9')";
  auto stressed = system.Query(final_call);
  ASSERT_TRUE(stressed.ok()) << stressed.status().ToString();
  std::vector<Row> quiesced;
  {
    ASSERT_TRUE(system.Begin().ok());
    analytics::AnalyticsContext ctx(&system.catalog(), &system.accelerator(),
                                    &system.txn_manager(),
                                    system.current_transaction(),
                                    &system.metrics());
    auto in = ctx.OpenInput("feats");
    ASSERT_TRUE(in.ok()) << in.status().ToString();
    quiesced = (*in)->GatherRows({});
    in->reset();
    ASSERT_TRUE(system.Commit().ok());
  }
  SystemOptions fresh_options;
  fresh_options.accelerator.num_threads = 1;
  fresh_options.accelerator.num_slices = 1;
  IdaaSystem fresh(fresh_options);
  ASSERT_TRUE(fresh
                  .Execute("CREATE TABLE feats (id INT NOT NULL, x DOUBLE, "
                           "y DOUBLE, lbl VARCHAR) IN ACCELERATOR")
                  .ok());
  Schema feats_schema({{"ID", DataType::kInteger, false},
                       {"X", DataType::kDouble, true},
                       {"Y", DataType::kDouble, true},
                       {"LBL", DataType::kVarchar, true}});
  loader::GeneratorSource source(feats_schema, quiesced.size(),
                                 [&quiesced](size_t i) { return quiesced[i]; });
  auto loaded = fresh.loader().Load("feats", &source);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto reference = fresh.Query(final_call);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(stressed->NumRows(), 1u);
  ASSERT_EQ(reference->NumRows(), 1u);
  for (size_t c = 0; c < 5; ++c) {  // K, ITERATIONS, INERTIA, ROWS, SKIPPED
    EXPECT_EQ(stressed->At(0, c), reference->At(0, c))
        << "column " << c << ": " << stressed->At(0, c).ToString() << " vs "
        << reference->At(0, c).ToString();
  }

  // Every analyst's outputs are present and consistent with one snapshot.
  for (int a = 0; a < kAnalysts; ++a) {
    const std::string suffix = "_s" + std::to_string(a);
    auto clus = system.Query("SELECT COUNT(*) FROM clus" + suffix);
    auto norm = system.Query("SELECT COUNT(*) FROM norm" + suffix);
    ASSERT_TRUE(clus.ok()) << clus.status().ToString();
    ASSERT_TRUE(norm.ok()) << norm.status().ToString();
    EXPECT_GE(clus->At(0, 0).AsInteger(), int64_t{600});
    EXPECT_GE(norm->At(0, 0).AsInteger(), int64_t{600});
  }
}

TEST(ConcurrentStressTest, ParallelTracedQueriesShareHistograms) {
  // Concurrent traced statements from separate sessions: slice workers
  // write spans into per-statement traces while every session records into
  // the shared histogram registry.
  IdaaSystem system;
  ASSERT_TRUE(
      system.Execute("CREATE TABLE hot (id INT, v DOUBLE) IN ACCELERATOR")
          .ok());
  ASSERT_TRUE(system
                  .Execute("INSERT INTO hot VALUES (1, 1.0), (2, 2.0), "
                              "(3, 3.0), (4, 4.0)")
                  .ok());
  system.slow_query_log().set_threshold_us(0);  // record every statement

  constexpr int kThreads = 4;
  constexpr int kQueries = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&system] {
      auto conn = system.NewConnection();
      for (int i = 0; i < kQueries; ++i) {
        auto rs = conn->Query("SELECT SUM(v) FROM hot");
        ASSERT_TRUE(rs.ok()) << rs.status().ToString();
        EXPECT_EQ(rs->At(0, 0).AsDouble(), 10.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GE(system.histograms().GetOrCreate("sql.latency.select").Count(),
            size_t{kThreads * kQueries});
  EXPECT_GE(system.slow_query_log().Size(), size_t{1});
}

TEST(ConcurrentStressTest, ParallelLoadsShareAcceleratorWithReadersAndGroom) {
  // Several pipelined loads run simultaneously into distinct AOTs on one
  // accelerator — each load spinning up its own reader/worker/commit
  // pipeline — while reader sessions scan both a quiescent table and the
  // tables being loaded, and a maintenance thread grooms continuously.
  // Invariants: every load lands exactly its input (count + id checksum),
  // readers only ever observe committed prefixes, and the whole dance is
  // data-race-free under -DIDAA_SANITIZE=thread.
  SystemOptions options;
  options.accelerator.num_slices = 4;
  options.replication_batch_size = 0;
  IdaaSystem system(options);

  static constexpr int kLoaders = 3;
  static constexpr int kRowsPerLoad = 1500;
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE warm (id INT NOT NULL, v DOUBLE) "
                              "IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system
                  .Execute("INSERT INTO warm VALUES (1, 1.5), (2, 2.5), "
                              "(3, 3.5)")
                  .ok());
  std::vector<std::string> bodies(kLoaders);
  for (int t = 0; t < kLoaders; ++t) {
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE ld" + std::to_string(t) +
                                " (id INT NOT NULL, tag VARCHAR, "
                                "score DOUBLE) IN ACCELERATOR")
                    .ok());
    std::string body;
    for (int i = 0; i < kRowsPerLoad; ++i) {
      body += std::to_string(i) + "," +
              (i % 9 == 0 ? std::string() : "tag" + std::to_string(t)) + "," +
              std::to_string(i) + ".25\n";
    }
    bodies[t] = std::move(body);
  }
  const Schema schema({{"ID", DataType::kInteger, false},
                       {"TAG", DataType::kVarchar, true},
                       {"SCORE", DataType::kDouble, true}});

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < kLoaders; ++t) {
    threads.emplace_back([&system, &bodies, &schema, t] {
      loader::CsvStringSource source(bodies[t], schema);
      loader::LoadOptions lo;
      lo.batch_size = 64;
      lo.num_workers = 3;
      lo.queue_depth = 4;
      auto report =
          system.loader().Load("ld" + std::to_string(t), &source, lo);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->rows_loaded, size_t{kRowsPerLoad});
      EXPECT_EQ(report->rows_rejected, 0u);
    });
  }

  // Readers: scan the quiescent table (stable answer) and the in-flight
  // tables (must see a committed prefix, never a torn batch).
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&system, &stop, r] {
      auto conn = system.NewConnection();
      while (!stop.load()) {
        auto warm = conn->Query("SELECT COUNT(*) FROM warm");
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        EXPECT_EQ(warm->At(0, 0).AsInteger(), 3);
        const std::string table = "ld" + std::to_string(r);
        auto rs = conn->Query("SELECT COUNT(*), COUNT(tag) FROM " + table);
        ASSERT_TRUE(rs.ok()) << rs.status().ToString();
        int64_t count = rs->At(0, 0).AsInteger();
        EXPECT_GE(count, 0);
        EXPECT_LE(count, kRowsPerLoad);
        // Loads commit whole 64-row batches; a torn read would surface as
        // a partial batch.
        EXPECT_EQ(count % 64 == 0 || count == kRowsPerLoad, true)
            << "reader saw a partially committed batch: " << count;
        std::this_thread::yield();
      }
    });
  }

  // Maintenance: groom the shared accelerator the whole time.
  threads.emplace_back([&system, &stop] {
    while (!stop.load()) {
      system.accelerator().GroomAll();
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kLoaders; ++t) threads[t].join();
  stop.store(true);
  for (size_t i = kLoaders; i < threads.size(); ++i) threads[i].join();

  for (int t = 0; t < kLoaders; ++t) {
    auto rs = system.Query("SELECT COUNT(*), SUM(id) FROM ld" +
                           std::to_string(t));
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->At(0, 0).AsInteger(), kRowsPerLoad);
    EXPECT_EQ(rs->At(0, 1).AsInteger(),
              int64_t{kRowsPerLoad} * (kRowsPerLoad - 1) / 2);
  }
}

TEST(ConcurrentStressTest, ConcurrentJoinsSurviveGroomAndWriters) {
  // Star joins on the batch-native join path race AOT writers and a
  // continuous GROOM loop. Each reader takes one snapshot and checks join
  // invariants that only hold if build and probe see the same consistent
  // row set: the dimension covers every non-NULL key, so an inner join
  // returns exactly COUNT(dk) rows, a LEFT JOIN exactly COUNT(*) rows, and
  // a duplicate-heavy dimension (two rows per key) exactly 2 * COUNT(dk).
  // VARCHAR equi-keys and VARCHAR scan predicates ride along because they
  // bake slice-local dictionary codes into the probe's dict-code maps and
  // compiled predicates — a groom re-interning dictionaries between
  // compilation and the probe scan would silently corrupt them. A torn
  // scan, a groom moving rows mid-probe, or a stale Bloom filter would
  // break the equalities. Built to run clean under -DIDAA_SANITIZE=thread.
  SystemOptions options;
  options.accelerator.num_slices = 4;
  options.accelerator.zone_size = 64;
  options.accelerator.morsel_size = 128;
  IdaaSystem system(options);

  constexpr int kDimKeys = 12;
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE jfact (id INT NOT NULL, dk INT, "
                              "dn VARCHAR, v DOUBLE) IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE jdim (k INT NOT NULL, "
                              "g VARCHAR) IN ACCELERATOR")
                  .ok());
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE jtag (k INT NOT NULL, "
                              "t VARCHAR) IN ACCELERATOR")
                  .ok());
  // VARCHAR-keyed dimension: the probe compares dictionary codes via the
  // per-slice code maps, never strings.
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE jname (n VARCHAR NOT NULL, "
                              "label VARCHAR) IN ACCELERATOR")
                  .ok());
  for (int k = 0; k < kDimKeys; ++k) {
    ASSERT_TRUE(system
                    .Execute("INSERT INTO jdim VALUES (" +
                                std::to_string(k) + ", 'g" +
                                std::to_string(k % 3) + "')")
                    .ok());
    // Two tag rows per key: probes must walk duplicate chains correctly.
    ASSERT_TRUE(system
                    .Execute("INSERT INTO jtag VALUES (" +
                                std::to_string(k) + ", 'a'), (" +
                                std::to_string(k) + ", 'b')")
                    .ok());
    ASSERT_TRUE(system
                    .Execute("INSERT INTO jname VALUES ('k" +
                                std::to_string(k) + "', 'name" +
                                std::to_string(k) + "')")
                    .ok());
  }
  // dn mirrors dk as 'k<dk>' (NULL together), so COUNT(dn) == COUNT(dk)
  // and jname covers every non-NULL dn.
  for (int i = 0; i < 200; ++i) {
    const bool null_key = i % 11 == 0;
    ASSERT_TRUE(system
                    .Execute("INSERT INTO jfact VALUES (" +
                                std::to_string(i) + ", " +
                                (null_key ? std::string("NULL")
                                          : std::to_string(i % kDimKeys)) +
                                ", " +
                                (null_key
                                     ? std::string("NULL")
                                     : "'k" + std::to_string(i % kDimKeys) +
                                           "'") +
                                ", " + std::to_string(i % 7) + ".5)")
                    .ok());
  }

  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 50;
  constexpr int kReaderIterations = 20;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Writers keep the fact table growing (including NULL keys) while probes
  // are in flight.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&system, w] {
      auto conn = system.NewConnection();
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        int id = 10000 * (w + 1) + i;
        const bool null_key = i % 13 == 0;
        ExecuteWithRetry(conn.get(),
                         "INSERT INTO jfact VALUES (" + std::to_string(id) +
                             ", " +
                             (null_key ? std::string("NULL")
                                       : std::to_string(i % kDimKeys)) +
                             ", " +
                             (null_key
                                  ? std::string("NULL")
                                  : "'k" + std::to_string(i % kDimKeys) + "'") +
                             ", " + std::to_string(i % 5) + ".25)");
      }
    });
  }

  // Readers: snapshot-consistent join invariants.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&system] {
      auto conn = system.NewConnection();
      for (int i = 0; i < kReaderIterations; ++i) {
        ASSERT_TRUE(conn->Begin().ok());
        auto keyed = conn->Query("SELECT COUNT(dk), COUNT(*) FROM jfact");
        ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
        const int64_t nonnull = keyed->At(0, 0).AsInteger();
        const int64_t total = keyed->At(0, 1).AsInteger();
        auto inner = conn->Query(
            "SELECT COUNT(*) FROM jfact f JOIN jdim d ON f.dk = d.k");
        ASSERT_TRUE(inner.ok()) << inner.status().ToString();
        EXPECT_EQ(inner->At(0, 0).AsInteger(), nonnull)
            << "inner join lost or duplicated probe rows";
        auto left = conn->Query(
            "SELECT COUNT(*) FROM jfact f LEFT JOIN jdim d ON f.dk = d.k");
        ASSERT_TRUE(left.ok()) << left.status().ToString();
        EXPECT_EQ(left->At(0, 0).AsInteger(), total)
            << "left join dropped unmatched probe rows";
        auto dup = conn->Query(
            "SELECT COUNT(*) FROM jfact f JOIN jtag t ON f.dk = t.k");
        ASSERT_TRUE(dup.ok()) << dup.status().ToString();
        EXPECT_EQ(dup->At(0, 0).AsInteger(), 2 * nonnull)
            << "duplicate build chain walked incorrectly";
        // VARCHAR equi-key: jname covers every non-NULL dn and dn is NULL
        // exactly when dk is, so the code-mapped probe must agree with the
        // INT-keyed count. A groom re-interning a slice dictionary after
        // the probe-code maps were built would break this.
        auto vkey = conn->Query(
            "SELECT COUNT(*) FROM jfact f JOIN jname n ON f.dn = n.n");
        ASSERT_TRUE(vkey.ok()) << vkey.status().ToString();
        EXPECT_EQ(vkey->At(0, 0).AsInteger(), nonnull)
            << "dictionary-code key map went stale under groom";
        // VARCHAR scan predicate on the probe side: the compiled per-slice
        // predicate bakes in the dictionary code of 'k3'; the single-table
        // count and the joined count (jdim has one row per key) must match
        // within one snapshot.
        auto pred_scan =
            conn->Query("SELECT COUNT(*) FROM jfact WHERE dn = 'k3'");
        ASSERT_TRUE(pred_scan.ok()) << pred_scan.status().ToString();
        auto pred_join = conn->Query(
            "SELECT COUNT(*) FROM jfact f JOIN jdim d ON f.dk = d.k "
            "WHERE f.dn = 'k3'");
        ASSERT_TRUE(pred_join.ok()) << pred_join.status().ToString();
        EXPECT_EQ(pred_join->At(0, 0).AsInteger(),
                  pred_scan->At(0, 0).AsInteger())
            << "compiled VARCHAR predicate went stale under groom";
        // VARCHAR scan predicate on the build side: the three g-partitions
        // tile the key space, so the filtered joins must sum to the
        // unfiltered inner count.
        int64_t by_g = 0;
        for (int g = 0; g < 3; ++g) {
          auto part = conn->Query(
              "SELECT COUNT(*) FROM jfact f JOIN jdim d ON f.dk = d.k "
              "WHERE d.g = 'g" +
              std::to_string(g) + "'");
          ASSERT_TRUE(part.ok()) << part.status().ToString();
          by_g += part->At(0, 0).AsInteger();
        }
        EXPECT_EQ(by_g, nonnull)
            << "build-side VARCHAR scan predicate went stale under groom";
        auto grouped = conn->Query(
            "SELECT d.g, COUNT(*) FROM jfact f JOIN jdim d ON f.dk = d.k "
            "GROUP BY d.g");
        ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
        int64_t grouped_total = 0;
        for (size_t row = 0; row < grouped->NumRows(); ++row) {
          grouped_total += grouped->At(row, 1).AsInteger();
        }
        EXPECT_EQ(grouped_total, nonnull)
            << "aggregate-mode join disagreed with the scalar count";
        ASSERT_TRUE(conn->Commit().ok());
      }
    });
  }

  // Groomer: space reclamation races builds and probes continuously.
  threads.emplace_back([&system, &stop] {
    auto conn = system.NewConnection();
    while (!stop.load()) {
      ASSERT_TRUE(conn->Execute("CALL SYSPROC.ACCEL_GROOM()").ok());
      std::this_thread::yield();
    }
  });

  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads.back().join();

  // Quiesced differential against DB2: copy the final accelerator-only
  // state into DB2 tables, then both engines must agree on the INT-keyed
  // and the VARCHAR-keyed joins.
  for (const auto& [table, columns] :
       std::vector<std::pair<std::string, std::string>>{
           {"jfact", "id INT NOT NULL, dk INT, dn VARCHAR, v DOUBLE"},
           {"jdim", "k INT NOT NULL, g VARCHAR"},
           {"jname", "n VARCHAR NOT NULL, label VARCHAR"}}) {
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE " + table + "_db2 (" + columns +
                             ")")
                    .ok());
    auto rows = system.Query("SELECT * FROM " + table);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    for (const Row& row : rows->rows()) {
      std::string values;
      for (const Value& v : row) {
        if (!values.empty()) values += ", ";
        if (v.is_varchar()) {
          values += "'" + v.AsVarchar() + "'";
        } else if (v.is_double()) {
          values += StrFormat("%.17g", v.AsDouble());
        } else {
          values += v.ToString();
        }
      }
      ASSERT_TRUE(system
                      .Execute("INSERT INTO " + table + "_db2 VALUES (" +
                               values + ")")
                      .ok());
    }
  }
  const std::regex kAotTables("\\b(jfact|jdim|jname)\\b");
  const std::vector<std::string> differential_queries = {
      "SELECT d.g, COUNT(*), SUM(f.v) FROM jfact f "
      "JOIN jdim d ON f.dk = d.k GROUP BY d.g ORDER BY d.g",
      "SELECT n.label, COUNT(*), SUM(f.v) FROM jfact f "
      "JOIN jname n ON f.dn = n.n GROUP BY n.label ORDER BY n.label"};
  for (const std::string& query : differential_queries) {
    auto accel = system.Execute(query);
    ASSERT_TRUE(accel.ok()) << accel.status().ToString();
    EXPECT_EQ(accel->routed_to, federation::Target::kAccelerator) << query;
    const std::string db2_query =
        std::regex_replace(query, kAotTables, "$1_db2");
    auto db2 = system.Execute(db2_query);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    EXPECT_EQ(db2->routed_to, federation::Target::kDb2) << db2_query;
    ASSERT_EQ(accel->rows.NumRows(), db2->rows.NumRows()) << query;
    for (size_t r = 0; r < accel->rows.NumRows(); ++r) {
      EXPECT_EQ(accel->rows.At(r, 0).AsVarchar(),
                db2->rows.At(r, 0).AsVarchar());
      EXPECT_EQ(accel->rows.At(r, 1).AsInteger(),
                db2->rows.At(r, 1).AsInteger());
      EXPECT_DOUBLE_EQ(accel->rows.At(r, 2).AsDouble(),
                       db2->rows.At(r, 2).AsDouble());
    }
  }
}

TEST(ConcurrentStressTest, ShardKillRecoverRebalanceKeepsWorkloadLive) {
  // A killer thread flips individual shards of a 4-shard accelerator
  // OFFLINE/ONLINE while failback readers, DB2 writers and a GROOM thread
  // keep running, and the topology grows by one shard mid-run. Invariants:
  // a single dead shard is a per-shard failure domain — failback readers
  // never surface an error, writers lose nothing, GROOM keeps running on
  // the surviving shards — and after recovery both routes agree and
  // ACCEL_VERIFY_TABLES converges. Built to run clean under TSan.
  SystemOptions options;
  options.accelerator_shards = 4;
  options.replication_batch_size = 8;
  IdaaSystem system(options);
  auto* shard_accel =
      dynamic_cast<accel::ShardedAccelerator*>(&system.accelerator());
  ASSERT_NE(shard_accel, nullptr);

  ASSERT_TRUE(system
                  .Execute("CREATE TABLE spart (id INT NOT NULL, grp INT, "
                           "v INT) DISTRIBUTE BY (grp)")
                  .ok());
  ASSERT_TRUE(
      system.Execute("CREATE TABLE sdim (k INT NOT NULL, t VARCHAR)").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(system
                    .Execute(StrFormat("INSERT INTO sdim VALUES (%d, 'd%d')",
                                       i, i % 3))
                    .ok());
  }
  ASSERT_TRUE(system.Execute("INSERT INTO spart VALUES (0, 0, 0)").ok());
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('spart')").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('sdim')").ok());
  ASSERT_TRUE(system.replication().Flush().ok());

  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 40;
  constexpr int kReaderIterations = 40;
  constexpr int kKillCycles = 10;

  std::atomic<size_t> inserted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Writers: DB2 stays writable no matter which shard is dead.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&system, &inserted, w] {
      auto conn = system.NewConnection();
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        int id = 1000 * (w + 1) + i;
        if (ExecuteWithRetry(conn.get(),
                             StrFormat("INSERT INTO spart VALUES (%d, %d, %d)",
                                       id, id % 6, i))) {
          inserted.fetch_add(1);
        }
      }
    });
  }

  // Failback readers: scatter-gather shapes fail over to DB2 while a shard
  // is away; broadcast shapes keep being served by a surviving shard. An
  // error here is a test failure, not a retry.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&system, r] {
      auto conn = system.NewConnection();
      conn->SetAccelerationMode(AccelerationMode::kEnableWithFailback);
      for (int i = 0; i < kReaderIterations; ++i) {
        const char* sql = (i + r) % 3 == 0
                              ? "SELECT COUNT(*), SUM(v) FROM spart"
                              : ((i + r) % 3 == 1
                                     ? "SELECT COUNT(*) FROM spart "
                                       "WHERE grp = 3"
                                     : "SELECT COUNT(*) FROM sdim");
        auto rs = conn->Query(sql);
        ASSERT_TRUE(rs.ok()) << "failback reader saw an error: "
                             << rs.status().ToString();
      }
    });
  }

  // Flusher: a dead shard makes the apply retryable, never terminal.
  threads.emplace_back([&system, &stop] {
    while (!stop.load()) {
      auto stats = system.replication().Flush();
      if (!stats.ok()) {
        ASSERT_TRUE(stats.status().retryable())
            << "replication failed terminally: " << stats.status().ToString();
      }
      std::this_thread::yield();
    }
  });

  // GROOM keeps running on the surviving shards throughout.
  threads.emplace_back([&shard_accel, &stop] {
    while (!stop.load()) {
      (void)shard_accel->GroomAll();
      std::this_thread::yield();
    }
  });

  // Killer: one shard at a time goes away and comes back.
  threads.emplace_back([&shard_accel] {
    for (int c = 0; c < kKillCycles; ++c) {
      size_t victim = static_cast<size_t>(c) % shard_accel->num_shards();
      shard_accel->SetShardState(victim, accel::AcceleratorState::kOffline);
      std::this_thread::yield();
      shard_accel->SetShardState(victim, accel::AcceleratorState::kOnline);
      std::this_thread::yield();
    }
    // Online rebalance while readers/writers/GROOM are still running.
    Status added = shard_accel->AddShard();
    ASSERT_TRUE(added.ok()) << added.ToString();
  });

  for (size_t t = 0; t < threads.size() - 3; ++t) threads[t].join();
  threads.back().join();  // killer
  stop.store(true);
  threads[threads.size() - 2].join();  // groomer
  threads[threads.size() - 3].join();  // flusher

  EXPECT_EQ(inserted.load(), size_t{kWriters * kInsertsPerWriter});
  EXPECT_EQ(shard_accel->num_shards(), 5u);
  for (size_t i = 0; i < shard_accel->num_shards(); ++i) {
    shard_accel->SetShardState(i, accel::AcceleratorState::kOnline);
  }
  // Scatter shapes that raced a dead shard tripped breakers (that is the
  // failback mechanism working); reset them like an operator bringing the
  // appliance back, then verify convergence.
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_CONTROL('ACCEL1', 'ONLINE')").ok());
  ASSERT_TRUE(system.replication().Flush().ok());
  EXPECT_EQ(system.replication().PendingChanges(), 0u);

  const auto expected = static_cast<int64_t>(1 + inserted.load());
  system.SetAccelerationMode(AccelerationMode::kNone);
  auto db2_count = system.Query("SELECT COUNT(*), SUM(v) FROM spart");
  ASSERT_TRUE(db2_count.ok()) << db2_count.status().ToString();
  EXPECT_EQ(db2_count->At(0, 0).AsInteger(), expected);

  system.SetAccelerationMode(AccelerationMode::kAll);
  auto accel_count = system.Query("SELECT COUNT(*), SUM(v) FROM spart");
  ASSERT_TRUE(accel_count.ok()) << accel_count.status().ToString();
  EXPECT_EQ(accel_count->At(0, 0).AsInteger(), expected);
  EXPECT_EQ(db2_count->At(0, 1).AsInteger(),
            accel_count->At(0, 1).AsInteger());

  auto verify = system.Query("CALL SYSPROC.ACCEL_VERIFY_TABLES('spart')");
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  ASSERT_EQ(verify->NumRows(), 1u);
  EXPECT_TRUE(verify->At(0, 3).AsBoolean()) << "replica diverged from DB2";
}

}  // namespace
}  // namespace idaa
