// Workload-management tests: admission control (slots, queue, priority,
// shedding), the plan cache through the Connection front door, the
// replication-aware result cache with precise invalidation, and the
// prepared-statement API. The convergence fuzz at the bottom hammers the
// result cache with concurrent DML + replication + faults and asserts zero
// stale reads against an uncached reference session.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/rng.h"
#include "federation/wlm.h"
#include "idaa/system.h"

namespace idaa {
namespace {

using federation::AdmissionController;
using federation::Priority;
using federation::WlmOptions;

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(WlmAdmissionTest, GrantsUpToTotalSlotsWithoutQueuing) {
  WlmOptions opts;
  opts.total_slots = 3;
  MetricsRegistry metrics;
  HistogramRegistry histos;
  AdmissionController ac(opts, &metrics, &histos);
  std::vector<AdmissionController::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    auto t = ac.Admit("a", Priority::kInteractive, 0);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  EXPECT_EQ(ac.stats().in_use, 3u);
  EXPECT_EQ(ac.stats().queued, 0u);
  for (const auto& t : tickets) ac.Release(t);
  EXPECT_EQ(ac.stats().in_use, 0u);
}

TEST(WlmAdmissionTest, QueueOverflowShedsWithRetryableUnavailable) {
  WlmOptions opts;
  opts.total_slots = 1;
  opts.max_queue_depth = 0;  // no waiting allowed at all
  MetricsRegistry metrics;
  HistogramRegistry histos;
  AdmissionController ac(opts, &metrics, &histos);
  auto held = ac.Admit("a", Priority::kInteractive, 0);
  ASSERT_TRUE(held.ok());
  auto shed = ac.Admit("a", Priority::kInteractive, 0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(shed.status().retryable());
  EXPECT_EQ(ac.stats().shed_queue_full, 1u);
  EXPECT_EQ(metrics.Get(metric::kWlmShedQueueFull), 1);
  ac.Release(*held);
}

TEST(WlmAdmissionTest, DeadlineExpiryShedsWithRetryableTimeout) {
  WlmOptions opts;
  opts.total_slots = 1;
  MetricsRegistry metrics;
  HistogramRegistry histos;
  AdmissionController ac(opts, &metrics, &histos);
  auto held = ac.Admit("a", Priority::kInteractive, 0);
  ASSERT_TRUE(held.ok());
  auto shed = ac.Admit("a", Priority::kInteractive, /*deadline_us=*/2000);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(shed.status().retryable());
  EXPECT_EQ(ac.stats().shed_deadline, 1u);
  ac.Release(*held);
  // Slot free again: same request now succeeds immediately.
  auto ok = ac.Admit("a", Priority::kInteractive, 2000);
  ASSERT_TRUE(ok.ok());
  ac.Release(*ok);
}

TEST(WlmAdmissionTest, PerTenantCapIsEnforcedWhileOthersProceed) {
  WlmOptions opts;
  opts.total_slots = 4;
  opts.per_tenant_slots = 1;
  MetricsRegistry metrics;
  HistogramRegistry histos;
  AdmissionController ac(opts, &metrics, &histos);
  auto a1 = ac.Admit("a", Priority::kInteractive, 0);
  ASSERT_TRUE(a1.ok());
  // Tenant a is at its cap: a second statement times out in the queue...
  auto a2 = ac.Admit("a", Priority::kInteractive, 2000);
  EXPECT_FALSE(a2.ok());
  // ...while tenant b sails through.
  auto b1 = ac.Admit("b", Priority::kInteractive, 2000);
  ASSERT_TRUE(b1.ok());
  ac.Release(*a1);
  ac.Release(*b1);
}

TEST(WlmAdmissionTest, InteractiveIsGrantedBeforeWaitingBatch) {
  WlmOptions opts;
  opts.total_slots = 1;
  MetricsRegistry metrics;
  HistogramRegistry histos;
  AdmissionController ac(opts, &metrics, &histos);
  auto held = ac.Admit("a", Priority::kInteractive, 0);
  ASSERT_TRUE(held.ok());

  std::atomic<int> order{0};
  std::atomic<int> batch_rank{-1};
  std::atomic<int> interactive_rank{-1};
  std::thread batch([&] {
    auto t = ac.Admit("a", Priority::kBatch, 2'000'000);
    ASSERT_TRUE(t.ok());
    batch_rank = order.fetch_add(1);
    ac.Release(*t);
  });
  // Make sure the batch statement is queued before the interactive arrives.
  while (ac.stats().waiting == 0) std::this_thread::yield();
  std::thread interactive([&] {
    auto t = ac.Admit("a", Priority::kInteractive, 2'000'000);
    ASSERT_TRUE(t.ok());
    interactive_rank = order.fetch_add(1);
    // Hold briefly so the ranks are unambiguous.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ac.Release(*t);
  });
  while (ac.stats().waiting < 2) std::this_thread::yield();
  ac.Release(*held);
  batch.join();
  interactive.join();
  EXPECT_LT(interactive_rank.load(), batch_rank.load());
}

TEST(WlmAdmissionTest, DisabledControllerGrantsImmediately) {
  WlmOptions opts;
  opts.enabled = false;
  opts.total_slots = 1;
  MetricsRegistry metrics;
  HistogramRegistry histos;
  AdmissionController ac(opts, &metrics, &histos);
  std::vector<AdmissionController::Ticket> tickets;
  for (int i = 0; i < 10; ++i) {
    auto t = ac.Admit("a", Priority::kBatch, 0);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  for (const auto& t : tickets) ac.Release(t);
}

// ---------------------------------------------------------------------------
// Plan cache through the Connection front door
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, RepeatedStatementShapeHitsTheCache) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1, 10), (2, 20)").ok());

  auto first = system.Execute("SELECT b FROM t WHERE a = 1");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->plan_cache, "miss");
  // Different literal, same shape: served from the cached template.
  auto second = system.Execute("SELECT b FROM t WHERE a = 2");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->plan_cache, "hit");
  ASSERT_EQ(second->rows.NumRows(), 1u);
  EXPECT_EQ(second->rows.At(0, 0).AsInteger(), 20);
  EXPECT_GT(system.metrics().Get(metric::kPlanCacheHits), 0);

  // Opting out bypasses (and does not pollute) the cache.
  federation::ExecOptions opts;
  opts.use_plan_cache = false;
  auto bypass = system.Execute("SELECT b FROM t WHERE a = 1", opts);
  ASSERT_TRUE(bypass.ok());
  EXPECT_EQ(bypass->plan_cache, "bypass");
}

TEST(PlanCacheTest, AdHocStatementWithMarkerIsRejected) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  auto r = system.Execute("SELECT a FROM t WHERE a = ?");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

TEST(PreparedStatementTest, BindAndExecuteRepeatedly) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT, s VARCHAR)").ok());
  ASSERT_TRUE(
      system.Execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").ok());
  auto prepared = system.Prepare("SELECT s FROM t WHERE a = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->num_params(), 1u);
  auto r1 = prepared->Execute({Value::Integer(1)});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_EQ(r1->rows.NumRows(), 1u);
  EXPECT_EQ(r1->rows.At(0, 0).AsVarchar(), "one");
  EXPECT_EQ(r1->plan_cache, "hit");
  auto r2 = prepared->Execute({Value::Integer(2)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.At(0, 0).AsVarchar(), "two");
}

TEST(PreparedStatementTest, ParamCountMismatchFailsCleanly) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT, b INT)").ok());
  auto prepared = system.Prepare("SELECT a FROM t WHERE a = ? AND b = ?");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->num_params(), 2u);
  EXPECT_FALSE(prepared->Bind({Value::Integer(1)}).ok());
  // Execute without any binding is also rejected.
  auto unbound = prepared->Execute();
  EXPECT_FALSE(unbound.ok());
  EXPECT_TRUE(
      prepared->Execute({Value::Integer(1), Value::Integer(2)}).ok());
}

TEST(PreparedStatementTest, MarkerInsideStringLiteralIsNotAParam) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (s VARCHAR)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES ('what?')").ok());
  auto prepared = system.Prepare("SELECT s FROM t WHERE s = 'what?'");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->num_params(), 0u);
  auto r = prepared->Execute();
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.NumRows(), 1u);
}

TEST(PreparedStatementTest, NegativeAndMixedParams) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT, b DOUBLE)").ok());
  auto ins = system.Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(ins->Execute({Value::Integer(-5), Value::Double(2.5)}).ok());
  ASSERT_TRUE(ins->Execute({Value::Integer(7), Value::Double(-0.5)}).ok());
  auto rs = system.Query("SELECT a FROM t WHERE a < 0");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsInteger(), -5);
}

TEST(PreparedStatementTest, NonCacheableKindsStillPrepareAndExecute) {
  IdaaSystem system;
  auto ddl = system.Prepare("CREATE TABLE t (a INT)");
  ASSERT_TRUE(ddl.ok());
  EXPECT_EQ(ddl->num_params(), 0u);
  ASSERT_TRUE(ddl->Execute().ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  auto rs = system.Query("SELECT a FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 1u);
}

TEST(PreparedStatementTest, CachedMatchesFreshUnderConcurrentGroom) {
  // Differential check: a prepared/cached SELECT must agree with an
  // uncached fresh parse while GROOM reorganizes the table underneath.
  SystemOptions options;
  options.accelerator.zone_size = 64;
  IdaaSystem system(options);
  ASSERT_TRUE(system.Execute("CREATE TABLE g (id INT, v INT)").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(system
                    .Execute("INSERT INTO g VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i * 3) + ")")
                    .ok());
  }
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('g')").ok());

  auto prepared = system.Prepare("SELECT v FROM g WHERE id = ?");
  ASSERT_TRUE(prepared.ok());
  std::atomic<bool> stop{false};
  std::thread groomer([&] {
    auto conn = system.NewConnection();
    while (!stop) {
      (void)conn->Execute("CALL SYSPROC.ACCEL_GROOM()");
      std::this_thread::yield();
    }
  });
  federation::ExecOptions raw;
  raw.use_plan_cache = false;
  raw.use_result_cache = false;
  auto ref_conn = system.NewConnection();
  for (int round = 0; round < 50; ++round) {
    int id = round * 4 % 200;
    auto cached = prepared->Execute({Value::Integer(id)});
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ref_conn->Execute(
        "SELECT v FROM g WHERE id = " + std::to_string(id), raw);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ASSERT_EQ(cached->rows.NumRows(), fresh->rows.NumRows());
    ASSERT_EQ(cached->rows.NumRows(), 1u);
    EXPECT_EQ(cached->rows.At(0, 0).AsInteger(),
              fresh->rows.At(0, 0).AsInteger());
  }
  stop = true;
  groomer.join();
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, SecondIdenticalSelectIsServedFromCache) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1), (2)").ok());
  auto first = system.Execute("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->result_cache, "store");
  auto second = system.Execute("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->result_cache, "hit");
  ASSERT_EQ(second->rows.NumRows(), 2u);
  EXPECT_EQ(second->rows.At(1, 0).AsInteger(), 2);
  EXPECT_GT(system.metrics().Get(metric::kResultCacheHits), 0);
}

TEST(ResultCacheTest, DifferentParamsAreDifferentEntries) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1), (2)").ok());
  ASSERT_TRUE(system.Execute("SELECT a FROM t WHERE a = 1").ok());
  // Same plan shape, different literal: must NOT hit the first result.
  auto other = system.Execute("SELECT a FROM t WHERE a = 2");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->plan_cache, "hit");
  EXPECT_NE(other->result_cache, "hit");
  ASSERT_EQ(other->rows.NumRows(), 1u);
  EXPECT_EQ(other->rows.At(0, 0).AsInteger(), 2);
}

TEST(ResultCacheTest, DmlEvictsExactlyTheWrittenTable) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("CREATE TABLE u (b INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO u VALUES (10)").ok());
  ASSERT_TRUE(system.Execute("SELECT a FROM t").ok());
  ASSERT_TRUE(system.Execute("SELECT b FROM u").ok());

  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (2)").ok());

  // t's entry is gone — and the fresh read sees the new row...
  auto t_read = system.Execute("SELECT a FROM t");
  ASSERT_TRUE(t_read.ok());
  EXPECT_NE(t_read->result_cache, "hit");
  EXPECT_EQ(t_read->rows.NumRows(), 2u);
  // ...while u's untouched entry still serves.
  auto u_read = system.Execute("SELECT b FROM u");
  ASSERT_TRUE(u_read.ok());
  EXPECT_EQ(u_read->result_cache, "hit");
}

TEST(ResultCacheTest, JoinEvictsWhenEitherSideChanges) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE f (id INT, d INT)").ok());
  ASSERT_TRUE(system.Execute("CREATE TABLE d (id INT, name VARCHAR)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO f VALUES (1, 1)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO d VALUES (1, 'x')").ok());
  const std::string join =
      "SELECT name FROM f JOIN d ON f.d = d.id ORDER BY name";
  ASSERT_TRUE(system.Execute(join).ok());
  auto hit = system.Execute(join);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->result_cache, "hit");
  // Writing the dimension side must evict the join's cached result.
  ASSERT_TRUE(system.Execute("INSERT INTO d VALUES (2, 'y')").ok());
  auto after = system.Execute(join);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->result_cache, "hit");
  // And writing the fact side likewise.
  ASSERT_TRUE(system.Execute(join).ok());
  ASSERT_TRUE(system.Execute("INSERT INTO f VALUES (2, 2)").ok());
  auto after2 = system.Execute(join);
  ASSERT_TRUE(after2.ok());
  EXPECT_NE(after2->result_cache, "hit");
  EXPECT_EQ(after2->rows.NumRows(), 2u);
}

TEST(ResultCacheTest, ExplicitTransactionBypassesTheCache) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(system.Execute("SELECT a FROM t").ok());
  ASSERT_TRUE(system.Begin().ok());
  // Inside the txn: no cached serve (snapshot semantics), no store.
  auto in_txn = system.Execute("SELECT a FROM t");
  ASSERT_TRUE(in_txn.ok());
  EXPECT_EQ(in_txn->result_cache, "bypass");
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (2)").ok());
  ASSERT_TRUE(system.Commit().ok());
  // The commit evicted t: next read sees both rows.
  auto after = system.Execute("SELECT a FROM t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.NumRows(), 2u);
}

TEST(ResultCacheTest, RolledBackTransactionDoesNotServeStaleEither) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(system.Execute("SELECT a FROM t").ok());
  ASSERT_TRUE(system.Begin().ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (2)").ok());
  ASSERT_TRUE(system.Rollback().ok());
  auto after = system.Execute("SELECT a FROM t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.NumRows(), 1u);
}

TEST(ResultCacheTest, RevokeBlocksCachedServe) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  auto conn = system.NewConnection();
  conn->SetUser("alice");
  system.authorization().CreateUser("alice");
  ASSERT_TRUE(system.authorization()
                  .Grant("alice", "T", governance::Privilege::kSelect)
                  .ok());
  ASSERT_TRUE(conn->Execute("SELECT a FROM t").ok());
  auto hit = conn->Execute("SELECT a FROM t");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->result_cache, "hit");
  // Revoke between hits: the cached entry must not leak past governance.
  ASSERT_TRUE(system.authorization()
                  .Revoke("alice", "T", governance::Privilege::kSelect)
                  .ok());
  auto denied = conn->Execute("SELECT a FROM t");
  EXPECT_FALSE(denied.ok());
}

TEST(ResultCacheTest, ReplicationApplyEvictsExactlyTheAppliedTable) {
  SystemOptions options;
  options.replication_batch_size = 0;  // manual Flush
  IdaaSystem system(options);
  ASSERT_TRUE(system.Execute("CREATE TABLE r (a INT)").ok());
  ASSERT_TRUE(system.Execute("CREATE TABLE s (b INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO r VALUES (1)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO s VALUES (1)").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('r')").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('s')").ok());
  ASSERT_TRUE(system.Execute("SELECT COUNT(*) FROM r").ok());
  ASSERT_TRUE(system.Execute("SELECT COUNT(*) FROM s").ok());

  // Write r through DB2 and apply the captured batch to the replica.
  ASSERT_TRUE(system.Execute("INSERT INTO r VALUES (2)").ok());
  ASSERT_TRUE(system.replication().Flush().ok());

  auto r_read = system.Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(r_read.ok());
  EXPECT_NE(r_read->result_cache, "hit");
  EXPECT_EQ(r_read->rows.At(0, 0).AsInteger(), 2);
  auto s_read = system.Execute("SELECT COUNT(*) FROM s");
  ASSERT_TRUE(s_read.ok());
  EXPECT_EQ(s_read->result_cache, "hit");
}

TEST(ResultCacheTest, DisabledWlmNeverServesOrStores) {
  SystemOptions options;
  options.wlm.enabled = false;
  IdaaSystem system(options);
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  auto first = system.Execute("SELECT a FROM t");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->result_cache, "bypass");
  auto second = system.Execute("SELECT a FROM t");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->result_cache, "bypass");
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE surfacing
// ---------------------------------------------------------------------------

TEST(WlmExplainTest, ExplainAnalyzeShowsWlmDecisions) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  // Warm the plan cache with the inner statement shape.
  ASSERT_TRUE(system.Execute("SELECT a FROM t WHERE a = 1").ok());
  auto explain = system.Execute("EXPLAIN ANALYZE SELECT a FROM t WHERE a = 1");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  bool found_wlm = false;
  std::string detail;
  for (size_t i = 0; i < explain->rows.NumRows(); ++i) {
    if (explain->rows.At(i, 0).AsVarchar() == "wlm") {
      found_wlm = true;
      detail = explain->rows.At(i, 2).AsVarchar();
    }
  }
  ASSERT_TRUE(found_wlm) << "no wlm row in EXPLAIN ANALYZE output";
  EXPECT_NE(detail.find("plan_cache="), std::string::npos);
  // The warm-up run stored the inner SELECT's result, so the wlm row must
  // report the hit a bare re-execution would get.
  EXPECT_NE(detail.find("result_cache=hit"), std::string::npos) << detail;
  EXPECT_NE(detail.find("tenant=default"), std::string::npos);
  EXPECT_NE(detail.find("queued_us="), std::string::npos);
  EXPECT_NE(detail.find("slot="), std::string::npos);
}

TEST(WlmExplainTest, ExplainAnalyzeReportsInnerSelectCacheState) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (1)").ok());
  auto WlmDetail = [&](const std::string& sql) -> std::string {
    auto explain = system.Execute(sql);
    EXPECT_TRUE(explain.ok()) << explain.status().ToString();
    if (!explain.ok()) return "";
    for (size_t i = 0; i < explain->rows.NumRows(); ++i) {
      if (explain->rows.At(i, 0).AsVarchar() == "wlm") {
        return explain->rows.At(i, 2).AsVarchar();
      }
    }
    return "";
  };
  // Nothing cached yet: a bare run of the inner SELECT would miss.
  EXPECT_NE(WlmDetail("EXPLAIN ANALYZE SELECT a FROM t WHERE a = 1")
                .find("result_cache=miss"),
            std::string::npos);
  // Prime through the front door; the same shape + params now reports a hit
  // (lowercase prefix exercises the case-insensitive EXPLAIN ANALYZE strip).
  ASSERT_TRUE(system.Execute("SELECT a FROM t WHERE a = 1").ok());
  EXPECT_NE(WlmDetail("explain analyze SELECT a FROM t WHERE a = 1")
                .find("result_cache=hit"),
            std::string::npos);
  // Different literal values are a distinct cache entry — still a miss.
  EXPECT_NE(WlmDetail("EXPLAIN ANALYZE SELECT a FROM t WHERE a = 2")
                .find("result_cache=miss"),
            std::string::npos);
  // An invalidating write evicts: back to miss.
  ASSERT_TRUE(system.Execute("INSERT INTO t VALUES (3)").ok());
  EXPECT_NE(WlmDetail("EXPLAIN ANALYZE SELECT a FROM t WHERE a = 1")
                .find("result_cache=miss"),
            std::string::npos);
}

TEST(WlmExplainTest, StatementResultCarriesTenantAndSlot) {
  IdaaSystem system;
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  federation::ExecOptions opts;
  opts.tenant_id = "analytics";
  auto r = system.Execute("SELECT a FROM t", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->tenant, "analytics");
  EXPECT_GT(r->slot, 0u);  // WLM gated (auto-commit, enabled)
}

// ---------------------------------------------------------------------------
// Overload shedding through the SQL front door
// ---------------------------------------------------------------------------

TEST(WlmOverloadTest, ShedStatementsFailFastAndRetryable) {
  SystemOptions options;
  options.wlm.total_slots = 1;
  options.wlm.max_queue_depth = 1;
  IdaaSystem system(options);
  ASSERT_TRUE(system.Execute("CREATE TABLE t (a INT)").ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        system.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")")
            .ok());
  }

  constexpr int kThreads = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> non_retryable{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto conn = system.NewConnection();
      federation::ExecOptions opts;
      opts.deadline_us = 500;  // shed quickly under contention
      opts.use_result_cache = false;
      for (int q = 0; q < 25; ++q) {
        auto r = conn->Execute("SELECT COUNT(*), SUM(a) FROM t GROUP BY a",
                               opts);
        if (r.ok()) {
          ++ok_count;
        } else {
          ++shed_count;
          if (!r.status().retryable()) ++non_retryable;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_GT(shed_count.load(), 0) << "overload never shed anything";
  EXPECT_EQ(non_retryable.load(), 0)
      << "shed statements must carry a retryable Status";
}

// ---------------------------------------------------------------------------
// Convergence fuzz: zero stale reads under random DML + replication + faults
// ---------------------------------------------------------------------------

std::vector<std::string> CanonicalRows(const ResultSet& rs) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    std::string line;
    for (size_t j = 0; j < rs.schema().columns().size(); ++j) {
      line += rs.At(i, j).ToString();
      line += "|";
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

class WlmConvergenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WlmConvergenceFuzz, ResultCacheNoStaleReadsUnderFaults) {
  SystemOptions options;
  options.replication_batch_size = 0;  // Flush is a fuzz action
  options.accelerator.zone_size = 32;
  IdaaSystem system(options);
  ASSERT_TRUE(system.Execute("CREATE TABLE t0 (id INT, v INT)").ok());
  ASSERT_TRUE(system.Execute("CREATE TABLE t1 (id INT, v INT)").ok());
  ASSERT_TRUE(system.Execute("CREATE TABLE t2 (id INT, v INT)").ok());
  for (int i = 0; i < 40; ++i) {
    for (const char* t : {"t0", "t1", "t2"}) {
      ASSERT_TRUE(system
                      .Execute("INSERT INTO " + std::string(t) + " VALUES (" +
                               std::to_string(i) + ", " +
                               std::to_string(i * 2) + ")")
                      .ok());
    }
  }
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('t0')").ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('t1')").ok());

  FaultSpec spec;
  spec.probability = 0.1;
  system.fault_injector().ArmChannel(spec);
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"), spec);

  Rng rng(GetParam());
  auto cached_conn = system.NewConnection();
  auto fresh_conn = system.NewConnection();
  federation::ExecOptions raw;
  raw.use_plan_cache = false;
  raw.use_result_cache = false;

  const std::vector<std::string> queries = {
      "SELECT COUNT(*), SUM(v) FROM t0",
      "SELECT COUNT(*), SUM(v) FROM t1",
      "SELECT COUNT(*), SUM(v) FROM t2",
      "SELECT id, v FROM t0 WHERE id < 10 ORDER BY id",
      "SELECT t0.id, t1.v FROM t0 JOIN t1 ON t0.id = t1.id "
      "WHERE t0.id < 5 ORDER BY t0.id",
  };

  auto run_with_retries =
      [&](Connection& conn, const std::string& sql,
          const federation::ExecOptions& opts)
      -> Result<federation::StatementResult> {
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto r = conn.Execute(sql, opts);
      if (r.ok()) return r;
      EXPECT_TRUE(r.status().retryable() ||
                  r.status().code() == StatusCode::kConflict)
          << sql << ": " << r.status().ToString();
      std::this_thread::yield();
    }
    return Status::Internal("retries exhausted for: " + sql);
  };

  int stale_reads = 0;
  int cache_hits = 0;
  for (int step = 0; step < 300; ++step) {
    int dice = static_cast<int>(rng.Uniform(0, 99));
    if (dice < 55) {
      // Cached read, then an uncached reference read of the same query with
      // no intervening mutation: any mismatch is a stale serve.
      const std::string& q =
          queries[rng.Uniform(0, static_cast<int>(queries.size()) - 1)];
      auto cached = run_with_retries(*cached_conn, q, {});
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      if (cached->result_cache == "hit") ++cache_hits;
      auto fresh = run_with_retries(*fresh_conn, q, raw);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      if (CanonicalRows(cached->rows) != CanonicalRows(fresh->rows)) {
        ++stale_reads;
        ADD_FAILURE() << "stale read (cache=" << cached->result_cache
                      << ") for: " << q;
      }
    } else if (dice < 85) {
      const char* tables[] = {"t0", "t1", "t2"};
      const std::string t = tables[rng.Uniform(0, 2)];
      int id = static_cast<int>(rng.Uniform(0, 39));
      std::string dml;
      switch (rng.Uniform(0, 2)) {
        case 0:
          dml = "INSERT INTO " + t + " VALUES (" + std::to_string(id) + ", " +
                std::to_string(step) + ")";
          break;
        case 1:
          dml = "UPDATE " + t + " SET v = " + std::to_string(step) +
                " WHERE id = " + std::to_string(id);
          break;
        default:
          dml = "DELETE FROM " + t + " WHERE id = " + std::to_string(id);
          break;
      }
      auto r = cached_conn->Execute(dml);
      if (!r.ok()) {
        EXPECT_TRUE(r.status().retryable() ||
                    r.status().code() == StatusCode::kConflict)
            << dml << ": " << r.status().ToString();
      }
    } else if (dice < 95) {
      auto flushed = system.replication().Flush();
      if (!flushed.ok()) {
        EXPECT_TRUE(flushed.status().retryable())
            << flushed.status().ToString();
      }
    } else {
      // Explicit transaction: writes must only evict at commit.
      ASSERT_TRUE(cached_conn->Begin().ok());
      int id = static_cast<int>(rng.Uniform(0, 39));
      auto w = cached_conn->Execute("UPDATE t2 SET v = " +
                                    std::to_string(step) + " WHERE id = " +
                                    std::to_string(id));
      if (!w.ok()) {
        EXPECT_TRUE(w.status().retryable() ||
                    w.status().code() == StatusCode::kConflict);
      }
      if (rng.Uniform(0, 1) == 0) {
        (void)cached_conn->Commit();
      } else {
        (void)cached_conn->Rollback();
      }
    }
  }
  system.fault_injector().Reset();
  EXPECT_EQ(stale_reads, 0) << "seed " << GetParam();
  EXPECT_GT(cache_hits, 0) << "fuzz never exercised a cached serve; seed "
                           << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WlmConvergenceFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace idaa
