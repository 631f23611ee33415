// Fault-tolerance suite: seeded fault injection at the DB2 <-> accelerator
// boundary, bounded-backoff retry, failback-to-DB2 under ENABLE WITH
// FAILBACK, per-accelerator circuit breakers, and replication convergence
// across an offline -> online cycle. The injector is deterministic, so a
// failing run replays exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "federation/health_monitor.h"
#include "idaa/system.h"

namespace idaa {
namespace {

using federation::AccelerationMode;
using federation::BreakerState;
using federation::ExecOptions;
using federation::StatementResult;
using federation::Target;

// ---------------------------------------------------------------------------
// Status taxonomy

TEST(StatusTaxonomyTest, RetryableCodesAndFactories) {
  EXPECT_TRUE(IsRetryableCode(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetryableCode(StatusCode::kChannelError));
  EXPECT_TRUE(IsRetryableCode(StatusCode::kTimeout));
  EXPECT_FALSE(IsRetryableCode(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableCode(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryableCode(StatusCode::kConflict));

  Status u = Status::Unavailable("down");
  EXPECT_TRUE(u.IsUnavailable());
  EXPECT_TRUE(u.retryable());
  EXPECT_EQ(u.ToString(), "Unavailable: down");

  Status c = Status::ChannelError("flaky");
  EXPECT_TRUE(c.retryable());
  EXPECT_EQ(c.ToString(), "ChannelError: flaky");

  Status t = Status::Timeout("slow");
  EXPECT_TRUE(t.IsTimeout());
  EXPECT_TRUE(t.retryable());
  EXPECT_EQ(t.ToString(), "Timeout: slow");

  EXPECT_FALSE(Status::SemanticError("no").retryable());
  EXPECT_FALSE(Status::OK().retryable());
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, SeededRunsReplayExactly) {
  FaultSpec spec;
  spec.probability = 0.5;
  FaultInjector a(7);
  FaultInjector b(7);
  a.Arm("site", spec);
  b.Arm("site", spec);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.MaybeFail("site").ok(), b.MaybeFail("site").ok());
  }
  EXPECT_EQ(a.TotalInjected(), b.TotalInjected());
  EXPECT_GT(a.TotalInjected(), 0u);
  EXPECT_LT(a.TotalInjected(), 200u);
}

TEST(FaultInjectorTest, MaxFailuresScriptsFailThenRecover) {
  FaultInjector injector(1);
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_failures = 2;
  injector.Arm("s", spec);
  EXPECT_FALSE(injector.MaybeFail("s").ok());
  EXPECT_FALSE(injector.MaybeFail("s").ok());
  EXPECT_TRUE(injector.MaybeFail("s").ok());  // budget exhausted -> recovers
  EXPECT_EQ(injector.InjectedCount("s"), 2u);

  injector.Disarm("s");
  EXPECT_TRUE(injector.MaybeFail("s").ok());
  EXPECT_TRUE(injector.MaybeFail("unarmed-site").ok());
}

TEST(FaultInjectorTest, InjectedCodeAndMessageNameTheSite) {
  FaultInjector injector(1);
  FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kTimeout;
  injector.Arm("channel.statement", spec);
  Status s = injector.MaybeFail("channel.statement");
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_NE(s.message().find("channel.statement"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RetryWithBackoff

TEST(RetryTest, RetriesUntilSuccess) {
  RetryPolicy policy;
  policy.initial_backoff_us = 1;
  policy.max_backoff_us = 10;
  int calls = 0;
  RetryOutcome outcome = RetryWithBackoff(policy, {}, [&calls] {
    ++calls;
    return calls < 3 ? Status::ChannelError("flaky") : Status::OK();
  });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.retries, 2u);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, TerminalErrorReturnsImmediately) {
  int calls = 0;
  RetryOutcome outcome = RetryWithBackoff({}, {}, [&calls] {
    ++calls;
    return Status::InvalidArgument("bad");
  });
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, UnavailableShortCircuitsTheSchedule) {
  // kUnavailable means "known down" — burning the backoff schedule on it
  // is pointless; the caller decides between failback and error.
  int calls = 0;
  RetryOutcome outcome = RetryWithBackoff({}, {}, [&calls] {
    ++calls;
    return Status::Unavailable("offline");
  });
  EXPECT_TRUE(outcome.status.IsUnavailable());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, DeadlineExhaustionSurfacesAsTimeout) {
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_us = 500;
  policy.backoff_multiplier = 1.0;
  policy.deadline_us = 2000;
  int calls = 0;
  RetryOutcome outcome = RetryWithBackoff(policy, {}, [&calls] {
    ++calls;
    return Status::ChannelError("still flaky");
  });
  EXPECT_TRUE(outcome.status.IsTimeout()) << outcome.status.ToString();
  EXPECT_NE(outcome.status.message().find("retry deadline exceeded"),
            std::string::npos);
  EXPECT_LT(calls, 1000);
}

// ---------------------------------------------------------------------------
// HealthMonitor (circuit breaker)

TEST(HealthMonitorTest, TripsAfterThresholdAndProbesAfterCooldown) {
  federation::HealthMonitor hm;
  hm.set_trip_threshold(3);
  hm.set_cooldown_us(0);  // probe immediately

  EXPECT_EQ(hm.state("A"), BreakerState::kClosed);
  hm.RecordFailure("A");
  hm.RecordFailure("A");
  EXPECT_EQ(hm.state("A"), BreakerState::kClosed);
  EXPECT_TRUE(hm.AllowRequest("A"));
  hm.RecordFailure("A");
  EXPECT_EQ(hm.state("A"), BreakerState::kOpen);
  EXPECT_EQ(hm.trips("A"), 1u);

  // Probeable never consumes the half-open probe slot; AllowRequest does.
  EXPECT_TRUE(hm.Probeable("A"));
  EXPECT_TRUE(hm.Probeable("A"));
  EXPECT_TRUE(hm.AllowRequest("A"));   // the single probe
  EXPECT_EQ(hm.state("A"), BreakerState::kHalfOpen);
  EXPECT_FALSE(hm.AllowRequest("A"));  // probe outstanding
  EXPECT_FALSE(hm.Probeable("A"));

  // Failed probe re-opens; successful probe closes.
  hm.RecordFailure("A");
  EXPECT_EQ(hm.state("A"), BreakerState::kOpen);
  EXPECT_EQ(hm.trips("A"), 2u);
  EXPECT_TRUE(hm.AllowRequest("A"));
  hm.RecordSuccess("A");
  EXPECT_EQ(hm.state("A"), BreakerState::kClosed);
  EXPECT_EQ(hm.consecutive_failures("A"), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end through IdaaSystem

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SeedAccelerated(IdaaSystem& system, int rows = 40) {
    ASSERT_TRUE(
        system.Execute("CREATE TABLE t (id INT NOT NULL, v INT, "
                          "region VARCHAR)")
            .ok());
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(system
                      .Execute(StrFormat(
                          "INSERT INTO t VALUES (%d, %d, '%s')", i, i * 3,
                          i % 2 == 0 ? "EAST" : "WEST"))
                      .ok());
    }
    ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('t')").ok());
  }

  // Keep retry sleeps out of the test runtime.
  void FastRetries(IdaaSystem& system, int max_attempts = 4) {
    RetryPolicy policy;
    policy.max_attempts = max_attempts;
    policy.initial_backoff_us = 1;
    policy.max_backoff_us = 20;
    system.federation().set_retry_policy(policy);
  }
};

TEST_F(FaultToleranceTest, TransientChannelFaultIsRetriedTransparently) {
  IdaaSystem system;
  SeedAccelerated(system);
  FastRetries(system);

  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_failures = 2;  // fails twice, then the link recovers
  system.fault_injector().Arm(fault_site::kChannelStatement, spec);

  ExecOptions opts;
  opts.acceleration = AccelerationMode::kEligible;
  auto result =
      system.Execute("SELECT COUNT(*) FROM t WHERE v >= 0", opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.At(0, 0).AsInteger(), 40);
  EXPECT_EQ(result->routed_to, Target::kAccelerator);
  EXPECT_FALSE(result->failed_back);
  EXPECT_EQ(result->retries, 2u);
  EXPECT_GE(system.metrics().Get(metric::kFederationRetries), 2u);
  EXPECT_EQ(system.metrics().Get(metric::kFaultsInjected), 2u);
}

TEST_F(FaultToleranceTest, RetryDeadlineSurfacesAsTimeout) {
  IdaaSystem system;
  SeedAccelerated(system);
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_us = 500;
  policy.backoff_multiplier = 1.0;
  system.federation().set_retry_policy(policy);

  FaultSpec spec;
  spec.probability = 1.0;  // never recovers
  system.fault_injector().Arm(fault_site::kChannelStatement, spec);

  ExecOptions opts;
  opts.acceleration = AccelerationMode::kEligible;
  opts.deadline_us = 3000;
  auto result = system.Execute("SELECT COUNT(*) FROM t", opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_NE(result.status().message().find("retry deadline exceeded"),
            std::string::npos);
}

TEST_F(FaultToleranceTest, OfflineErrorNamesAcceleratorAndStatement) {
  IdaaSystem system;
  SeedAccelerated(system);
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_CONTROL('ACCEL1', 'OFFLINE')")
          .ok());

  // ELIGIBLE (no failback): the offline accelerator is a user-visible
  // kUnavailable naming the accelerator and the statement kind.
  ExecOptions opts;
  opts.acceleration = AccelerationMode::kEligible;
  auto select = system.Execute("SELECT COUNT(*) FROM t", opts);
  ASSERT_FALSE(select.ok());
  EXPECT_TRUE(select.status().IsUnavailable());
  EXPECT_NE(select.status().message().find("ACCEL1"), std::string::npos);
  EXPECT_NE(select.status().message().find("SELECT"), std::string::npos);
  EXPECT_NE(select.status().message().find("offline"), std::string::npos);
}

TEST_F(FaultToleranceTest, FailbackToDb2WhenAcceleratorOffline) {
  IdaaSystem system;
  SeedAccelerated(system);
  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_CONTROL('ACCEL1', 'OFFLINE')")
          .ok());

  ASSERT_TRUE(system
                  .Execute("SET CURRENT QUERY ACCELERATION = "
                              "ENABLE WITH FAILBACK")
                  .ok());
  auto result = system.Execute(
      "SELECT region, SUM(v) FROM t GROUP BY region ORDER BY region");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->failed_back);
  EXPECT_EQ(result->routed_to, Target::kDb2);
  EXPECT_EQ(result->rows.NumRows(), 2u);
  EXPECT_NE(result->detail.find("failback"), std::string::npos);
}

TEST_F(FaultToleranceTest, FailbackAfterRetriesExhaustedMidExecution) {
  IdaaSystem system;
  SeedAccelerated(system);
  FastRetries(system, /*max_attempts=*/2);

  // Accelerator stays Online; the channel is just broken for good.
  FaultSpec spec;
  spec.probability = 1.0;
  system.fault_injector().Arm(fault_site::kChannelStatement, spec);

  ExecOptions opts;
  opts.acceleration = AccelerationMode::kEnableWithFailback;
  auto result = system.Execute(
      "SELECT region, SUM(v) FROM t GROUP BY region ORDER BY region", opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->failed_back);
  EXPECT_EQ(result->routed_to, Target::kDb2);
  EXPECT_GE(result->retries, 1u);
  EXPECT_NE(result->detail.find("failed back to DB2"), std::string::npos);
  EXPECT_GE(system.metrics().Get(metric::kFederationFailbacks), 1u);

  // Same statement without failback: the error reaches the user.
  opts.acceleration = AccelerationMode::kEligible;
  auto no_failback = system.Execute("SELECT SUM(v) FROM t", opts);
  ASSERT_FALSE(no_failback.ok());
  EXPECT_TRUE(no_failback.status().retryable());
}

TEST_F(FaultToleranceTest, AotCannotFailBack) {
  IdaaSystem system;
  FastRetries(system, /*max_attempts=*/2);
  ASSERT_TRUE(
      system.Execute("CREATE TABLE stage (id INT, v INT) IN ACCELERATOR")
          .ok());
  ASSERT_TRUE(system.Execute("INSERT INTO stage VALUES (1, 1)").ok());

  FaultSpec spec;
  spec.probability = 1.0;
  system.fault_injector().Arm(fault_site::kChannelStatement, spec);

  ExecOptions opts;
  opts.acceleration = AccelerationMode::kEnableWithFailback;
  auto result = system.Execute("SELECT COUNT(*) FROM stage", opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().retryable());
  EXPECT_NE(result.status().message().find("cannot fail back"),
            std::string::npos);
}

TEST_F(FaultToleranceTest, MidTransactionOutageFailsBackWithSameSnapshot) {
  IdaaSystem system;
  SeedAccelerated(system);
  system.SetAccelerationMode(AccelerationMode::kEnableWithFailback);

  ASSERT_TRUE(system.Begin().ok());
  ExecOptions opts;
  opts.acceleration = AccelerationMode::kEligible;  // force accel route
  auto before = system.Execute("SELECT COUNT(*) FROM t", opts);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->routed_to, Target::kAccelerator);

  // Outage strikes mid-transaction (admin action from another session).
  system.accelerator(0).SetState(accel::AcceleratorState::kOffline);

  auto after = system.Execute(
      "SELECT COUNT(*) FROM t");  // session mode: ENABLE WITH FAILBACK
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->failed_back);
  EXPECT_EQ(after->routed_to, Target::kDb2);
  // Same transaction, same snapshot: both engines agree on the count.
  EXPECT_EQ(before->rows.At(0, 0).AsInteger(),
            after->rows.At(0, 0).AsInteger());
  ASSERT_TRUE(system.Commit().ok());
  system.accelerator(0).SetState(accel::AcceleratorState::kOnline);
}

TEST_F(FaultToleranceTest, BreakerTripsAfterConsecutiveFailuresAndRecovers) {
  IdaaSystem system;
  SeedAccelerated(system);
  FastRetries(system, /*max_attempts=*/1);
  // Long cooldown first: an open breaker must deflect routing. Dropped to
  // zero later to let the recovery probe through.
  system.federation().health().set_cooldown_us(60'000'000);

  FaultSpec spec;
  spec.probability = 1.0;
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"), spec);

  ExecOptions opts;
  opts.acceleration = AccelerationMode::kEligible;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(system.Execute("SELECT COUNT(*) FROM t", opts).ok());
  }
  EXPECT_EQ(system.federation().health().state("ACCEL1"),
            BreakerState::kOpen);
  EXPECT_EQ(system.federation().health().trips("ACCEL1"), 1u);
  EXPECT_GE(system.metrics().Get(metric::kBreakerTrips), 1u);

  // Open breaker + failback mode: the router pre-fails-back without even
  // trying the accelerator (Probeable is false while the cooldown runs).
  ExecOptions failback;
  failback.acceleration = AccelerationMode::kEnableWithFailback;
  auto routed = system.Execute(
      "SELECT region, COUNT(*) FROM t GROUP BY region", failback);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->failed_back);
  EXPECT_EQ(routed->routed_to, Target::kDb2);
  EXPECT_NE(routed->detail.find("unhealthy"), std::string::npos);

  // Breaker rejection without failback is a clear user-visible error.
  ExecOptions eligible = opts;
  auto rejected = system.Execute("SELECT COUNT(*) FROM t", eligible);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("circuit breaker is open"),
            std::string::npos);

  // Fault repaired + cooldown over: the next eligible statement is the
  // probe; its success closes the breaker.
  system.federation().health().set_cooldown_us(0);
  system.fault_injector().Disarm(FaultInjector::AcceleratorSite("ACCEL1"));
  auto probe = system.Execute("SELECT COUNT(*) FROM t", opts);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(system.federation().health().state("ACCEL1"),
            BreakerState::kClosed);
}

TEST_F(FaultToleranceTest, AotInsertSelectFailsBackWhileBreakerIsOpen) {
  IdaaSystem system;
  SeedAccelerated(system);
  FastRetries(system, /*max_attempts=*/1);
  system.federation().health().set_cooldown_us(60'000'000);
  ASSERT_TRUE(
      system.Execute("CREATE TABLE stage (id INT, v INT) IN ACCELERATOR")
          .ok());
  FaultSpec spec;
  spec.probability = 1.0;
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"), spec);
  ExecOptions eligible;
  eligible.acceleration = AccelerationMode::kEligible;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(system.Execute("SELECT COUNT(*) FROM t", eligible).ok());
  }
  system.fault_injector().Disarm(FaultInjector::AcceleratorSite("ACCEL1"));
  ASSERT_EQ(system.federation().health().state("ACCEL1"),
            BreakerState::kOpen);

  // Without failback the open breaker rejects the statement.
  auto rejected =
      system.Execute("INSERT INTO stage SELECT id, v FROM t", eligible);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().retryable());
  EXPECT_NE(rejected.status().message().find("circuit breaker is open"),
            std::string::npos);

  // With failback the SELECT runs on DB2 and its rows are shipped to the
  // AOT, as for a SELECT that could not run on the accelerator.
  ExecOptions failback;
  failback.acceleration = AccelerationMode::kEnableWithFailback;
  auto inserted =
      system.Execute("INSERT INTO stage SELECT id, v FROM t", failback);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_TRUE(inserted->failed_back);
  EXPECT_EQ(inserted->rows_affected, 40u);

  system.federation().health().set_cooldown_us(0);
  auto count = system.Execute("SELECT COUNT(*), SUM(v) FROM stage", eligible);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows.At(0, 0).AsInteger(), 40);
  EXPECT_EQ(count->rows.At(0, 1).AsInteger(), 3 * (39 * 40 / 2));
}

TEST_F(FaultToleranceTest, AotInsertSelectFailsBackWhenSelectCannotRun) {
  IdaaSystem system;
  SeedAccelerated(system);
  FastRetries(system, /*max_attempts=*/2);
  ASSERT_TRUE(
      system.Execute("CREATE TABLE stage (id INT, v INT) IN ACCELERATOR")
          .ok());
  FaultSpec spec;
  spec.probability = 1.0;
  system.fault_injector().Arm(fault_site::kChannelStatement, spec);
  ExecOptions failback;
  failback.acceleration = AccelerationMode::kEnableWithFailback;
  auto inserted = system.Execute(
      "INSERT INTO stage SELECT id, SUM(v) FROM t GROUP BY id", failback);
  system.fault_injector().Disarm(fault_site::kChannelStatement);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_TRUE(inserted->failed_back);
  EXPECT_GE(inserted->retries, 1u);
  EXPECT_EQ(inserted->rows_affected, 40u);
  auto count = system.Execute("SELECT COUNT(*) FROM stage");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows.At(0, 0).AsInteger(), 40);
}

TEST_F(FaultToleranceTest, AotInsertSelectAppendFaultDoesNotFailBack) {
  // The SELECT over a broadcast table runs on shard 0; only the append
  // reaches shard 3. A failed append cannot fail back: re-running the
  // SELECT on DB2 would only append to the same AOT again.
  SystemOptions options;
  options.accelerator_shards = 4;
  IdaaSystem system(options);
  FastRetries(system, /*max_attempts=*/2);
  ASSERT_TRUE(system.Execute("CREATE TABLE d (id INT)").ok());
  std::string values;
  for (int i = 0; i < 100; ++i) {
    values += StrFormat("%s(%d)", values.empty() ? "" : ", ", i);
  }
  ASSERT_TRUE(system.Execute("INSERT INTO d VALUES " + values).ok());
  ASSERT_TRUE(system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('d')").ok());
  ASSERT_TRUE(system
                  .Execute("CREATE TABLE t (id INT) IN ACCELERATOR "
                           "DISTRIBUTE BY (id)")
                  .ok());
  FaultSpec spec;
  spec.probability = 1.0;
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1#3"),
                              spec);
  ExecOptions failback;
  failback.acceleration = AccelerationMode::kEnableWithFailback;
  const uint64_t failbacks = system.metrics().Get(metric::kFederationFailbacks);
  const uint64_t routed = system.metrics().Get(metric::kQueriesRoutedToAccel);
  auto inserted =
      system.Execute("INSERT INTO t SELECT DISTINCT id FROM d", failback);
  system.fault_injector().Disarm(FaultInjector::AcceleratorSite("ACCEL1#3"));
  EXPECT_GT(system.metrics().Get(metric::kQueriesRoutedToAccel), routed);
  ASSERT_FALSE(inserted.ok());
  EXPECT_TRUE(inserted.status().retryable());
  EXPECT_NE(inserted.status().message().find("cannot fail back"),
            std::string::npos);
  EXPECT_EQ(system.metrics().Get(metric::kFederationFailbacks), failbacks);
  auto count = system.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows.At(0, 0).AsInteger(), 0);
}

TEST_F(FaultToleranceTest, OfflineOnlineCycleConvergesReplication) {
  SystemOptions options;
  options.replication_batch_size = 4;  // auto-apply attempts during outage
  IdaaSystem system(options);
  SeedAccelerated(system, /*rows=*/10);

  ASSERT_TRUE(
      system.Execute("CALL SYSPROC.ACCEL_CONTROL('ACCEL1', 'OFFLINE')")
          .ok());
  // Writes keep landing in DB2; replication cannot apply and must queue.
  for (int i = 100; i < 120; ++i) {
    ASSERT_TRUE(system
                    .Execute(StrFormat(
                        "INSERT INTO t VALUES (%d, %d, 'WEST')", i, i))
                    .ok());
  }
  ASSERT_TRUE(
      system.Execute("UPDATE t SET v = v + 1000 WHERE id = 0").ok());
  ASSERT_TRUE(system.Execute("DELETE FROM t WHERE id = 1").ok());
  EXPECT_GT(system.replication().PendingChanges(), 0u);

  // ONLINE replays the backlog (Recovering) before accepting queries.
  auto online =
      system.Execute("CALL SYSPROC.ACCEL_CONTROL('ACCEL1', 'ONLINE')");
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  EXPECT_NE(online->detail.find("pending change(s)"), std::string::npos);
  EXPECT_EQ(system.replication().PendingChanges(), 0u);

  // Content comparison: every accelerated table converged.
  auto verify = system.Query("CALL SYSPROC.ACCEL_VERIFY_TABLES('t')");
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  ASSERT_EQ(verify->NumRows(), 1u);
  EXPECT_EQ(verify->At(0, 0).AsVarchar(), "T");
  EXPECT_EQ(verify->At(0, 1).AsInteger(), verify->At(0, 2).AsInteger());
  EXPECT_TRUE(verify->At(0, 3).AsBoolean());

  // And both routes agree through SQL too.
  ExecOptions db2, acc;
  db2.acceleration = AccelerationMode::kNone;
  acc.acceleration = AccelerationMode::kAll;
  auto on_db2 = system.Execute("SELECT COUNT(*), SUM(v) FROM t", db2);
  auto on_accel = system.Execute("SELECT COUNT(*), SUM(v) FROM t", acc);
  ASSERT_TRUE(on_db2.ok() && on_accel.ok());
  EXPECT_EQ(on_db2->rows.At(0, 0).AsInteger(),
            on_accel->rows.At(0, 0).AsInteger());
  EXPECT_EQ(on_db2->rows.At(0, 1).AsInteger(),
            on_accel->rows.At(0, 1).AsInteger());
}

TEST_F(FaultToleranceTest, RetryAndFailbackSpansVisibleInExplainAnalyze) {
  IdaaSystem system;
  SeedAccelerated(system);
  FastRetries(system);
  system.SetAccelerationMode(AccelerationMode::kEligible);

  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_failures = 1;
  system.fault_injector().Arm(fault_site::kChannelStatement, spec);

  auto report = system.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM t");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  bool saw_retry = false, saw_fault = false;
  for (size_t r = 0; r < report->NumRows(); ++r) {
    std::string stage = report->At(r, 0).AsVarchar();
    if (stage.find("retry") != std::string::npos) saw_retry = true;
    if (stage.find("fault") != std::string::npos) saw_fault = true;
  }
  EXPECT_TRUE(saw_retry) << "no retry span in EXPLAIN ANALYZE output";
  EXPECT_TRUE(saw_fault) << "no fault span in EXPLAIN ANALYZE output";

  // Failback span under ENABLE WITH FAILBACK with a dead channel.
  system.fault_injector().Reset();
  spec.max_failures = 0;
  system.fault_injector().Arm(fault_site::kChannelStatement, spec);
  system.SetAccelerationMode(AccelerationMode::kEnableWithFailback);
  auto failback = system.Query(
      "EXPLAIN ANALYZE SELECT region, SUM(v) FROM t GROUP BY region");
  ASSERT_TRUE(failback.ok()) << failback.status().ToString();
  bool saw_failback = false;
  for (size_t r = 0; r < failback->NumRows(); ++r) {
    if (failback->At(r, 0).AsVarchar().find("failback") !=
        std::string::npos) {
      saw_failback = true;
    }
  }
  EXPECT_TRUE(saw_failback) << "no failback span in EXPLAIN ANALYZE output";
}

TEST_F(FaultToleranceTest, StaticExplainReportsAcceleratorAndBreakerState) {
  IdaaSystem system;
  SeedAccelerated(system);
  auto report = system.Query("EXPLAIN SELECT COUNT(*) FROM t");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  bool saw = false;
  for (size_t r = 0; r < report->NumRows(); ++r) {
    if (report->At(r, 0).AsVarchar() == "ACCELERATOR ACCEL1") {
      saw = true;
      std::string detail = report->At(r, 1).AsVarchar();
      EXPECT_NE(detail.find("ONLINE"), std::string::npos);
      EXPECT_NE(detail.find("breaker CLOSED"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw) << "no ACCELERATOR row in static EXPLAIN";

  system.accelerator(0).SetState(accel::AcceleratorState::kOffline);
  report = system.Query("EXPLAIN SELECT COUNT(*) FROM t");
  ASSERT_TRUE(report.ok());
  for (size_t r = 0; r < report->NumRows(); ++r) {
    if (report->At(r, 0).AsVarchar() == "ACCELERATOR ACCEL1") {
      EXPECT_NE(report->At(r, 1).AsVarchar().find("OFFLINE"),
                std::string::npos);
    }
  }
}

// The acceptance bar of the redesign: at a 10% injected channel fault rate
// under ENABLE WITH FAILBACK, the query subset returns results identical
// to a fault-free run — zero user-visible errors.
TEST_F(FaultToleranceTest, EngineEquivalenceUnderTenPercentFaults) {
  IdaaSystem system;
  SeedAccelerated(system, /*rows=*/60);
  FastRetries(system, /*max_attempts=*/8);

  const char* kQueries[] = {
      "SELECT COUNT(*) FROM t",
      "SELECT region, COUNT(*), SUM(v) FROM t GROUP BY region",
      "SELECT SUM(v), MIN(v), MAX(v) FROM t WHERE v > 30",
      "SELECT id, v FROM t WHERE region = 'EAST' AND v < 60",
      "SELECT DISTINCT region FROM t",
      "SELECT AVG(v) FROM t WHERE id >= 10",
  };

  auto canonical = [](const ResultSet& rs) {
    std::vector<std::string> lines;
    for (const Row& row : rs.rows()) {
      std::string line;
      for (const Value& v : row) {
        line += v.is_double() ? StrFormat("%.9g", v.AsDouble())
                              : v.ToString();
        line += "|";
      }
      lines.push_back(std::move(line));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };

  // Fault-free baseline on DB2.
  std::vector<std::vector<std::string>> baseline;
  ExecOptions db2;
  db2.acceleration = AccelerationMode::kNone;
  for (const char* q : kQueries) {
    auto rs = system.Execute(q, db2);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    baseline.push_back(canonical(rs->rows));
  }

  FaultSpec spec;
  spec.probability = 0.10;
  system.fault_injector().ArmChannel(spec);
  system.fault_injector().Arm(FaultInjector::AcceleratorSite("ACCEL1"),
                              spec);

  ExecOptions failback;
  failback.acceleration = AccelerationMode::kEnableWithFailback;
  uint64_t total_retries = 0, total_failbacks = 0;
  for (int round = 0; round < 20; ++round) {
    for (size_t q = 0; q < std::size(kQueries); ++q) {
      auto rs = system.Execute(kQueries[q], failback);
      ASSERT_TRUE(rs.ok()) << "user-visible error under faults: "
                           << rs.status().ToString();
      EXPECT_EQ(canonical(rs->rows), baseline[q]) << kQueries[q];
      total_retries += rs->retries;
      total_failbacks += rs->failed_back ? 1 : 0;
    }
  }
  // The injector genuinely fired: faults were absorbed, not avoided.
  EXPECT_GT(system.fault_injector().TotalInjected(), 0u);
  EXPECT_GT(total_retries + total_failbacks, 0u);
}

}  // namespace
}  // namespace idaa
