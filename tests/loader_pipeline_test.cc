// Parallel load-pipeline tests: ordered-commit determinism (bit-identical
// table state across worker counts), backpressure bounds, the bad-record
// reject policy, atomic all-or-nothing loads, resume tokens (exactly-once
// re-runs) and retry/backoff across injected channel faults.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "idaa/system.h"
#include "loader/record_source.h"

namespace idaa {
namespace {

Schema EventSchema() {
  return Schema({{"ID", DataType::kInteger, false},
                 {"TAG", DataType::kVarchar, true},
                 {"SCORE", DataType::kDouble, true}});
}

/// Deterministic CSV body with NULLs, quoted fields, embedded delimiters
/// and quotes — every shape the parser must keep stable across chunking.
std::string EventCsv(size_t rows) {
  std::ostringstream os;
  for (size_t i = 0; i < rows; ++i) {
    os << i << ",";
    switch (i % 5) {
      case 0:
        os << "plain" << i;
        break;
      case 1:
        os << "\"quoted,comma" << i << "\"";
        break;
      case 2:
        os << "\"doubled\"\"quote" << i << "\"";
        break;
      case 3:
        break;  // unquoted empty -> NULL
      case 4:
        os << "\"\"";  // quoted empty -> empty string
        break;
    }
    os << "," << (i % 7 == 0 ? std::string() : std::to_string(i * 0.25))
       << "\n";
  }
  return os.str();
}

/// Physical fingerprint of an accelerator table: every slice's stored
/// content in storage order.
std::string TableFingerprint(accel::Accelerator& accel,
                             const std::string& name) {
  auto table = accel.GetTable(name);
  EXPECT_TRUE(table.ok());
  std::string out;
  for (size_t s = 0; s < (*table)->num_slices(); ++s) {
    out += "slice " + std::to_string(s) + ":\n";
    out += (*table)->SliceContentString(s);
    out += "\n";
  }
  return out;
}

class LoadPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemOptions options;
    options.replication_batch_size = 0;
    system_ = std::make_unique<IdaaSystem>(options);
  }

  int64_t Count(const std::string& table) {
    auto rs = system_->Query("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs->At(0, 0).AsInteger();
  }

  std::unique_ptr<IdaaSystem> system_;
};

TEST_F(LoadPipelineTest, BitIdenticalAcrossWorkerCounts) {
  const std::string csv = EventCsv(3000);
  // The single-worker pipeline is the reference; 2 and 8 workers must
  // produce byte-identical physical layout: same slice assignment
  // (round-robin order), same column content, same zone-map runs — only
  // then is parallel loading a pure speedup.
  const size_t worker_counts[] = {1, 2, 8};
  std::vector<std::string> fingerprints;
  for (size_t workers : worker_counts) {
    SystemOptions options;
    options.replication_batch_size = 0;
    IdaaSystem sys(options);
    ASSERT_TRUE(sys.Execute("CREATE TABLE ev (id INT NOT NULL, "
                               "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                    .ok());
    loader::CsvStringSource source(csv, EventSchema());
    loader::LoadOptions lo;
    lo.batch_size = 128;
    lo.num_workers = workers;
    auto report = sys.loader().Load("ev", &source, lo);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->rows_loaded, 3000u);
    EXPECT_EQ(report->workers, workers);
    fingerprints.push_back(TableFingerprint(sys.accelerator(), "EV"));
  }
  for (size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[0], fingerprints[i])
        << "worker count " << worker_counts[i]
        << " produced different physical state than the 1-worker load";
  }
}

TEST_F(LoadPipelineTest, BitIdenticalWithHashDistribution) {
  const std::string csv = EventCsv(2000);
  std::vector<std::string> fingerprints;
  for (size_t workers : {1u, 8u}) {
    SystemOptions options;
    options.replication_batch_size = 0;
    IdaaSystem sys(options);
    ASSERT_TRUE(sys.Execute("CREATE TABLE evd (id INT NOT NULL, "
                               "tag VARCHAR, score DOUBLE) IN ACCELERATOR "
                               "DISTRIBUTE BY (id)")
                    .ok());
    loader::CsvStringSource source(csv, EventSchema());
    loader::LoadOptions lo;
    lo.batch_size = 64;
    lo.num_workers = workers;
    ASSERT_TRUE(sys.loader().Load("evd", &source, lo).ok());
    fingerprints.push_back(TableFingerprint(sys.accelerator(), "EVD"));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST_F(LoadPipelineTest, BackpressureBoundsQueuedBatches) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE bp (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  loader::CsvStringSource source(EventCsv(1000), EventSchema());
  loader::LoadOptions lo;
  lo.batch_size = 8;  // 125 batches through the pipeline
  lo.num_workers = 8;
  lo.queue_depth = 3;
  auto report = system_->loader().Load("bp", &source, lo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_loaded, 1000u);
  EXPECT_EQ(report->batches, 125u);
  EXPECT_GT(report->peak_queued_batches, 0u);
  EXPECT_LE(report->peak_queued_batches, lo.queue_depth)
      << "bounded queues must hold at most queue_depth batches";
  EXPECT_EQ(Count("bp"), 1000);
}

// ---------------------------------------------------------------------------
// Reject policy
// ---------------------------------------------------------------------------

constexpr char kDirtyCsv[] =
    "1,a,0.5\n"
    "oops,a,0.5\n"   // record 1: bad INTEGER
    "3,b,0.25\n"
    "4,c,bad\n"      // record 3: bad DOUBLE
    "5,d\n"          // record 4: arity mismatch
    "6,e,1.5\n";

TEST_F(LoadPipelineTest, RejectBudgetZeroAbortsOnFirstBadRecord) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE r0 (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  loader::CsvStringSource source(kDirtyCsv, EventSchema());
  loader::LoadOptions lo;  // max_rejects defaults to 0
  auto report = system_->loader().Load("r0", &source, lo);
  EXPECT_FALSE(report.ok());
}

TEST_F(LoadPipelineTest, RejectBudgetDivertsUpToMax) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE r3 (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  loader::CsvStringSource source(kDirtyCsv, EventSchema());
  loader::LoadOptions lo;
  lo.max_rejects = 3;
  lo.batch_size = 2;
  auto report = system_->loader().Load("r3", &source, lo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_loaded, 3u);
  EXPECT_EQ(report->rows_rejected, 3u);
  ASSERT_EQ(report->reject_samples.size(), 3u);
  EXPECT_EQ(report->reject_samples[0].record_index, 1u);
  EXPECT_EQ(report->reject_samples[0].raw, "oops,a,0.5");
  EXPECT_EQ(report->reject_samples[1].record_index, 3u);
  EXPECT_EQ(report->reject_samples[2].record_index, 4u);
  EXPECT_EQ(Count("r3"), 3);
  EXPECT_EQ(system_->metrics().Get(metric::kLoaderRowsRejected), 3u);
}

TEST_F(LoadPipelineTest, RejectBudgetExceededAborts) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE r2 (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  loader::CsvStringSource source(kDirtyCsv, EventSchema());
  loader::LoadOptions lo;
  lo.max_rejects = 2;  // third bad record blows the budget
  auto report = system_->loader().Load("r2", &source, lo);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("max_rejects"), std::string::npos);
}

TEST_F(LoadPipelineTest, UnlimitedRejectsNeverAborts) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE ru (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  // Every record bad except one.
  loader::CsvStringSource source("x,a,1\ny,b,2\n7,c,3\nz,d,4\n",
                                 EventSchema());
  loader::LoadOptions lo;
  lo.max_rejects = loader::kUnlimitedRejects;
  auto report = system_->loader().Load("ru", &source, lo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_loaded, 1u);
  EXPECT_EQ(report->rows_rejected, 3u);
}

TEST_F(LoadPipelineTest, RejectFileRecordsRawRecordsAndErrors) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE rf (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  const std::string path = "loader_pipeline_rejects.csv";
  loader::CsvStringSource source(kDirtyCsv, EventSchema());
  loader::LoadOptions lo;
  lo.max_rejects = loader::kUnlimitedRejects;
  lo.reject_file = path;
  auto report = system_->loader().Load("rf", &source, lo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("oops"), std::string::npos);
  EXPECT_EQ(lines[0].substr(0, 2), "1,");  // leading record index
}

// ---------------------------------------------------------------------------
// Atomic vs restartable commit
// ---------------------------------------------------------------------------

TEST_F(LoadPipelineTest, AtomicModeRollsBackDirectLoad) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE at (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  std::string csv = EventCsv(100);
  csv += "boom,x,1\n";  // bad record in the final batch
  loader::CsvStringSource source(csv, EventSchema());
  loader::LoadOptions lo;
  lo.commit_per_batch = false;  // all-or-nothing
  lo.batch_size = 10;
  auto report = system_->loader().Load("at", &source, lo);
  EXPECT_FALSE(report.ok());
  // MVCC: the aborted transaction's rows are invisible — no partial load.
  EXPECT_EQ(Count("at"), 0);
}

TEST_F(LoadPipelineTest, AtomicModeRollsBackDb2Load) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE atd (n INT NOT NULL)").ok());
  Schema schema({{"N", DataType::kInteger, false}});
  loader::CsvStringSource source("1\n2\nnope\n4\n", schema);
  loader::LoadOptions lo;
  lo.commit_per_batch = false;
  lo.batch_size = 1;
  auto report = system_->loader().Load("atd", &source, lo);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(Count("atd"), 0);
}

TEST_F(LoadPipelineTest, AtomicModeCommitsAllOnSuccess) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE ats (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  loader::CsvStringSource source(EventCsv(500), EventSchema());
  loader::LoadOptions lo;
  lo.commit_per_batch = false;
  lo.batch_size = 64;
  auto report = system_->loader().Load("ats", &source, lo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->resume_token, 0u);  // atomic loads are not resumable
  EXPECT_EQ(Count("ats"), 500);
}

// ---------------------------------------------------------------------------
// Resume token (exactly-once re-run)
// ---------------------------------------------------------------------------

TEST_F(LoadPipelineTest, ResumeTokenLoadsExactlyOnce) {
  ASSERT_TRUE(
      system_->Execute("CREATE TABLE rs (n INT NOT NULL) IN ACCELERATOR")
          .ok());
  // 100 records, 10 per batch; record 35 (batch 3) is bad.
  std::ostringstream os;
  for (int i = 0; i < 100; ++i) {
    if (i == 35) {
      os << "bad\n";
    } else {
      os << i << "\n";
    }
  }
  const std::string csv = os.str();
  Schema schema({{"N", DataType::kInteger, false}});

  loader::LoadOptions lo;
  lo.batch_size = 10;
  lo.max_rejects = 0;
  loader::LoadProgress progress;
  lo.progress = &progress;
  {
    loader::CsvStringSource source(csv, schema);
    auto report = system_->loader().Load("rs", &source, lo);
    ASSERT_FALSE(report.ok());
  }
  // Batches 0-2 committed durably before the bad record aborted batch 3.
  EXPECT_EQ(progress.batches_committed.load(), 3u);
  EXPECT_EQ(progress.rows_committed.load(), 30u);
  EXPECT_EQ(Count("rs"), 30);

  // Re-run from the progress token, this time tolerating the bad record.
  loader::LoadOptions resume = lo;
  resume.resume_token = progress.batches_committed.load();
  resume.max_rejects = 1;
  loader::CsvStringSource source(csv, schema);
  auto report = system_->loader().Load("rs", &source, resume);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->batches_skipped, 3u);
  EXPECT_EQ(report->rows_loaded, 69u);  // batches 3..9 minus the reject
  EXPECT_EQ(report->rows_rejected, 1u);
  EXPECT_EQ(report->resume_token, 10u);

  // Exactly-once: every good record present exactly one time.
  auto rs = system_->Query("SELECT COUNT(*), COUNT(DISTINCT n) FROM rs");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0).AsInteger(), 99);
  EXPECT_EQ(rs->At(0, 1).AsInteger(), 99);
}

TEST_F(LoadPipelineTest, ResumeRequiresRestartableMode) {
  ASSERT_TRUE(
      system_->Execute("CREATE TABLE rr (n INT) IN ACCELERATOR").ok());
  Schema schema({{"N", DataType::kInteger, true}});
  loader::CsvStringSource source("1\n", schema);
  loader::LoadOptions lo;
  lo.resume_token = 2;
  lo.commit_per_batch = false;
  EXPECT_FALSE(system_->loader().Load("rr", &source, lo).ok());
  lo.commit_per_batch = true;
  lo.num_workers = 0;  // no pipeline, no load: rejected with or without resume
  auto no_workers = system_->loader().Load("rr", &source, lo);
  ASSERT_FALSE(no_workers.ok());
  EXPECT_EQ(no_workers.status().code(), StatusCode::kInvalidArgument);
  lo.resume_token = 0;
  EXPECT_FALSE(system_->loader().Load("rr", &source, lo).ok());
}

// ---------------------------------------------------------------------------
// Retry/backoff across injected channel faults
// ---------------------------------------------------------------------------

TEST_F(LoadPipelineTest, RetriesRecoverFromTransientChannelFaults) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE rt (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kChannelError;
  spec.max_failures = 2;  // fails twice, then the link recovers
  system_->fault_injector().Arm(fault_site::kChannelToAccel, spec);

  loader::CsvStringSource source(EventCsv(200), EventSchema());
  loader::LoadOptions lo;
  lo.batch_size = 50;
  lo.retry.max_attempts = 4;
  lo.retry.initial_backoff_us = 50;
  auto report = system_->loader().Load("rt", &source, lo);
  system_->fault_injector().Reset();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_loaded, 200u);
  EXPECT_EQ(report->retries, 2u);
  EXPECT_EQ(system_->metrics().Get(metric::kLoaderRetries), 2u);
  EXPECT_EQ(Count("rt"), 200);
}

TEST_F(LoadPipelineTest, NonColumnarTypesFallBackToRowPath) {
  // DATE is outside the columnar wire format; the load must fall back to
  // the row path and still succeed end to end.
  ASSERT_TRUE(system_->Execute("CREATE TABLE dts (id INT NOT NULL, "
                                  "d DATE) IN ACCELERATOR")
                  .ok());
  Schema schema(
      {{"ID", DataType::kInteger, false}, {"D", DataType::kDate, true}});
  loader::CsvStringSource source("1,2016-03-15\n2,2016-03-16\n3,\n", schema);
  auto report = system_->loader().Load("dts", &source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->direct);
  EXPECT_FALSE(report->columnar);
  EXPECT_EQ(report->rows_loaded, 3u);
  EXPECT_EQ(Count("dts"), 3);
}

TEST_F(LoadPipelineTest, ReportRendersLoadSummary) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE rep (id INT NOT NULL, "
                                  "tag VARCHAR, score DOUBLE) IN ACCELERATOR")
                  .ok());
  loader::CsvStringSource source(EventCsv(300), EventSchema());
  loader::LoadOptions lo;
  lo.batch_size = 100;
  auto report = system_->loader().Load("rep", &source, lo);
  ASSERT_TRUE(report.ok());
  const std::string text = report->Render();
  EXPECT_NE(text.find("direct-to-accelerator (columnar)"), std::string::npos);
  EXPECT_NE(text.find("rows: 300 loaded"), std::string::npos);
  EXPECT_NE(text.find("rows/s"), std::string::npos);
  EXPECT_NE(text.find("resume_token=3"), std::string::npos);
}

TEST_F(LoadPipelineTest, ViaDb2PipelineReplicatesLikeSerial) {
  ASSERT_TRUE(system_->Execute("CREATE TABLE vr (n INT)").ok());
  ASSERT_TRUE(
      system_->Execute("CALL SYSPROC.ACCEL_ADD_TABLES('vr')").ok());
  Schema schema({{"N", DataType::kInteger, true}});
  loader::CsvStringSource source("1\n2\n3\n4\n5\n", schema);
  loader::LoadOptions lo;
  lo.num_workers = 4;
  lo.batch_size = 2;
  auto report = system_->loader().Load("vr", &source, lo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->direct);
  ASSERT_TRUE(system_->replication().Flush().ok());
  EXPECT_EQ(Count("vr"), 5);
}

}  // namespace
}  // namespace idaa
