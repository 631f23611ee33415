#include "reads.h"

#include <algorithm>

#include "oracle.h"
#include "stats.h"

namespace perfbench {

namespace federation = idaa::federation;

Sampler::Sampler(uint64_t seed, size_t per_class) {
  StreamRng rng(seed);
  for (auto& picks : picks_) {
    // Early occurrences, so even a short run reaches them.
    for (size_t i = 0; i < per_class; ++i) {
      picks.push_back(static_cast<uint64_t>(rng.Uniform(0, 4)) + 5 * i);
    }
  }
}

bool Sampler::Take(StmtClass cls) {
  int c = static_cast<int>(cls);
  uint64_t n = seen_[c]++;
  return std::find(picks_[c].begin(), picks_[c].end(), n) != picks_[c].end();
}

namespace {

void RecordFailure(ReadOutcome* out, const std::string& sql,
                   const std::string& error) {
  ++out->failed;
  if (out->errors.size() < 5) out->errors.push_back(sql + ": " + error);
}

}  // namespace

void ReadLoopUntraced(idaa::Connection& conn, ReadStream& stream,
                      Sampler& sampler, uint64_t deadline_ns,
                      const std::atomic<bool>& stop, ReadOutcome* out) {
  double round_ms = 0;
  bool round_ok = true;
  while (!stop.load(std::memory_order_relaxed) &&
         (deadline_ns == 0 || NowNs() < deadline_ns)) {
    ReadStmt s = stream.Next();
    Timed t = TimedExecute(conn, s.sql);
    ++out->attempted;
    int c = static_cast<int>(s.cls);
    if (t.ok) {
      ++out->statements;
      out->front_door.Record(t.result);
      out->class_ms[c].push_back(t.ms);
    } else {
      RecordFailure(out, s.sql, t.error);
      out->class_ms[c].push_back(kFailedLatency);
    }
    if (sampler.Take(s.cls) && t.ok) {
      out->samples.push_back({s.cls, s.sql, std::move(t.result.rows)});
    }
    round_ms += t.ms;
    round_ok = round_ok && t.ok;
    if (s.round_end) {
      out->round_ms.push_back(round_ok ? round_ms : kFailedLatency);
      round_ms = 0;
      round_ok = true;
    }
  }
}

void ReadLoopTraced(TracedPath& path, ReadStream& stream, Sampler& sampler,
                    uint64_t deadline_ns, const std::atomic<bool>& stop,
                    ReadOutcome* out) {
  uint64_t id = 0;
  TraceData* data = path.data();
  while (!stop.load(std::memory_order_relaxed) &&
         (deadline_ns == 0 || NowNs() < deadline_ns)) {
    ReadStmt s = stream.Next();
    int c = static_cast<int>(s.cls);
    uint64_t t0 = NowNs();
    ScopedSpan root(&data->log, "unit", -1, id, s.cls);
    auto r = path.Select(s.sql, s.cls, root.index(), id);
    root.End();
    ++id;
    double ms = static_cast<double>(NowNs() - t0) / 1e6;
    ++out->attempted;
    if (r.ok()) {
      ++out->statements;
      data->unit_ms[c].push_back(ms);
      out->class_ms[c].push_back(ms);
      if (sampler.Take(s.cls)) {
        out->samples.push_back({s.cls, s.sql, std::move(*r)});
      }
    } else {
      sampler.Take(s.cls);
      RecordFailure(out, s.sql, r.status().ToString());
      out->class_ms[c].push_back(kFailedLatency);
    }
  }
}

void CheckAgainstDb2(idaa::IdaaSystem& system,
                     const std::vector<SampledRead>& samples, Checks* checks) {
  auto oracle = system.NewConnection();
  MustExec(*oracle, "SET CURRENT QUERY ACCELERATION NONE");
  federation::ExecOptions no_cache;
  no_cache.use_result_cache = false;
  for (const SampledRead& s : samples) {
    auto want = oracle->Execute(s.sql, no_cache);
    if (!want.ok()) {
      checks->Fail("DB2 oracle failed on " + s.sql + ": " +
                   want.status().ToString());
      continue;
    }
    if (want->routed_to != federation::Target::kDb2) {
      checks->Fail("oracle statement was not routed to DB2: " + s.sql);
      continue;
    }
    if (auto diff = CompareResults(s.rows, want->rows)) {
      checks->Fail("accelerator result differs from DB2 for " + s.sql +
                   ": " + *diff);
    }
  }
}

void CheckTracedFidelity(idaa::IdaaSystem& system,
                         const std::vector<SampledRead>& samples,
                         Checks* checks) {
  auto conn = system.NewConnection();
  federation::ExecOptions no_cache;
  no_cache.use_result_cache = false;
  TraceData scratch;
  TracedPath path(&system, &scratch);
  size_t not_bit_identical = 0;
  for (const SampledRead& s : samples) {
    auto traced = path.Select(s.sql, s.cls, -1, 0);
    auto direct = conn->Execute(s.sql, no_cache);
    if (!traced.ok() || !direct.ok()) {
      checks->Fail("fidelity re-run failed for " + s.sql);
      continue;
    }
    if (auto diff = CompareResults(*traced, direct->rows)) {
      checks->Fail("traced call chain and Connection::Execute disagree on " +
                   s.sql + ": " + *diff);
    } else if (ExactRender(*traced) != ExactRender(direct->rows)) {
      ++not_bit_identical;
    }
  }
  if (not_bit_identical > 0) {
    Note("fidelity: " + std::to_string(not_bit_identical) + " of " +
         std::to_string(samples.size()) +
         " sampled statements agree only within 1e-9 (floating-point sums "
         "differ in low-order bits between executions)");
  }
}

}  // namespace perfbench
