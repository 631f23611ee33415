// The read client shared by `offload` and the `htap` reader: a closed loop
// of dashboard rounds, untraced through Connection::Execute or traced
// through TracedPath.

#pragma once

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "common/row.h"
#include "gen.h"
#include "harness.h"

namespace perfbench {

/// Picks, per class, which occurrences of the statement stream are kept for
/// a result check (seeded, so the same seed checks the same statements).
class Sampler {
 public:
  Sampler(uint64_t seed, size_t per_class);
  /// Call once per statement in stream order; true when it is sampled.
  bool Take(StmtClass cls);

 private:
  std::array<std::vector<uint64_t>, kNumClasses> picks_;
  std::array<uint64_t, kNumClasses> seen_{};
};

struct SampledRead {
  StmtClass cls;
  std::string sql;
  idaa::ResultSet rows;
};

struct ReadOutcome {
  std::array<std::vector<double>, kNumClasses> class_ms;  ///< failed = inf
  std::vector<double> round_ms;
  uint64_t attempted = 0, failed = 0, statements = 0;
  FrontDoor front_door;
  std::vector<SampledRead> samples;
  std::vector<std::string> errors;  ///< first few failures
};

/// Run rounds until `stop` is set (or the deadline passes, when nonzero).
void ReadLoopUntraced(idaa::Connection& conn, ReadStream& stream,
                      Sampler& sampler, uint64_t deadline_ns,
                      const std::atomic<bool>& stop, ReadOutcome* out);
void ReadLoopTraced(TracedPath& path, ReadStream& stream, Sampler& sampler,
                    uint64_t deadline_ns, const std::atomic<bool>& stop,
                    ReadOutcome* out);

/// Re-run each sample with CURRENT QUERY ACCELERATION NONE (the DB2
/// oracle) and compare.
void CheckAgainstDb2(idaa::IdaaSystem& system,
                     const std::vector<SampledRead>& samples, Checks* checks);

/// Re-run each sample text through the traced decomposition and through
/// Connection::Execute on the current state; results must be identical.
void CheckTracedFidelity(idaa::IdaaSystem& system,
                         const std::vector<SampledRead>& samples,
                         Checks* checks);

}  // namespace perfbench
