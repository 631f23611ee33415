// In-memory span log for the traced run. The benchmark records one span
// around each call it makes into a layer's public entry point; spans stay in
// memory and are written out when the run ends.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gen.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: "<module>.<call>" or a class root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;        ///< index in the same log, -1 for a root
  uint64_t stmt_id = 0;   ///< shared by every span of one statement / unit
  StmtClass cls = StmtClass::kScan;
};

/// One client thread's spans (not thread-safe; one log per thread).
class SpanLog {
 public:
  int Open(const char* name, int parent, uint64_t stmt_id, StmtClass cls);
  void Close(int index);
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);

 private:
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes at End() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, uint64_t stmt_id,
             StmtClass cls)
      : log_(log), index_(log->Open(name, parent, stmt_id, cls)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }
  void End() {
    if (!closed_) log_->Close(index_);
    closed_ = true;
  }

 private:
  SpanLog* log_;
  int index_;
  bool closed_ = false;
};

/// Self time (duration minus the time its direct children cover) summed per
/// (span name, class), with the number of spans.
struct SelfTime {
  double self_ns = 0;
  double total_ns = 0;
  uint64_t count = 0;
};
std::map<std::pair<std::string, StmtClass>, SelfTime> AggregateSelfTimes(
    const std::vector<Span>& spans);

/// Write spans as tab-separated lines: stmt_id, class, name, parent index,
/// start_ns, end_ns. Returns false when the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

uint64_t NowNs();

}  // namespace perfbench
