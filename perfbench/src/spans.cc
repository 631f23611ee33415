#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanLog::Open(const char* name, int parent, uint64_t stmt_id,
                  StmtClass cls) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.stmt_id = stmt_id;
  span.cls = cls;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Close(int index) { spans_[index].end_ns = NowNs(); }

void SpanLog::Append(const SpanLog& other) {
  int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::map<std::pair<std::string, StmtClass>, SelfTime> AggregateSelfTimes(
    const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::pair<std::string, StmtClass>, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    double total = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SelfTime& agg = out[{spans[i].name, spans[i].cls}];
    agg.total_ns += total;
    agg.self_ns += total - child_ns[i];
    agg.count += 1;
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "stmt_id\tclass\tname\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%s\t%s\t%d\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.stmt_id), ClassName(s.cls),
                 s.name, s.parent, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
