// perfbench: the repository benchmark program. One workload per invocation:
//
//   perfbench --workload offload|htap|elt --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Prints human-readable "# ..." lines and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1.

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload offload|htap|elt --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 600) {
        return Usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      opts.trace = value == "1";
    } else if (arg == "--trace-dir") {
      opts.trace_dir = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (opts.workload == "offload") return perfbench::RunOffload(opts);
  if (opts.workload == "htap") return perfbench::RunHtap(opts);
  if (opts.workload == "elt") return perfbench::RunElt(opts);
  return Usage("unknown workload '" + opts.workload + "'");
}
