// perfbench: the repository's benchmark for training and serving.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics (tracing off); --trace 1 is the
// separate per-layer run. The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; progress goes to stderr.
// Bad arguments print usage and exit 2.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n",
               argv0);
  std::fprintf(stderr, "workloads:\n");
  for (const perfbench::WorkloadSpec& w : perfbench::workloads())
    std::fprintf(stderr, "  %-12s %s\n", w.name, w.why);
}

bool parse_uint(const std::string& text, unsigned long long max, unsigned long long& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && *end == '\0' && out <= max;
}

bool known_workload(const std::string& name) {
  for (const perfbench::WorkloadSpec& w : perfbench::workloads())
    if (name == w.name) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
    const std::string value = argv[++i];
    unsigned long long number = 0;
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
      ok = known_workload(value);
    } else if (flag == "--seed") {
      ok = parse_uint(value, ~0ULL, number);
      options.seed = number;
    } else if (flag == "--seconds") {
      ok = parse_uint(value, 3600, number) && number > 0;
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      ok = parse_uint(value, 1, number);
      options.trace = number == 1;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(), flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (options.workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    usage(argv[0]);
    return 2;
  }
  try {
    return perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
