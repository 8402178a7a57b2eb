// Shared pieces of the benchmark: the wall clock, order statistics, the
// benchmark's own span recorder, the operation tally behind `attempted` /
// `failed` / `correct`, and the metric sink that prints the result line.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The order statistics below return NaN for no values, which the result
// line prints as null: a metric whose every operation failed has no value.

/// Median of `values` (mean of the middle pair for even counts).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Cumulative CPU time of the whole machine from /proc/stat, in clock ticks:
/// all of it, and the part the hypervisor ran something else while a vCPU
/// wanted to run ("steal"). Both are 0 when /proc/stat cannot be read.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Share of the machine's CPU time stolen between two readings (0 when none
/// passed).
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

/// The CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pins the calling thread, and every thread it starts meanwhile, to one CPU
/// for the lifetime of the object; the thread's previous CPU set comes back
/// at the end. A CPU that cannot be pinned leaves the thread as it was.
class CpuPin {
 public:
  explicit CpuPin(int cpu);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t previous_{};
  bool pinned_ = false;
};

/// The benchmark's own spans: one per call into a layer (data generation, a
/// solve, a check, a serving trial, a probe), kept in memory and reduced when
/// the run ends. Spans nest; `top_level_seconds` sums the outermost ones, so
/// dividing it by the run's wall time says how much of the run the spans
/// account for.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& owner, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    [[nodiscard]] double elapsed() const { return seconds_since(begin_); }

   private:
    Spans& owner_;
    const char* name_;
    Clock::time_point begin_;
    int depth_;
  };

  [[nodiscard]] Scope open(const char* name) { return Scope(*this, name); }
  [[nodiscard]] double top_level_seconds() const;
  /// Human-readable per-name totals, for the log.
  [[nodiscard]] std::string table() const;

 private:
  struct Record {
    const char* name;
    double seconds;
    int depth;
  };
  std::vector<Record> records_;
  int depth_ = 0;
};

/// Operation accounting. An operation is one solve or one request at the
/// workload's operating rate; it fails when it throws, does not converge,
/// misses its check, or (for a request) is shed, expires or fails. A check
/// that finds a wrong answer also clears `correct`.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void ok(std::uint64_t n = 1) { attempted += n; }
  void fail(const std::string& why, std::uint64_t n = 1, bool wrong_answer = false);
};

/// Named metrics with units, printed as the result line's "metrics" object.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The result line: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string result_json(const Tally& tally) const;
  /// One "name value unit" line per metric, for the log.
  [[nodiscard]] std::string table() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

}  // namespace perfbench
