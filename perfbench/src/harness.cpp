#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/json.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

CpuTicks cpu_ticks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  CpuTicks out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  char line[512];
  if (std::fgets(line, sizeof(line), f) != nullptr && std::strncmp(line, "cpu ", 4) == 0) {
    char* cursor = line + 4;
    for (int field = 0; field < 8; ++field) {
      char* end = nullptr;
      const double ticks = std::strtod(cursor, &end);
      if (end == cursor) break;
      cursor = end;
      out.total += ticks;
      if (field == 7) out.steal = ticks;
    }
  }
  std::fclose(f);
  return out;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

CpuPin::CpuPin(int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE || sched_getaffinity(0, sizeof(previous_), &previous_) != 0)
    return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) (void)sched_setaffinity(0, sizeof(previous_), &previous_);
}

Spans::Scope::Scope(Spans& owner, const char* name)
    : owner_(owner), name_(name), begin_(Clock::now()), depth_(owner.depth_++) {}

Spans::Scope::~Scope() {
  --owner_.depth_;
  owner_.records_.push_back({name_, seconds_since(begin_), depth_});
}

double Spans::top_level_seconds() const {
  double total = 0.0;
  for (const Record& r : records_)
    if (r.depth == 0) total += r.seconds;
  return total;
}

std::string Spans::table() const {
  std::map<std::string, std::pair<int, double>> by_name;
  for (const Record& r : records_) {
    auto& entry = by_name[r.name];
    ++entry.first;
    entry.second += r.seconds;
  }
  std::string out;
  char line[160];
  for (const auto& [name, entry] : by_name) {
    std::snprintf(line, sizeof(line), "  span %-22s x%-4d %10.4f s\n", name.c_str(), entry.first,
                  entry.second);
    out += line;
  }
  return out;
}

void Tally::fail(const std::string& why, std::uint64_t n, bool wrong_answer) {
  attempted += n;
  failed += n;
  if (wrong_answer) correct = false;
  problems.push_back(why);
}

void MetricSink::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

std::string MetricSink::result_json(const Tally& tally) const {
  svmobs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(tally.correct);
  w.key("attempted");
  w.value(tally.attempted);
  w.key("failed");
  w.value(tally.failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, metric] : metrics_) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.value(metric.value);
    w.key("unit");
    w.value(metric.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string MetricSink::table() const {
  std::string out;
  char line[160];
  for (const auto& [name, metric] : metrics_) {
    std::snprintf(line, sizeof(line), "  %-28s %16.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    out += line;
  }
  return out;
}

}  // namespace perfbench
