// Tiny command-line flag parser shared by benches, examples and the CLI tool.
// Supports "--name value", "--name=value" and boolean "--name". Unknown flags
// are an error so typos surface immediately.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace svmutil {

class CliFlags {
 public:
  /// Parses argv. `known` lists accepted flag names (without dashes); a
  /// trailing '!' marks a boolean flag, which never consumes the following
  /// token ("--verbose file.txt" keeps file.txt positional). Throws
  /// std::invalid_argument on unknown flags.
  CliFlags(int argc, const char* const* argv, std::vector<std::string> known);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& name, long long fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Observability flag values shared by every tool that trains: output paths
/// for the Chrome trace and the metrics run report (empty = disabled).
struct ObsPaths {
  std::string trace_out;    ///< --trace-out: Chrome trace-event JSON
  std::string metrics_out;  ///< --metrics-out: svmobs.run_report.v1 JSON
};

/// Appends the standard observability flags ("log-level", "trace-out",
/// "metrics-out") to a known-flags list, so tools opt in with one call.
[[nodiscard]] std::vector<std::string> with_obs_flags(std::vector<std::string> known);

/// Reads the flags added by with_obs_flags: applies --log-level to the global
/// logger immediately (throws on an invalid name) and returns the output
/// paths. Defaults leave logging and tracing untouched.
ObsPaths apply_obs_flags(const CliFlags& flags);

}  // namespace svmutil
