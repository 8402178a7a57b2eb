#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace svmutil {

CliFlags::CliFlags(int argc, const char* const* argv, std::vector<std::string> known) {
  program_ = argc > 0 ? argv[0] : "";
  auto find_known = [&](const std::string& name) -> const std::string* {
    for (const std::string& k : known) {
      const bool boolean = !k.empty() && k.back() == '!';
      if ((boolean ? k.substr(0, k.size() - 1) : k) == name) return &k;
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string value;
    bool have_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
      have_value = true;
    }
    const std::string* spec = find_known(arg);
    if (spec == nullptr) throw std::invalid_argument("unknown flag: --" + arg);
    const bool boolean = spec->back() == '!';
    if (!have_value) {
      if (!boolean && i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0)
        value = argv[++i];
      else
        value = "true";
    }
    values_[arg] = std::move(value);
  }
}

bool CliFlags::has(const std::string& name) const { return values_.count(name) != 0; }

std::string CliFlags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long long CliFlags::get_int(const std::string& name, long long fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> with_obs_flags(std::vector<std::string> known) {
  known.emplace_back("log-level");
  known.emplace_back("trace-out");
  known.emplace_back("metrics-out");
  return known;
}

ObsPaths apply_obs_flags(const CliFlags& flags) {
  if (flags.has("log-level")) set_log_level(log_level_from_string(flags.get("log-level", "")));
  return ObsPaths{flags.get("trace-out", ""), flags.get("metrics-out", "")};
}

}  // namespace svmutil
