// The benchmark's workloads and the function that runs one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One set of inputs the benchmark runs. Every workload trains its model at
/// 4 ranks and at 1 rank (interleaved) and then serves that model, so each
/// reports every end-to-end metric; the workloads differ in the data and the
/// solver.
struct WorkloadSpec {
  const char* name;
  const char* why;  ///< why the workload exists: the layers it stresses
  const char* preset;  ///< svmdata zoo entry
  std::size_t n_train;
  std::size_t n_test;  ///< held-out rows: accuracy and the serving queries
  const char* heuristic;  ///< shrinking heuristic (Table II name)
  bool pbm;       ///< the 4-rank configuration trains with PBM instead of SMO
  bool recovery;  ///< train through train_with_recovery with checkpoints
  /// Operating rate (req/s) of serve_p50_ms / serve_p99_ms: 5000 for the
  /// higgs model; 1000 for the url model, whose sparse rows cost more per
  /// request and whose service saturates below 2000 req/s when the host is
  /// contended.
  double serve_rate;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< per-layer run instead of the end-to-end one
};

/// Runs one workload; logs to stderr, prints the metric table and then the
/// result line to stdout. Returns the process exit code.
int run_workload(const RunOptions& options);

}  // namespace perfbench
