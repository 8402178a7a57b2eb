// Shared solver types: parameters, per-sample index-set classification
// (Eq. 4), termination statistics. Used by the sequential solver, the
// parallel "Original" solver (Algorithm 2) and the shrinking solvers
// (Algorithms 4 and 5).
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/kernel_engine.hpp"

namespace svmcore {

/// Which distributed training algorithm drives the dual optimization.
/// `smo` is the paper's shrinking-SMO (one working-set broadcast per
/// iteration); `pbm` is Parallel Block Minimization (Hsieh, Si, Dhillon —
/// arXiv:1608.02010): per-block subproblem re-solves with one delta
/// allreduce per outer round, trading iterations for communication.
enum class SolverAlgo : std::uint8_t { smo, pbm };

[[nodiscard]] inline const char* to_string(SolverAlgo algo) noexcept {
  return algo == SolverAlgo::pbm ? "pbm" : "smo";
}

[[nodiscard]] inline SolverAlgo solver_algo_from_string(const std::string& name) {
  if (name == "smo") return SolverAlgo::smo;
  if (name == "pbm") return SolverAlgo::pbm;
  throw std::invalid_argument("unknown solver algorithm '" + name + "' (expected smo|pbm)");
}

/// Wire encoding of a PBM round's alpha delta. `dense` allreduces the full
/// n-vector (one tree collective, partition-independent arithmetic —
/// required for bit-identical shrink-world recovery); `sparse` circulates
/// only the changed samples on the pipelined ring from PR 4 (cheaper when
/// few alphas move, but the regrouping is partition-dependent);
/// `auto_select` picks per round from the globally agreed nnz count using
/// the alpha-beta model.
enum class PbmDeltaEncoding : std::uint8_t { auto_select, dense, sparse };

[[nodiscard]] inline const char* to_string(PbmDeltaEncoding encoding) noexcept {
  switch (encoding) {
    case PbmDeltaEncoding::dense: return "dense";
    case PbmDeltaEncoding::sparse: return "sparse";
    case PbmDeltaEncoding::auto_select: break;
  }
  return "auto";
}

struct SolverParams {
  double C = 1.0;  ///< box constraint
  svmkernel::KernelParams kernel{};
  double eps = 1e-3;  ///< user tolerance; terminate when beta_up + 2*eps >= beta_low
  std::uint64_t max_iterations = 100'000'000;  ///< safety valve, not a tuning knob

  /// Kernel-evaluation strategy for the solver hot paths. The default
  /// `auto_select` lets the engine pick from the data (kernel_engine.hpp);
  /// tests pin `reference` as the oracle. Every strategy is bit-identical
  /// (training engines are always f64), so this never changes results.
  svmkernel::EngineBackend engine_backend = svmkernel::EngineBackend::auto_select;

  /// Per-class cost weights (libsvm's -wi): the box constraint of a sample
  /// with label y is C * (y > 0 ? weight_positive : weight_negative). Used
  /// for imbalanced datasets; 1.0/1.0 is the paper's (unweighted) setting.
  double weight_positive = 1.0;
  double weight_negative = 1.0;

  /// Distributed training algorithm (see SolverAlgo). Ignored by the
  /// sequential solver and the baselines.
  SolverAlgo algo = SolverAlgo::smo;

  /// PBM: number of dual blocks. 0 means "one block per launch rank",
  /// resolved by the trainer before the SPMD region so the block count —
  /// and with it the optimization trajectory — stays fixed across
  /// shrink-world recoveries and restarts.
  int pbm_blocks = 0;

  /// PBM: cap on inner SMO iterations per block per round. 0 picks a
  /// heuristic from the block size. Small caps communicate more rounds;
  /// large caps over-solve stale subproblems.
  std::uint64_t pbm_inner_iterations = 0;

  /// PBM: safety valve on outer rounds (like max_iterations for SMO).
  std::uint64_t pbm_max_rounds = 10'000;

  /// PBM: delta wire encoding (see PbmDeltaEncoding).
  PbmDeltaEncoding pbm_delta = PbmDeltaEncoding::dense;

  [[nodiscard]] double C_of(double y) const noexcept {
    return C * (y > 0.0 ? weight_positive : weight_negative);
  }
};

/// Index-set membership from Eq. (4). A sample is in exactly one of the five
/// sets given (y, alpha); alpha hits the bounds {0, C} exactly because the
/// pair update clips with assignment, so exact comparisons are sound.
enum class IndexSet : std::uint8_t { I0, I1, I2, I3, I4 };

[[nodiscard]] inline IndexSet classify(double y, double alpha, double C) noexcept {
  if (alpha > 0.0 && alpha < C) return IndexSet::I0;
  if (y > 0.0) return alpha == 0.0 ? IndexSet::I1 : IndexSet::I3;
  return alpha == 0.0 ? IndexSet::I4 : IndexSet::I2;
}

/// I_up = I0 u I1 u I2: samples eligible to define beta_up = min gamma.
[[nodiscard]] inline bool in_up_set(IndexSet s) noexcept {
  return s == IndexSet::I0 || s == IndexSet::I1 || s == IndexSet::I2;
}

/// I_low = I0 u I3 u I4: samples eligible to define beta_low = max gamma.
[[nodiscard]] inline bool in_low_set(IndexSet s) noexcept {
  return s == IndexSet::I0 || s == IndexSet::I3 || s == IndexSet::I4;
}

/// Execution statistics; in the distributed solvers, counter fields are this
/// rank's share and the times are this rank's wall clock.
struct SolverStats {
  std::uint64_t iterations = 0;
  std::uint64_t kernel_evaluations = 0;
  std::uint64_t shrink_passes = 0;       ///< number of times the shrink test ran
  std::uint64_t samples_shrunk = 0;      ///< cumulative samples removed
  std::uint64_t reconstructions = 0;     ///< gradient-reconstruction rounds
  double solve_seconds = 0.0;            ///< total wall time in the solver
  double reconstruction_seconds = 0.0;   ///< wall time inside Algorithm 3
  std::uint64_t recon_kernel_evaluations = 0;  ///< kernel evals inside Algorithm 3
  // Pipelined-reconstruction accounting (see gradient_reconstruction.cpp):
  // ring steps executed, how many overlapped an exchange with compute, the
  // modeled comm seconds of the ring exchanges (gross, before crediting),
  // the portion hidden behind compute (max(compute, comm) charging), the
  // engine counters attributable to reconstruction, and how many query-row
  // scatters the adaptive orientation avoided versus the one-per-stale-
  // sample streaming path.
  std::uint64_t recon_ring_steps = 0;
  std::uint64_t recon_overlapped_steps = 0;
  double recon_comm_seconds = 0.0;
  double recon_overlapped_seconds = 0.0;
  std::uint64_t recon_scatter_builds = 0;
  std::uint64_t recon_bytes_streamed = 0;
  std::uint64_t recon_scatter_builds_saved = 0;
  double final_beta_up = std::numeric_limits<double>::quiet_NaN();
  double final_beta_low = std::numeric_limits<double>::quiet_NaN();
  std::size_t active_at_end = 0;         ///< active (non-shrunk) samples at exit
  std::size_t min_active = 0;            ///< smallest active-set size seen (this rank)
  bool converged = false;                ///< false only if max_iterations hit
  // KernelEngine counters (see EngineStats): samples through the fused
  // up/low pair path, query-row scatters (dense backends only), and CSR
  // bytes the batched ops streamed.
  std::uint64_t engine_pair_evals = 0;
  std::uint64_t engine_scatter_builds = 0;
  std::uint64_t engine_bytes_streamed = 0;
  /// (iteration, global active samples) samples; filled on rank 0 when
  /// DistributedConfig::trace_active_interval > 0.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> active_trace;
};

}  // namespace svmcore
