// High-level training API. `train()` runs the requested solver SPMD over an
// in-process world of `num_ranks` ranks, assembles the SvmModel from the
// per-rank alpha blocks and reports per-rank statistics plus communication
// traffic. SPMD users embedding the solver in their own communicator (see
// examples/parallel_training.cpp) can construct DistributedSolver directly.
#pragma once

#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/distributed_solver.hpp"
#include "core/heuristics.hpp"
#include "core/model.hpp"
#include "core/types.hpp"
#include "data/sparse.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/netmodel.hpp"
#include "obs/report.hpp"

namespace svmcore {

struct TrainOptions {
  Heuristic heuristic{};  ///< default = Original (no shrinking)
  int num_ranks = 1;
  svmmpi::NetModel net_model{};
  bool permanent_shrink = false;  ///< CA-SVM ablation; see DistributedConfig
  bool openmp_gamma = false;      ///< hybrid MPI+OpenMP gamma updates
  std::uint64_t trace_active_interval = 0;  ///< see DistributedConfig
  /// Double-buffered compute-overlapped reconstruction ring; bit-identical
  /// results either way — see DistributedConfig::pipelined_reconstruction.
  bool pipelined_reconstruction = true;

  // --- observability (src/obs) ---------------------------------------------
  /// When non-empty, the trace recorder is enabled for this run and Chrome
  /// trace-event JSON is written here when the run ends — INCLUDING failed
  /// runs: faults unwind as exceptions, so the partial trace flushes with
  /// balanced spans (view at ui.perfetto.dev). Empty (the default) keeps the
  /// recorder fully disabled: results are bit-identical and the per-event
  /// cost is a single relaxed load.
  std::string trace_path;
  /// When non-empty, a machine-readable run report (schema
  /// svmobs.run_report.v1: per-rank metric registries + cross-rank
  /// aggregate) is written here after a successful run.
  std::string metrics_path;
  /// Per-thread trace ring capacity in events; overflow drops the oldest.
  std::size_t trace_buffer_events = 1u << 16;
};

struct TrainResult {
  SvmModel model;
  double beta = 0.0;
  /// The full stitched multiplier vector (one entry per training sample);
  /// what the model's support vectors were assembled from. Feeds post-hoc
  /// optimality checks (kkt_report) without re-deriving alpha from the model.
  std::vector<double> alpha;
  std::uint64_t iterations = 0;  ///< global iteration count (rank-invariant)

  std::vector<SolverStats> rank_stats;           ///< indexed by rank
  /// (iteration, global active samples) trace from rank 0 when enabled.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> active_trace;
  std::vector<svmmpi::TrafficStats> rank_traffic;
  svmmpi::TrafficStats traffic;                  ///< totals over ranks
  /// Per-rank metric registries (solver counters + net.* traffic), indexed
  /// by rank, plus the cross-rank aggregate; feeds run_report().
  std::vector<svmobs::MetricsRegistry> rank_metrics;
  svmobs::MetricsRegistry metrics;

  /// Aggregates across ranks: summed work counters, max wall times.
  std::uint64_t total_kernel_evaluations = 0;
  std::uint64_t max_rank_kernel_evaluations = 0;
  std::uint64_t samples_shrunk = 0;
  std::uint64_t reconstructions = 0;
  std::uint64_t recon_kernel_evaluations = 0;  ///< summed over ranks
  std::uint64_t engine_pair_evals = 0;         ///< summed over ranks
  std::uint64_t engine_scatter_builds = 0;     ///< summed over ranks
  std::uint64_t engine_bytes_streamed = 0;     ///< summed over ranks
  // Reconstruction-pipeline aggregates (see SolverStats): ring steps and
  // overlapped steps are rank-invariant counts from the first completed
  // rank; seconds are max over ranks (the slowest rank paces the ring);
  // engine counters and scatter savings are summed over ranks.
  std::uint64_t recon_ring_steps = 0;
  std::uint64_t recon_overlapped_steps = 0;
  double recon_comm_seconds = 0.0;
  double recon_overlapped_seconds = 0.0;
  std::uint64_t recon_scatter_builds = 0;      ///< summed over ranks
  std::uint64_t recon_bytes_streamed = 0;      ///< summed over ranks
  std::uint64_t recon_scatter_builds_saved = 0;  ///< summed over ranks
  double solve_seconds = 0.0;           ///< max over ranks
  double reconstruction_seconds = 0.0;  ///< max over ranks
  double wall_seconds = 0.0;            ///< around the whole SPMD region
  double modeled_seconds = 0.0;         ///< max per-rank compute+network model
  bool converged = false;
  /// Resolved engine strategy that produced this result ("simd",
  /// "dense_scatter" or a pinned "reference"; never "auto"), mirrored into
  /// the run report / trace metadata so artifacts record their provenance.
  std::string engine_backend;
  /// Training algorithm that produced this result ("smo" or "pbm").
  std::string solver_algo;

  [[nodiscard]] std::size_t num_support_vectors() const {
    return model.num_support_vectors();
  }
};

[[nodiscard]] TrainResult train(const svmdata::Dataset& dataset, const SolverParams& params,
                                const TrainOptions& options = {});

/// How train_with_recovery responds to a rank failure.
enum class RecoveryPolicy {
  /// Tear the world down and relaunch all `num_ranks` ranks from the last
  /// consistent checkpoint cut. A PERMANENT loss (FaultPlan::die) erases the
  /// dead rank's process memory first (CheckpointStore::mark_rank_lost): the
  /// cold replacement can read disk spills but never the dead RAM, so a
  /// memory-only store replays from scratch.
  restart_world,
  /// ULFM-style in-world recovery: survivors agree on the dead set, shrink
  /// to a compacted communicator, the new leader repartitions the dead
  /// rank's state onto the survivors (reaching it through the buddy replica
  /// held in a survivor's memory) and training resumes on p-1 ranks from the
  /// newest reachable cut. Requires net_model.timeout_s > 0. When no cut is
  /// reachable (e.g. adjacent double failure) the shrunken world restarts
  /// from scratch.
  shrink_world,
  /// shrink_world while a reachable cut exists; otherwise escalate to a full
  /// restart_world attempt at the original rank count.
  shrink_then_restart,
};

/// Fault-tolerant training: inject the given fault plan, checkpoint every
/// `checkpoint_interval` iterations, and on a rank failure or timeout recover
/// per `policy` (restart the world, or shrink it and continue).
struct RecoveryOptions {
  svmmpi::FaultPlan fault_plan{};  ///< faults to inject (empty = none)
  RecoveryPolicy policy = RecoveryPolicy::restart_world;
  /// Checkpoint cadence in solver iterations; 0 disables checkpointing (every
  /// restart then replays from scratch).
  std::uint64_t checkpoint_interval = 64;
  /// Maximum SPMD relaunches after the initial attempt before giving up and
  /// rethrowing the last failure.
  int max_restarts = 8;
  /// Capped exponential backoff between relaunches: before retry k (0-based)
  /// the driver sleeps min(backoff_base_s * 2^k, backoff_cap_s) wall-clock
  /// seconds, modelling a real scheduler's restart throttle so a flapping
  /// node does not hot-loop the cluster. 0 (the default) disables the sleep.
  double backoff_base_s = 0.0;
  double backoff_cap_s = 1.0;
  /// Maximum in-world shrink generations per elastic attempt; one more loss
  /// escalates to a full-world relaunch (counted against max_restarts) even
  /// under shrink_world, bounding how far a cascade of permanent losses can
  /// erode a single attempt's rank count. Negative (the default) = unlimited.
  int max_shrinks = -1;
  /// Optional external store (e.g. file-backed via CheckpointStore's
  /// directory constructor, or one reloaded with CheckpointStore::open).
  /// When null an in-memory store scoped to this call is used.
  CheckpointStore* store = nullptr;
};

struct RecoveryReport {
  int attempts = 0;                   ///< SPMD launches performed (1 = fault-free)
  int restarts = 0;                   ///< full-world relaunches performed
  int shrinks = 0;                    ///< in-world shrink recoveries performed
  double backoff_seconds = 0.0;       ///< total restart-throttle sleep
  std::vector<std::string> failures;  ///< what() of each failure survived
  std::vector<int> ranks_lost;        ///< world ranks whose memory was lost
  std::uint64_t checkpoints_saved = 0;
  /// Epoch (iteration count) each recovery resumed from; 0 = from scratch.
  std::vector<std::uint64_t> restore_epochs;
  /// Recovery cost: sum over recoveries of (final iteration count - resume
  /// epoch), i.e. iterations the run had to execute again past each resume
  /// point. Smaller = cheaper recovery; 0 = no failures.
  std::uint64_t iterations_replayed = 0;
};

/// Runs train() under the fault plan in `recovery`, transparently recovering
/// per `recovery.policy` until the solve completes or `max_restarts` is
/// exhausted (then the last failure is rethrown). With a crash-only fault
/// plan under restart_world the returned model is bit-identical to a
/// fault-free train() with the same options; the shrink policies resume the
/// identical solver trajectory on the surviving ranks (same support-vector
/// set, objective equal to ~1e-10 — the only float differences come from
/// re-grouped ring/assembly summations).
[[nodiscard]] TrainResult train_with_recovery(const svmdata::Dataset& dataset,
                                              const SolverParams& params,
                                              const TrainOptions& options,
                                              const RecoveryOptions& recovery,
                                              RecoveryReport* report = nullptr);

/// Builds a model from a full alpha vector (e.g. the sequential solver's).
[[nodiscard]] SvmModel build_model(const svmdata::Dataset& dataset,
                                   std::span<const double> alpha, double beta,
                                   const svmkernel::KernelParams& kernel);

/// Packages a finished run as an svmobs run report (per-rank registries +
/// aggregate + run descriptors). Callers append reports from several runs
/// and hand them to svmobs::write_reports.
[[nodiscard]] svmobs::RunReport run_report(const TrainResult& result,
                                           const TrainOptions& options,
                                           std::string name = "train");

}  // namespace svmcore
