#include "core/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "mpisim/spmd.hpp"
#include "obs/trace.hpp"
#include "solver/pbm_solver.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace svmcore {

SvmModel build_model(const svmdata::Dataset& dataset, std::span<const double> alpha, double beta,
                     const svmkernel::KernelParams& kernel) {
  svmdata::CsrMatrix support_vectors;
  std::vector<double> coefficients;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (alpha[i] > 0.0) {
      support_vectors.add_row(dataset.X.row(i));
      coefficients.push_back(alpha[i] * dataset.y[i]);
    }
  }
  return SvmModel(kernel, std::move(support_vectors), std::move(coefficients), beta);
}

namespace {

/// Stitches per-rank results into the TrainResult (model assembly, scalar
/// plucking, counter aggregation). `results` is indexed by world rank; after
/// an elastic shrink a dead rank's slot is a default RankResult (empty alpha)
/// and is skipped — scalars then come from the first completed rank, and the
/// surviving ranks' post-shrink block ranges cover every sample.
void finish_result(const svmdata::Dataset& dataset, const DistributedConfig& config,
                   const std::vector<RankResult>& results, TrainResult& out) {
  const RankResult* first = nullptr;
  for (const RankResult& r : results)
    if (!r.alpha.empty()) {
      first = &r;
      break;
    }
  if (first == nullptr) throw std::logic_error("train: no rank produced a result");

  // Stitch the block alphas back into one global vector for model assembly.
  std::vector<double> alpha(dataset.size(), 0.0);
  for (const RankResult& r : results)
    for (std::size_t i = 0; i < r.alpha.size(); ++i) alpha[r.range.begin + i] = r.alpha[i];

  out.beta = first->beta;
  out.iterations = first->stats.iterations;
  out.converged = first->stats.converged;
  out.rank_stats.reserve(results.size());
  for (std::size_t r = 0; r < results.size(); ++r) {
    const SolverStats& s = results[r].stats;
    out.rank_stats.push_back(s);
    out.total_kernel_evaluations += s.kernel_evaluations;
    out.max_rank_kernel_evaluations =
        std::max(out.max_rank_kernel_evaluations, s.kernel_evaluations);
    out.samples_shrunk += s.samples_shrunk;
    out.recon_kernel_evaluations += s.recon_kernel_evaluations;
    out.engine_pair_evals += s.engine_pair_evals;
    out.engine_scatter_builds += s.engine_scatter_builds;
    out.engine_bytes_streamed += s.engine_bytes_streamed;
    out.recon_comm_seconds = std::max(out.recon_comm_seconds, s.recon_comm_seconds);
    out.recon_overlapped_seconds =
        std::max(out.recon_overlapped_seconds, s.recon_overlapped_seconds);
    out.recon_scatter_builds += s.recon_scatter_builds;
    out.recon_bytes_streamed += s.recon_bytes_streamed;
    out.recon_scatter_builds_saved += s.recon_scatter_builds_saved;
    out.solve_seconds = std::max(out.solve_seconds, s.solve_seconds);
    out.reconstruction_seconds =
        std::max(out.reconstruction_seconds, s.reconstruction_seconds);
  }
  out.reconstructions = first->stats.reconstructions;
  out.recon_ring_steps = first->stats.recon_ring_steps;
  out.recon_overlapped_steps = first->stats.recon_overlapped_steps;
  out.active_trace = first->stats.active_trace;

  // Per-rank metric registries: the solver's registry completed with the
  // rank's communication traffic, then folded into the cross-rank aggregate.
  out.rank_metrics.reserve(results.size());
  for (std::size_t r = 0; r < results.size(); ++r) {
    svmobs::MetricsRegistry m = results[r].metrics;
    if (r < out.rank_traffic.size()) {
      const svmmpi::TrafficStats& t = out.rank_traffic[r];
      m.counter("net.sends").set(t.sends);
      m.counter("net.recvs").set(t.recvs);
      m.counter("net.bytes_sent").set(t.bytes_sent);
      m.counter("net.bytes_received").set(t.bytes_received);
      m.counter("net.collectives").set(t.collectives);
      m.counter("net.bytes_collective").set(t.bytes_collective);
      m.gauge("net.modeled_s").set(t.modeled_seconds);
      m.gauge("net.overlapped_s").set(t.overlapped_seconds);
    }
    out.rank_metrics.push_back(std::move(m));
  }
  out.metrics = svmobs::MetricsRegistry();
  for (const svmobs::MetricsRegistry& m : out.rank_metrics) out.metrics.aggregate_from(m);

  // Modeled time on the paper's testbed: per-rank kernel work (lambda per
  // evaluation) plus the rank's modeled network time; take the slowest rank.
  constexpr double kLambdaSeconds = 50e-9;  // ~50ns per sparse kernel eval
  for (std::size_t r = 0; r < results.size(); ++r) {
    const double modeled =
        static_cast<double>(results[r].stats.kernel_evaluations) * kLambdaSeconds +
        out.rank_traffic[r].modeled_seconds;
    out.modeled_seconds = std::max(out.modeled_seconds, modeled);
  }

  // Provenance: the engine strategy every rank's f64 engine over dataset.X
  // resolved to, mirrored into run reports and (when tracing) the trace
  // timeline. Labels are string literals — the trace recorder keeps
  // pointers, not copies.
  const svmkernel::EngineBackend backend =
      svmkernel::resolve_backend(config.params.engine_backend, dataset.X);
  out.engine_backend = svmkernel::to_string(backend);
  out.solver_algo = to_string(config.params.algo);
  svmobs::trace_instant(svmkernel::trace_label(backend), "meta");

  out.model = build_model(dataset, alpha, out.beta, config.params.kernel);
  out.alpha = std::move(alpha);
}

void validate_train_inputs(const svmdata::Dataset& dataset, const TrainOptions& options) {
  if (options.num_ranks <= 0) throw std::invalid_argument("train: num_ranks must be positive");
  if (static_cast<std::size_t>(options.num_ranks) > dataset.size())
    throw std::invalid_argument("train: more ranks than samples");
  dataset.validate();
}

/// Solver dispatch on SolverParams::algo. Runs inside the SPMD lambda, so
/// both entry points (plain and elastic) pick the algorithm per launch with
/// the same configuration object.
void run_solver(svmmpi::Comm& comm, const svmdata::Dataset& dataset,
                const DistributedConfig& config, RankResult& out) {
  if (config.params.algo == SolverAlgo::pbm) {
    PbmSolver solver(comm, dataset, config);
    out = solver.solve();
  } else {
    DistributedSolver solver(comm, dataset, config);
    out = solver.solve();
  }
}

/// PBM's block count must be fixed at LAUNCH rank count (not the current,
/// possibly shrunken, world size) so the optimization trajectory survives
/// elastic recovery unchanged. Resolved once here, before any SPMD region.
void resolve_pbm_blocks(DistributedConfig& config, const TrainOptions& options) {
  if (config.params.algo != SolverAlgo::pbm) return;
  if (config.params.pbm_blocks == 0) config.params.pbm_blocks = options.num_ranks;
  if (config.params.pbm_blocks < options.num_ranks)
    throw std::invalid_argument("train: pbm_blocks must be >= num_ranks");
}

/// Shared SPMD launch + result assembly used by both entry points. `config`
/// carries the optional checkpoint wiring and `injector` the optional fault
/// schedule; both may be null/disabled for a plain run.
TrainResult train_impl(const svmdata::Dataset& dataset, const TrainOptions& options,
                       const DistributedConfig& config, svmmpi::FaultInjector* injector) {
  validate_train_inputs(dataset, options);

  std::vector<RankResult> results(options.num_ranks);

  TrainResult out;
  svmutil::Timer wall;
  svmmpi::TrafficStats total = svmmpi::run_spmd(
      options.num_ranks,
      [&](svmmpi::Comm& comm) { run_solver(comm, dataset, config, results[comm.rank()]); },
      options.net_model,
      [&](const svmmpi::World& world) {
        out.rank_traffic.reserve(options.num_ranks);
        for (int r = 0; r < options.num_ranks; ++r) out.rank_traffic.push_back(world.stats(r));
      },
      injector);
  out.wall_seconds = wall.seconds();
  out.traffic = total;
  finish_result(dataset, config, results, out);
  return out;
}

/// shrink_then_restart found no reachable consistent cut: thrown by every
/// survivor to tear the elastic region down so the driver can relaunch the
/// full world instead.
struct EscalateToRestart : std::runtime_error {
  EscalateToRestart()
      : std::runtime_error(
            "elastic recovery: no consistent cut reachable; escalating to a full restart") {}
};

/// Elastic shrink-world training: one SPMD region that survives permanent
/// rank losses. Each rank's body is a retry loop: on the RankLost verdict the
/// survivors shrink the communicator; the new leader models the memory loss
/// in the generation's store, repartitions the reachable cut into a fresh
/// store sized for the survivors and publishes it, and every survivor
/// re-enters the solve on the shrunken communicator.
TrainResult train_elastic(const svmdata::Dataset& dataset, const TrainOptions& options,
                          const DistributedConfig& config, svmmpi::FaultInjector* injector,
                          bool escalate_when_unrecoverable, int max_shrinks,
                          RecoveryReport& rep) {
  validate_train_inputs(dataset, options);

  std::vector<RankResult> results(options.num_ranks);

  // Shrink-generation state, published by each generation's new leader.
  struct Generation {
    CheckpointStore* store = nullptr;  ///< store for the shrunken world
    bool escalate = false;             ///< no reachable cut: abandon the region
  };
  std::mutex mutex;
  std::condition_variable published_cv;
  std::vector<Generation> published;
  // Repartitioned stores must outlive the solvers reading them; the chain
  // also keeps superseded generations alive for stragglers mid-recovery.
  std::vector<std::unique_ptr<CheckpointStore>> chain;

  TrainResult out;
  svmutil::Timer wall;
  svmmpi::ElasticReport elastic = svmmpi::run_spmd_elastic(
      options.num_ranks,
      [&](svmmpi::Comm& world_comm) {
        svmmpi::Comm comm = world_comm;
        CheckpointStore* gen_store = config.checkpoint_store;
        std::size_t my_gen = 0;
        for (;;) {
          try {
            DistributedConfig cfg = config;
            cfg.checkpoint_store = gen_store;
            run_solver(comm, dataset, cfg, results[world_comm.rank()]);
            return;
          } catch (const svmmpi::RankLost& lost) {
            svmmpi::Comm next = comm.shrink();
            if (next.rank() == 0) {
              // This generation's new leader performs the repartition and
              // publishes the outcome; survivors of the agree are guaranteed
              // to reach this same generation, so the publish slot is unique.
              std::lock_guard lock(mutex);
              Generation gen;
              for (const int world_rank : comm.dead_members())
                if (std::find(rep.ranks_lost.begin(), rep.ranks_lost.end(), world_rank) ==
                    rep.ranks_lost.end())
                  rep.ranks_lost.push_back(world_rank);
              rep.failures.push_back(lost.what());
              if (max_shrinks >= 0 && static_cast<int>(my_gen) >= max_shrinks) {
                // The shrink budget for this attempt is spent: tear the
                // region down so the driver relaunches the full world.
                gen.escalate = true;
              } else if (gen_store != nullptr) {
                // The dead ranks' process memory is gone: erase their primary
                // copies (and the buddy replicas they held), then reach the
                // newest consistent cut through the surviving replicas.
                for (const int world_rank : comm.dead_members()) {
                  const int old_rank = comm.comm_rank_of_world(world_rank);
                  if (old_rank >= 0) gen_store->mark_rank_lost(old_rank);
                }
                auto fresh = std::make_unique<CheckpointStore>(next.size());
                const std::optional<std::uint64_t> epoch =
                    repartition_from_checkpoints(*gen_store, dataset.size(), *fresh);
                if (epoch) {
                  (void)fresh->begin_restart();
                  gen.store = fresh.get();
                  chain.push_back(std::move(fresh));
                  ++rep.shrinks;
                  rep.restore_epochs.push_back(*epoch);
                } else if (escalate_when_unrecoverable) {
                  gen.escalate = true;
                } else {
                  // No reachable cut: the shrunken world restarts from
                  // scratch with a fresh (empty) store.
                  gen.store = fresh.get();
                  chain.push_back(std::move(fresh));
                  ++rep.shrinks;
                  rep.restore_epochs.push_back(0);
                }
              } else {
                // Checkpointing disabled: resume from scratch, shrunken.
                ++rep.shrinks;
                rep.restore_epochs.push_back(0);
              }
              published.push_back(gen);
              published_cv.notify_all();
            }
            Generation gen;
            {
              std::unique_lock lock(mutex);
              published_cv.wait(lock, [&] { return published.size() > my_gen; });
              gen = published[my_gen];
            }
            if (gen.escalate) throw EscalateToRestart{};
            // Marks the start of the next recovery generation on this
            // survivor's trace track.
            svmobs::trace_instant("world_shrink", "fault");
            comm = next;
            gen_store = gen.store;
            ++my_gen;
          }
        }
      },
      options.net_model,
      [&](const svmmpi::World& world) {
        out.rank_traffic.reserve(options.num_ranks);
        for (int r = 0; r < options.num_ranks; ++r) out.rank_traffic.push_back(world.stats(r));
      },
      injector);
  out.wall_seconds = wall.seconds();
  out.traffic = elastic.stats;
  for (const auto& store : chain) rep.checkpoints_saved += store->saves();
  finish_result(dataset, config, results, out);
  return out;
}

/// Scoped trace recording for one train() call: reset + enable on entry,
/// disable + flush-to-file on EVERY exit — a failing run unwinds through
/// here with its rank threads already joined (the SPMD launcher joins before
/// rethrowing), so the partial trace is complete and race-free.
class TraceSession {
 public:
  explicit TraceSession(const TrainOptions& options)
      : path_(options.trace_path), active_(!options.trace_path.empty()) {
    if (!active_) return;
    svmobs::trace_reset();
    svmobs::trace_enable(options.trace_buffer_events);
  }
  ~TraceSession() {
    if (!active_) return;
    svmobs::trace_disable();
    try {
      svmobs::trace_write(path_);
    } catch (const std::exception& e) {
      SVM_LOG_WARN << "trace flush failed: " << e.what();
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
  bool active_;
};

void maybe_write_metrics(const TrainResult& result, const TrainOptions& options) {
  if (options.metrics_path.empty()) return;
  svmobs::write_reports(options.metrics_path, {run_report(result, options)});
}

}  // namespace

svmobs::RunReport run_report(const TrainResult& result, const TrainOptions& options,
                             std::string name) {
  svmobs::RunReport report;
  report.name = std::move(name);
  report.info.emplace_back("ranks", std::to_string(options.num_ranks));
  report.info.emplace_back("heuristic", options.heuristic.name());
  report.info.emplace_back("iterations", std::to_string(result.iterations));
  report.info.emplace_back("support_vectors", std::to_string(result.num_support_vectors()));
  report.info.emplace_back("converged", result.converged ? "true" : "false");
  if (!result.engine_backend.empty())
    report.info.emplace_back("engine_backend", result.engine_backend);
  if (!result.solver_algo.empty()) report.info.emplace_back("solver", result.solver_algo);
  report.ranks = result.rank_metrics;
  report.aggregate = result.metrics;
  report.aggregate.gauge("wall_s").set(result.wall_seconds);
  report.aggregate.gauge("modeled_s").set(result.modeled_seconds);
  return report;
}

TrainResult train(const svmdata::Dataset& dataset, const SolverParams& params,
                  const TrainOptions& options) {
  DistributedConfig config{params,
                           options.heuristic,
                           options.permanent_shrink,
                           options.openmp_gamma,
                           options.trace_active_interval,
                           options.pipelined_reconstruction};
  resolve_pbm_blocks(config, options);
  TraceSession trace(options);
  TrainResult out = train_impl(dataset, options, config, /*injector=*/nullptr);
  maybe_write_metrics(out, options);
  return out;
}

TrainResult train_with_recovery(const svmdata::Dataset& dataset, const SolverParams& params,
                                const TrainOptions& options, const RecoveryOptions& recovery,
                                RecoveryReport* report) {
  if (recovery.max_restarts < 0)
    throw std::invalid_argument("train_with_recovery: max_restarts must be non-negative");
  if (recovery.policy != RecoveryPolicy::restart_world && options.net_model.timeout_s <= 0.0)
    throw std::invalid_argument(
        "train_with_recovery: shrink policies need net_model.timeout_s > 0 (deadline-driven "
        "failure detection)");

  // One injector across all attempts: a fault already fired stays consumed,
  // so a crash event kills exactly one launch instead of every retry.
  svmmpi::FaultInjector injector(recovery.fault_plan);
  std::optional<CheckpointStore> owned_store;
  CheckpointStore* store = recovery.store;
  if (store == nullptr) {
    owned_store.emplace(options.num_ranks);
    store = &*owned_store;
  } else if (store->num_ranks() != options.num_ranks) {
    throw std::invalid_argument("train_with_recovery: store num_ranks mismatch");
  }

  DistributedConfig config{params,
                           options.heuristic,
                           options.permanent_shrink,
                           options.openmp_gamma,
                           options.trace_active_interval,
                           options.pipelined_reconstruction};
  config.checkpoint_interval = recovery.checkpoint_interval;
  config.checkpoint_store = recovery.checkpoint_interval > 0 ? store : nullptr;
  resolve_pbm_blocks(config, options);

  RecoveryReport local_report;
  RecoveryReport& rep = report != nullptr ? *report : local_report;
  rep = RecoveryReport{};

  // One trace session across every attempt, so restarts and recovery
  // generations land on one timeline (marked by the instants below).
  TraceSession trace(options);

  // The elastic policies recover in-world; the driver loop only sees their
  // unrecoverable outcomes (escalation, unexplained timeout) and relaunches
  // the FULL world — by then any permanent losses are already modeled in the
  // store, so a memory-only store restarts from whatever is still reachable
  // by a cold process (nothing), and a file-backed one from its disk spills.
  for (int attempt = 0;; ++attempt) {
    try {
      ++rep.attempts;
      TrainResult out =
          recovery.policy == RecoveryPolicy::restart_world
              ? train_impl(dataset, options, config, &injector)
              : train_elastic(dataset, options, config, &injector,
                              recovery.policy == RecoveryPolicy::shrink_then_restart,
                              recovery.max_shrinks, rep);
      rep.checkpoints_saved += store->saves();
      for (const std::uint64_t epoch : rep.restore_epochs)
        rep.iterations_replayed += out.iterations - std::min(epoch, out.iterations);
      maybe_write_metrics(out, options);
      return out;
    } catch (const svmmpi::RankFailed& failure) {
      rep.failures.push_back(failure.what());
      if (failure.permanent) {
        // Permanent loss under restart_world: the rank's process memory is
        // gone. Its disk spills (if any) survive; its in-memory checkpoints
        // and the buddy replicas it held do not.
        if (std::find(rep.ranks_lost.begin(), rep.ranks_lost.end(), failure.rank) ==
            rep.ranks_lost.end())
          rep.ranks_lost.push_back(failure.rank);
        if (config.checkpoint_store != nullptr) store->mark_rank_lost(failure.rank);
      }
      if (attempt == recovery.max_restarts) throw;
    } catch (const svmmpi::TimeoutError& failure) {
      rep.failures.push_back(failure.what());
      if (attempt == recovery.max_restarts) throw;
    } catch (const EscalateToRestart& escalation) {
      rep.failures.push_back(escalation.what());
      if (attempt == recovery.max_restarts)
        throw std::runtime_error(std::string("train_with_recovery: out of restarts after: ") +
                                 escalation.what());
    }
    if (recovery.backoff_base_s > 0.0) {
      // Restart throttle: capped exponential backoff before the relaunch.
      const double delay_s =
          std::min(recovery.backoff_base_s * std::ldexp(1.0, attempt), recovery.backoff_cap_s);
      rep.backoff_seconds += delay_s;
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
    }
    // Pin the newest consistent cut (single-threaded: the failed world has
    // been fully joined by the launcher before its exception reached us).
    const std::optional<std::uint64_t> epoch =
        config.checkpoint_store != nullptr ? store->begin_restart() : std::nullopt;
    rep.restore_epochs.push_back(epoch.value_or(0));
    ++rep.restarts;
    svmobs::trace_instant("world_restart", "fault");
  }
}

}  // namespace svmcore
