// Shared harness for the paper-artifact benches. Every bench binary
// regenerates one table or figure from the paper's §V: it runs the relevant
// solver configurations at container scale and prints the same rows/series
// the paper reports, echoing the paper's own numbers for comparison.
//
// Measurement caveat (documented in DESIGN.md): ranks are threads of one
// process on the host's cores (4 on the reference container), so wall time
// can drop with p only up to the core count; beyond it ranks time-share.
// Scaling rows therefore report, per p: iterations, the slowest rank's
// kernel-evaluation count (the per-rank work the paper's speedup comes
// from), wall time, and "modeled s" = per-rank work * lambda + the alpha-
// beta network model — the quantity whose shape mirrors the paper's curves.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/libsvm_like.hpp"
#include "core/trainer.hpp"
#include "data/zoo.hpp"
#include "kernel/kernel_engine.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/table.hpp"

namespace svmbench {

struct BenchArgs {
  double scale = 1.0;          ///< multiplies each bench's default dataset size
  std::vector<int> ranks;      ///< override rank sweep (empty = bench default)
  bool quick = false;          ///< shrink everything for smoke runs
  double eps = 1e-3;
  std::string trace_out;       ///< --trace-out: Chrome trace of the runs
  std::string metrics_out;     ///< --metrics-out: run report of every config
  /// --engine-flavor: the flavor of the baseline's cached Q-row storage (the
  /// solvers always train in f64, on the strategy the data selects).
  std::string engine_flavor = "f64";
};

/// Parses "p1,p2,..."; every entry must be a whole positive integer.
/// Throws std::invalid_argument otherwise.
inline std::vector<int> parse_rank_list(const std::string& list) {
  std::vector<int> ranks;
  std::size_t at = 0;
  while (at <= list.size()) {
    const std::size_t comma = std::min(list.find(',', at), list.size());
    const std::string entry = list.substr(at, comma - at);
    int p = 0;
    const auto [end, error] = std::from_chars(entry.data(), entry.data() + entry.size(), p);
    if (entry.empty() || error != std::errc() || end != entry.data() + entry.size() || p <= 0)
      throw std::invalid_argument("--ranks: '" + entry + "' is not a positive rank count");
    ranks.push_back(p);
    at = comma + 1;
  }
  return ranks;
}

/// Parsed flags + the standard BenchArgs. Benches with extra flags (repeats,
/// seeds, --assert, ...) read them from `flags`; everything standard —
/// obs paths, engine flavor, scale/ranks/quick/eps — is already applied
/// and filled into `args`.
struct ParsedArgs {
  svmutil::CliFlags flags;
  BenchArgs args;
};

/// "usage: prog [--flag V] [--switch] ..." for a CliFlags known-flags list.
inline std::string usage_line(const std::string& program, const std::vector<std::string>& known) {
  std::string line = "usage: " + program;
  for (const std::string& k : known)
    line += k.back() == '!' ? " [--" + k.substr(0, k.size() - 1) + "]" : " [--" + k + " V]";
  return line;
}

/// One-call flag wiring shared by every bench: appends the standard obs
/// flags (and scale/ranks/quick/eps/engine-flavor) to the bench's own flag
/// list, parses argv, applies --log-level, and fills BenchArgs. A bad flag
/// or value prints the error and the usage line and exits 2.
inline ParsedArgs parse_args_with(int argc, char** argv, std::vector<std::string> extra) {
  extra.insert(extra.end(), {"scale", "ranks", "quick!", "eps", "engine-flavor"});
  const std::vector<std::string> known = svmutil::with_obs_flags(std::move(extra));
  try {
    svmutil::CliFlags flags(argc, argv, known);
    const svmutil::ObsPaths obs = svmutil::apply_obs_flags(flags);
    BenchArgs args;
    args.scale = flags.get_double("scale", 1.0);
    args.quick = flags.get_bool("quick");
    args.eps = flags.get_double("eps", 1e-3);
    args.trace_out = obs.trace_out;
    args.metrics_out = obs.metrics_out;
    args.engine_flavor = flags.get("engine-flavor", "f64");
    (void)svmkernel::row_flavor_from_string(args.engine_flavor);  // validate early
    if (flags.has("ranks")) args.ranks = parse_rank_list(flags.get("ranks", ""));
    if (args.quick) args.scale *= 0.25;
    return ParsedArgs{std::move(flags), std::move(args)};
  } catch (const std::logic_error& e) {  // invalid_argument, out_of_range
    std::fprintf(stderr, "error: %s\n%s\n", e.what(),
                 usage_line(argc > 0 ? argv[0] : "bench", known).c_str());
    std::exit(2);
  }
}

inline BenchArgs parse_args(int argc, char** argv) {
  return parse_args_with(argc, argv, {}).args;
}

inline void print_banner(const std::string& artifact, const std::string& paper_summary) {
  std::printf("================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("paper: %s\n", paper_summary.c_str());
  std::printf("================================================================\n");
}

inline svmcore::SolverParams params_for(const svmdata::ZooEntry& entry, double eps) {
  svmcore::SolverParams p;
  p.C = entry.C;
  p.eps = eps;
  p.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  return p;
}

/// One solver configuration on one dataset at one rank count.
struct ScalingRow {
  std::string label;
  int ranks = 0;
  svmcore::TrainResult result;
};

/// Runs {Default, Shrinking(Best)=Multi5pc, Shrinking(Worst)=Single50pc}
/// across `rank_list` — the three bars of Figures 3-7. When `reports` is
/// non-null a run report per configuration is appended (named
/// "<label>/p<ranks>"), ready for svmobs::write_reports.
inline std::vector<ScalingRow> run_scaling(const svmdata::Dataset& train,
                                           const svmcore::SolverParams& params,
                                           const std::vector<int>& rank_list,
                                           std::vector<svmobs::RunReport>* reports = nullptr) {
  const struct {
    const char* label;
    const char* heuristic;
  } configs[] = {{"Default", "Original"},
                 {"Shrink(Best)", "Multi5pc"},
                 {"Shrink(Worst)", "Single50pc"}};
  std::vector<ScalingRow> rows;
  for (const int p : rank_list) {
    for (const auto& config : configs) {
      svmcore::TrainOptions options;
      options.num_ranks = p;
      options.heuristic = svmcore::Heuristic::parse(config.heuristic);
      rows.push_back(ScalingRow{config.label, p, svmcore::train(train, params, options)});
      if (reports != nullptr)
        reports->push_back(svmcore::run_report(rows.back().result, options,
                                               std::string(config.label) + "/p" +
                                                   std::to_string(p)));
    }
  }
  return rows;
}

/// Prints a scaling table with speedups relative to the first configuration
/// at the same rank count (the Default algorithm).
inline void print_scaling_table(const std::vector<ScalingRow>& rows) {
  svmutil::TextTable table({"config", "p", "iters", "work/rank (kevals)", "wall s", "modeled s",
                            "speedup vs Default", "recon s", "shrunk", "streamed MB"});
  double default_modeled = 0.0;
  for (const ScalingRow& row : rows) {
    if (row.label == "Default") default_modeled = row.result.modeled_seconds;
    const double speedup =
        row.result.modeled_seconds > 0 ? default_modeled / row.result.modeled_seconds : 0.0;
    table.add_row({row.label, svmutil::TextTable::integer(row.ranks),
                   svmutil::TextTable::integer(row.result.iterations),
                   svmutil::TextTable::integer(
                       static_cast<long long>(row.result.max_rank_kernel_evaluations / 1000)),
                   svmutil::TextTable::num(row.result.wall_seconds, 2),
                   svmutil::TextTable::num(row.result.modeled_seconds, 3),
                   svmutil::TextTable::num(speedup, 2),
                   svmutil::TextTable::num(row.result.reconstruction_seconds, 3),
                   svmutil::TextTable::integer(row.result.samples_shrunk),
                   // KernelEngine work metric: CSR payload traversed by the
                   // batched gamma-update path, summed over ranks. Shrinking
                   // shows up here directly — fewer active rows, fewer bytes.
                   svmutil::TextTable::num(
                       static_cast<double>(row.result.engine_bytes_streamed) / 1e6, 1)});
  }
  table.print();
}

/// Baseline reference: the libsvm-style solver on the same dataset, reported
/// the way the paper uses "libsvm-enhanced using 16 cores on one node".
inline svmbaseline::BaselineResult run_baseline(const svmdata::Dataset& train,
                                                const svmdata::ZooEntry& entry, double eps) {
  svmbaseline::BaselineOptions options;
  options.C = entry.C;
  options.eps = eps;
  options.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  return svmbaseline::solve_libsvm_like(train, options);
}

/// BenchArgs-aware variant: the --engine-flavor selection picks the
/// baseline's cached Q-row storage (its one flavor-sensitive data path).
inline svmbaseline::BaselineResult run_baseline(const svmdata::Dataset& train,
                                                const svmdata::ZooEntry& entry,
                                                const BenchArgs& args) {
  svmbaseline::BaselineOptions options;
  options.C = entry.C;
  options.eps = args.eps;
  options.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  options.q_flavor = svmkernel::row_flavor_from_string(args.engine_flavor);
  return svmbaseline::solve_libsvm_like(train, options);
}

inline void print_baseline_line(const svmbaseline::BaselineResult& baseline) {
  std::printf(
      "libsvm-enhanced baseline: %.2f s wall, %llu iterations, cache hit rate %.1f%%\n\n",
      baseline.solve_seconds, static_cast<unsigned long long>(baseline.iterations),
      100.0 * baseline.cache_hit_rate);
}

}  // namespace svmbench

namespace svmbench {

/// Complete scaling-figure harness shared by Figures 3-7: generates the
/// dataset at `scale_hint * args.scale`, sweeps the rank list, prints the
/// three-configuration table plus the libsvm-enhanced reference, and echoes
/// the paper's reported claim for shape comparison.
inline int run_figure_bench(const std::string& figure, const std::string& dataset,
                            double scale_hint, std::vector<int> default_ranks,
                            const std::string& paper_claim, const BenchArgs& args) {
  const svmdata::ZooEntry& entry = svmdata::zoo_entry(dataset);
  print_banner(figure + " - " + dataset + " scaling",
               paper_claim + " [paper: n=" + std::to_string(entry.paper_train_size) +
                   ", up to " + std::to_string(entry.paper_processes) + " processes]");

  const double scale = scale_hint * args.scale;
  const svmdata::Dataset train = svmdata::make_train(entry, scale);
  std::printf(
      "container workload: n=%zu, d=%zu, density %.2f%%, C=%g, sigma^2=%g, "
      "engine=%s (auto, density %.2f), baseline Q flavor=%s\n\n",
      train.size(), train.dim(), 100.0 * train.X.density(), entry.C, entry.sigma_sq,
      svmkernel::to_string(
          svmkernel::resolve_backend(svmkernel::EngineBackend::auto_select, train.X))
          .c_str(),
      train.X.density(), args.engine_flavor.c_str());

  const std::vector<int> rank_list = args.ranks.empty() ? default_ranks : args.ranks;
  // Every configuration of the sweep lands on one trace timeline (separated
  // by "solve" spans) and one run-report file, so a figure's whole sweep can
  // be inspected in Perfetto / diffed as JSON in one artifact each.
  if (!args.trace_out.empty()) {
    svmobs::trace_reset();
    svmobs::trace_enable();
  }
  std::vector<svmobs::RunReport> reports;
  const auto rows = run_scaling(train, params_for(entry, args.eps), rank_list,
                                args.metrics_out.empty() ? nullptr : &reports);
  if (!args.trace_out.empty()) {
    svmobs::trace_disable();
    svmobs::trace_write(args.trace_out);
    std::printf("trace -> %s\n", args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    svmobs::write_reports(args.metrics_out, reports);
    std::printf("metrics -> %s\n", args.metrics_out.c_str());
  }
  print_scaling_table(rows);
  std::printf("\n");

  const auto baseline = run_baseline(train, entry, args);
  print_baseline_line(baseline);

  // Shape checks the paper's figure makes: Best <= Default and Best <= Worst
  // in per-rank work at the largest p.
  const ScalingRow* best = nullptr;
  const ScalingRow* worst = nullptr;
  const ScalingRow* fallback = nullptr;
  for (const auto& row : rows) {
    if (row.ranks != rank_list.back()) continue;
    if (row.label == "Shrink(Best)") best = &row;
    if (row.label == "Shrink(Worst)") worst = &row;
    if (row.label == "Default") fallback = &row;
  }
  if (best != nullptr && worst != nullptr && fallback != nullptr) {
    std::printf("shape check at p=%d: Best work %.0fk <= Default work %.0fk : %s\n",
                rank_list.back(),
                static_cast<double>(best->result.max_rank_kernel_evaluations) / 1000.0,
                static_cast<double>(fallback->result.max_rank_kernel_evaluations) / 1000.0,
                best->result.max_rank_kernel_evaluations <=
                        fallback->result.max_rank_kernel_evaluations
                    ? "OK"
                    : "VIOLATED");
    std::printf("shape check at p=%d: Best modeled %.3fs <= Worst modeled %.3fs : %s\n",
                rank_list.back(), best->result.modeled_seconds, worst->result.modeled_seconds,
                best->result.modeled_seconds <= worst->result.modeled_seconds * 1.05
                    ? "OK"
                    : "INVERTED (container-scale iters~n regime; see EXPERIMENTS.md)");
  }
  return 0;
}

}  // namespace svmbench
