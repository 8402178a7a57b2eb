// KernelEngine strategy comparison: gamma-update throughput of the fused
// dense_scatter path, the vectorized simd RowStore path and the reference
// sparse merge join on every zoo shape, from dense low-dimensional tabular
// rows (higgs, forest, codrna) to high-dimensional sparse binary rows (url,
// rcv1, realsim; the dense RowStore is honest about how badly panels fit
// that shape). The `auto` column is the production engine: the strategy
// auto_select resolves to from the data, and its own throughput. The inner
// loop is exactly the solver's hot loop: one (i_up, i_low) pair evaluated
// against every row. Each strategy's time is its best interleaved trial.
// Results go to stdout as a table and to BENCH_engine.json (higgs and url
// first, then the rest of the zoo); the run exits nonzero if any strategy
// ever disagrees by a single bit.
//
// With --assert it also exits nonzero when auto's throughput on higgs or url
// falls below 0.95x the better of dense_scatter and simd there: the data's
// choice must be the right one on both sides of the density threshold.
//
// Usage: bench_engine_backends [--scale S] [--repeats R] [--quick] [--assert]
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernel/kernel_engine.hpp"
#include "util/timer.hpp"

namespace {

using svmdata::Dataset;
using svmkernel::EngineBackend;
using svmkernel::Kernel;
using svmkernel::KernelEngine;

// Timed trials per strategy: at least kMinTrials, and more (up to
// kMaxTrials) while that strategy's own trials have run under
// kTrialBudgetS — a fast strategy's sweep is ~1 ms, too short for a
// best-of-3 to resolve 5%, while simd's url sweep alone takes ~0.5 s.
constexpr int kMinTrials = 3;
constexpr int kMaxTrials = 50;
constexpr double kTrialBudgetS = 0.25;
constexpr double kAutoFloor = 0.95;  ///< --assert: auto >= this x the best strategy

struct BackendTiming {
  double seconds = std::numeric_limits<double>::infinity();  ///< best trial
  double pairs_per_s = 0.0;       ///< fused (K_up, K_low) sample evaluations / s
  std::uint64_t bytes_streamed = 0;
};

struct DatasetReport {
  std::string name;
  std::size_t n = 0;
  std::size_t d = 0;
  double density = 0.0;
  BackendTiming reference;
  BackendTiming dense_scatter;
  BackendTiming simd;
  BackendTiming automatic;
  EngineBackend auto_backend = EngineBackend::auto_select;
  double speedup = 0.0;
  double simd_speedup = 0.0;
  double auto_vs_best = 0.0;  ///< auto pairs/s over max(dense_scatter, simd)
  bool parity_ok = true;
  double train_reference_s = 0.0;
  double train_dense_s = 0.0;
  double train_auto_s = 0.0;
  double train_speedup = 0.0;
};

/// One timed trial: `repeats` full gamma-update sweeps (every row vs a
/// rotating pair, mirroring the solver where (i_up, i_low) changes every
/// iteration), recording every produced value into `out_up`/`out_low`
/// (sized repeats * n) for the bitwise cross-strategy check.
double time_sweeps(KernelEngine& engine, const Dataset& train, int repeats,
                   std::vector<double>& out_up, std::vector<double>& out_low) {
  const std::size_t n = train.size();
  std::vector<double> k_up(n), k_low(n);
  svmutil::Timer timer;
  for (int r = 0; r < repeats; ++r) {
    const std::size_t up = static_cast<std::size_t>(r) * 2 % n;
    const std::size_t low = (up + n / 2 + 1) % n;
    engine.eval_pair_range(train.X.row(up), engine.sq_norm(up), train.X.row(low),
                           engine.sq_norm(low), 0, n, k_up, k_low);
    for (std::size_t i = 0; i < n; ++i) {
      out_up[static_cast<std::size_t>(r) * n + i] = k_up[i];
      out_low[static_cast<std::size_t>(r) * n + i] = k_low[i];
    }
  }
  return timer.seconds();
}

double ratio(double num, double den) { return num > 0 && den > 0 ? num / den : 0.0; }

/// Index of the k-th of `count` strategies to run in `trial`: forward on
/// even trials, reversed on odd ones.
std::size_t in_trial_order(int trial, std::size_t k, std::size_t count) {
  return trial % 2 == 0 ? k : count - 1 - k;
}

DatasetReport run_dataset(const svmdata::ZooEntry& entry, double scale, int repeats,
                          double eps) {
  const Dataset train = svmdata::make_train(entry, scale);
  const Kernel kernel(svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq));
  const std::size_t n = train.size();

  DatasetReport report;
  report.name = entry.name;
  report.n = n;
  report.d = train.dim();
  report.density = train.X.density();

  // Every strategy runs the identical schedule, and every value it produces
  // is compared bitwise to reference's. Trials interleave the strategies and
  // reverse their order every other trial, so load drift hits them alike and
  // no strategy always runs right after the one that evicted the caches
  // (simd's panels on a sparse shape are hundreds of MB). Each trial builds
  // its engine afresh into the same output buffers: engines kept alive side
  // by side measured a steady ~7% apart on higgs by allocation slot alone.
  const struct {
    EngineBackend backend;
    BackendTiming DatasetReport::*timing;
  } strategies[] = {{EngineBackend::reference, &DatasetReport::reference},
                    {EngineBackend::dense_scatter, &DatasetReport::dense_scatter},
                    {EngineBackend::simd, &DatasetReport::simd},
                    {EngineBackend::auto_select, &DatasetReport::automatic}};
  const std::size_t values = static_cast<std::size_t>(repeats) * n;
  std::vector<double> ref_up(values), ref_low(values), out_up(values), out_low(values);
  KernelEngine oracle(kernel, train.X, EngineBackend::reference);
  (void)time_sweeps(oracle, train, repeats, ref_up, ref_low);
  double spent[std::size(strategies)] = {};
  bool ran = true;
  for (int trial = 0; trial < kMaxTrials && ran; ++trial) {
    ran = false;
    for (std::size_t k = 0; k < std::size(strategies); ++k) {
      const std::size_t s = in_trial_order(trial, k, std::size(strategies));
      if (trial >= kMinTrials && spent[s] >= kTrialBudgetS) continue;
      ran = true;
      const auto& strategy = strategies[s];
      KernelEngine engine(kernel, train.X, strategy.backend);
      if (strategy.backend == EngineBackend::auto_select) report.auto_backend = engine.backend();
      BackendTiming& t = report.*strategy.timing;
      const double seconds = time_sweeps(engine, train, repeats, out_up, out_low);
      spent[s] += seconds;
      t.seconds = std::min(t.seconds, seconds);
      t.pairs_per_s = ratio(static_cast<double>(values), t.seconds);
      t.bytes_streamed = engine.stats().bytes_streamed;
      if (out_up != ref_up || out_low != ref_low) report.parity_ok = false;
    }
  }
  report.speedup = ratio(report.reference.seconds, report.dense_scatter.seconds);
  report.simd_speedup = ratio(report.reference.seconds, report.simd.seconds);
  report.auto_vs_best =
      ratio(report.automatic.pairs_per_s,
            std::max(report.dense_scatter.pairs_per_s, report.simd.pairs_per_s));

  // End-to-end: the same 1-rank solve pinned to reference and to
  // dense_scatter, and on the data's choice (identical models are
  // test-enforced; here we time them), best of kMinTrials in the same
  // alternating order.
  const struct {
    EngineBackend backend;
    double DatasetReport::*seconds;
  } solves[] = {{EngineBackend::reference, &DatasetReport::train_reference_s},
                {EngineBackend::dense_scatter, &DatasetReport::train_dense_s},
                {EngineBackend::auto_select, &DatasetReport::train_auto_s}};
  svmcore::SolverParams params = svmbench::params_for(entry, eps);
  svmcore::TrainOptions options;
  options.num_ranks = 1;
  for (const auto& solve : solves) report.*solve.seconds = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < kMinTrials; ++trial) {
    for (std::size_t k = 0; k < std::size(solves); ++k) {
      const auto& solve = solves[in_trial_order(trial, k, std::size(solves))];
      params.engine_backend = solve.backend;
      report.*solve.seconds = std::min(report.*solve.seconds,
                                       svmcore::train(train, params, options).solve_seconds);
    }
  }
  report.train_speedup = ratio(report.train_reference_s, report.train_dense_s);
  return report;
}

void write_json(const std::vector<DatasetReport>& reports, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_backends\",\n  \"datasets\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DatasetReport& r = reports[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"n\": %zu,\n"
                 "      \"d\": %zu,\n"
                 "      \"density\": %.6f,\n"
                 "      \"reference\": {\"seconds\": %.6f, \"pairs_per_s\": %.1f},\n"
                 "      \"dense_scatter\": {\"seconds\": %.6f, \"pairs_per_s\": %.1f, "
                 "\"bytes_streamed\": %" PRIu64 "},\n"
                 "      \"simd\": {\"seconds\": %.6f, \"pairs_per_s\": %.1f},\n"
                 "      \"auto\": {\"backend\": \"%s\", \"seconds\": %.6f, "
                 "\"pairs_per_s\": %.1f},\n"
                 "      \"gamma_update_speedup\": %.3f,\n"
                 "      \"simd_gamma_update_speedup\": %.3f,\n"
                 "      \"auto_vs_best_speedup\": %.3f,\n"
                 "      \"train_reference_s\": %.4f,\n"
                 "      \"train_dense_scatter_s\": %.4f,\n"
                 "      \"train_auto_s\": %.4f,\n"
                 "      \"train_speedup\": %.3f,\n"
                 "      \"parity_ok\": %s\n"
                 "    }%s\n",
                 r.name.c_str(), r.n, r.d, r.density, r.reference.seconds,
                 r.reference.pairs_per_s, r.dense_scatter.seconds, r.dense_scatter.pairs_per_s,
                 r.dense_scatter.bytes_streamed, r.simd.seconds, r.simd.pairs_per_s,
                 svmkernel::to_string(r.auto_backend).c_str(), r.automatic.seconds,
                 r.automatic.pairs_per_s, r.speedup, r.simd_speedup, r.auto_vs_best,
                 r.train_reference_s, r.train_dense_s, r.train_auto_s, r.train_speedup,
                 r.parity_ok ? "true" : "false", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

std::string rate(double pairs_per_s) {
  return svmutil::TextTable::num(pairs_per_s / 1000.0, 1) + "k";
}

}  // namespace

int main(int argc, char** argv) {
  const auto [flags, args] = svmbench::parse_args_with(argc, argv, {"assert!", "repeats"});
  const int repeats = static_cast<int>(flags.get_double("repeats", args.quick ? 20 : 100));
  const bool do_assert = flags.get_bool("assert");

  svmbench::print_banner(
      "KernelEngine strategies - reference, dense_scatter, simd and the data's choice",
      "gamma-update throughput on every zoo shape, dense tabular to sparse "
      "binary; bit-parity verified inline");

  // higgs and url lead: they bracket the zoo and are the --assert shapes.
  std::vector<DatasetReport> reports;
  for (const char* name : {"higgs", "url"})
    reports.push_back(run_dataset(svmdata::zoo_entry(name), args.scale, repeats, args.eps));
  for (const svmdata::ZooEntry& entry : svmdata::zoo())
    if (entry.name != "higgs" && entry.name != "url")
      reports.push_back(run_dataset(entry, args.scale, repeats, args.eps));

  svmutil::TextTable table({"dataset", "n", "d", "density %", "ref pairs/s", "fused pairs/s",
                            "simd pairs/s", "auto", "auto pairs/s", "auto/best",
                            "train ref s", "train fused s", "train auto s", "parity"});
  for (const DatasetReport& r : reports) {
    table.add_row({r.name, svmutil::TextTable::integer(static_cast<long long>(r.n)),
                   svmutil::TextTable::integer(static_cast<long long>(r.d)),
                   svmutil::TextTable::num(100.0 * r.density, 2), rate(r.reference.pairs_per_s),
                   rate(r.dense_scatter.pairs_per_s), rate(r.simd.pairs_per_s),
                   svmkernel::to_string(r.auto_backend), rate(r.automatic.pairs_per_s),
                   svmutil::TextTable::num(r.auto_vs_best, 2),
                   svmutil::TextTable::num(r.train_reference_s, 3),
                   svmutil::TextTable::num(r.train_dense_s, 3),
                   svmutil::TextTable::num(r.train_auto_s, 3), r.parity_ok ? "OK" : "BROKEN"});
  }
  table.print();
  std::printf("\n");

  write_json(reports, "BENCH_engine.json");

  int status = 0;
  for (const DatasetReport& r : reports) {
    if (!r.parity_ok) {
      std::fprintf(stderr, "PARITY VIOLATION on %s: strategies disagree bitwise\n",
                   r.name.c_str());
      status = 1;
    }
  }
  if (do_assert) {
    for (const DatasetReport& r : std::span(reports).first(2)) {
      if (r.auto_vs_best < kAutoFloor) {
        std::fprintf(stderr, "AUTO BELOW BEST on %s: %s at %.2fx the best strategy (< %.2f)\n",
                     r.name.c_str(), svmkernel::to_string(r.auto_backend).c_str(),
                     r.auto_vs_best, kAutoFloor);
        status = 1;
      }
    }
  }
  return status;
}
