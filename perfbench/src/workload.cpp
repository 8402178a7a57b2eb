#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/objective.hpp"
#include "core/trainer.hpp"
#include "data/split.hpp"
#include "data/zoo.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "serve/serving.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs{
      {"higgs-smo",
       "dense higgs, thousands of cheap SMO iterations: the mpisim collectives dominate the "
       "4-rank solve; kernel work shows in the 1-rank solve",
       "higgs", 1500, 1500, "Multi5pc", false, false, 5000.0},
      {"url-smo",
       "sparse url, few iterations but costly kernel rows: gradient reconstruction and "
       "checkpointing (train_with_recovery, save every 64 iterations)",
       "url", 4000, 1000, "Single50pc", false, true, 1000.0},
      {"url-pbm",
       "url trained by PBM at 4 ranks: bulk kernel work and large allgatherv/ring syncs "
       "instead of latency-bound collectives; 1-rank SMO is its baseline",
       "url", 4000, 1000, "Single50pc", true, false, 1000.0},
  };
  return specs;
}

namespace {

// eps is the paper's tolerance; 4 ranks keep every workload within 4
// threads; a checkpoint every 64 iterations is train_with_recovery's
// default cadence.
constexpr double kEps = 1e-3;
constexpr int kRanks = 4;
constexpr std::uint64_t kCheckpointInterval = 64;
// A sample (a set-up or a solve) is quiet when the host stole at most 3% of
// the machine's CPU time while it was taken: a 4-rank solve on an undisturbed
// host shows 0-1.6%, one overlapping another tenant's load phase 7% and
// more. The medians use the quiet samples when there are at least two.
constexpr double kQuietSteal = 0.03;
constexpr std::size_t kMinQuiet = 2;
// The vCPUs of a shared virtual machine run at different speeds (up to 1.7x
// apart, changing over minutes), and a single-threaded solve runs on
// whichever the kernel picks. The per-layer run's timed 1-rank solves are
// therefore pinned to each CPU in turn, so every run samples every CPU.
constexpr int kAnyCpu = -1;
// The end-to-end run sets up (data generation and one warm-up solve per
// configuration) for its whole window, and at least this many times.
constexpr int kSetups = 3;
// Serving (per-layer run only): 2 shards x 1 replica + the frontend = 3
// ranks, plus the client thread. Rates are absolute, never fractions of a
// probe. The 512-deep queue and 0.5 s dispatch timeout (bench_serving's
// settings) and the 1 s deadline let the service ride out scheduling stalls
// of tens of milliseconds below saturation: a stalled request completes
// late, and its latency from the due time records the stall, instead of
// being shed or expired. Sustained overload still sheds once the queue is
// full.
constexpr int kShards = 2;
constexpr std::size_t kQueueCapacity = 512;
constexpr double kDeadlineS = 1.0;
constexpr double kDispatchTimeoutS = 0.5;
constexpr std::size_t kRateTrialRequests = 4000;  // one session at the operating rate
// Latency percentiles are taken per window of 1000 requests (10 beyond p99)
// and the median over windows is reported, so one host stall moves one
// window, not the run's figure.
constexpr std::size_t kWindowRequests = 1000;
constexpr double kLatencyLimitS = 0.010;    // serve.max_qps: p99 <= 10 ms ...
constexpr double kErrorLimit = 0.01;        // ... and error rate <= 1%
// The ladder's rungs are multiples of the workload's operating rate, from
// half of it up to ten times it.
constexpr std::array kLadderFactors{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0};
constexpr double kRungSeconds = 0.2;        // per rung, but never under kRungMinRequests
constexpr std::size_t kRungMinRequests = 1000;  // >= 10 samples beyond each rung's p99
constexpr double kAnswerTolerance = 1e-9;     // served vs SvmModel::decision_value
// KKT: kkt_report recomputes every gradient from scratch, so its gap may
// exceed the solver's own 2*eps stop test by rounding; 1e-9 absorbs that.
constexpr double kKktSlack = 1e-9;
constexpr double kMinJaccard = 0.8;           // PBM vs SMO support-vector sets
// Per thread; holds a whole traced 4-rank higgs solve (~300k events a rank).
constexpr std::size_t kTraceEvents = std::size_t{1} << 19;
constexpr int kOverheadPairs = 8;
constexpr double kClosureTolerance = 0.02;

void log(const char* format, auto... args) {
  std::fprintf(stderr, format, args...);
  std::fflush(stderr);
}

struct Problem {
  svmdata::Dataset train;
  svmdata::Dataset test;
  svmcore::SolverParams params;
};

/// The preset is generated at n_train + n_test rows and the seed picks the
/// held-out rows, so each seed trains on a different sample set.
Problem make_problem(const WorkloadSpec& w, std::uint64_t seed) {
  const svmdata::ZooEntry& entry = svmdata::zoo_entry(w.preset);
  const double total = static_cast<double>(w.n_train + w.n_test);
  const svmdata::Dataset full =
      svmdata::make_train(entry, total / static_cast<double>(entry.default_train_size));
  svmdata::TrainTestSplit split =
      svmdata::train_test_split(full, static_cast<double>(w.n_test) / total, seed);
  Problem p{std::move(split.train), std::move(split.test), {}};
  p.params.C = entry.C;
  p.params.eps = kEps;
  p.params.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  return p;
}

enum class Config { p4, p1 };

struct Solve {
  svmcore::TrainResult result;
  svmcore::RecoveryReport recovery;
  double seconds = 0.0;  ///< from the call to the returned model
  double steal = 0.0;    ///< share of the machine's CPU time the host took meanwhile
};

/// The 4-rank configuration is the workload's solver; the 1-rank one is the
/// plain single-rank SMO baseline of the same problem. A `cpu` pins the solve
/// (all its threads) to that CPU.
std::optional<Solve> solve(const WorkloadSpec& w, const Problem& problem, Config config,
                           Spans& spans, Tally& tally, int cpu = kAnyCpu) {
  const CpuPin pin(cpu);
  svmcore::SolverParams params = problem.params;
  if (config == Config::p4 && w.pbm) params.algo = svmcore::SolverAlgo::pbm;
  svmcore::TrainOptions options;
  options.heuristic = svmcore::Heuristic::parse(w.heuristic);
  options.num_ranks = config == Config::p4 ? kRanks : 1;
  Solve out;
  const auto span = spans.open(config == Config::p4 ? "train.p4" : "train.p1");
  try {
    const CpuTicks ticks = cpu_ticks();
    const Clock::time_point start = Clock::now();
    if (w.recovery) {
      svmcore::RecoveryOptions recovery;  // empty fault plan
      recovery.checkpoint_interval = kCheckpointInterval;
      out.result =
          svmcore::train_with_recovery(problem.train, params, options, recovery, &out.recovery);
    } else {
      out.result = svmcore::train(problem.train, params, options);
    }
    out.seconds = seconds_since(start);
    out.steal = steal_share(ticks, cpu_ticks());
  } catch (const std::exception& e) {
    tally.fail(std::string("solve threw: ") + e.what());
    return std::nullopt;
  }
  return out;
}

std::set<std::size_t> support_set(const std::vector<double>& alpha) {
  std::set<std::size_t> s;
  for (std::size_t i = 0; i < alpha.size(); ++i)
    if (alpha[i] > 0.0) s.insert(i);
  return s;
}

double jaccard(const std::set<std::size_t>& a, const std::set<std::size_t>& b) {
  std::size_t common = 0;
  for (const std::size_t i : a) common += b.count(i);
  const std::size_t unite = a.size() + b.size() - common;
  return unite == 0 ? 1.0 : static_cast<double>(common) / static_cast<double>(unite);
}

/// Checks every solve: converged, KKT gap recomputed with kkt_report within
/// 2*eps, and for PBM an SV set close to the SMO reference. kkt_report is
/// O(n * SVs), so each distinct alpha vector is verified once; repeated
/// solves of one configuration are bit-identical and reuse the verdict.
class SolveChecker {
 public:
  SolveChecker(const Problem& problem, Spans& spans, Tally& tally)
      : problem_(problem), spans_(spans), tally_(tally) {}

  void set_reference(const std::vector<double>& smo_alpha) { reference_ = support_set(smo_alpha); }

  bool check(const Solve& s, bool pbm) {
    const auto span = spans_.open("check.solve");
    const svmcore::TrainResult& r = s.result;
    if (!r.converged) {
      tally_.fail("solve did not converge");
      return false;
    }
    if (!verified(r.alpha)) {
      const svmcore::KktReport kkt = svmcore::kkt_report(problem_.train, r.alpha, problem_.params);
      if (!(kkt.gap <= 2.0 * problem_.params.eps + kKktSlack)) {
        char why[96];
        std::snprintf(why, sizeof(why), "KKT gap %.6g exceeds 2*eps", kkt.gap);
        tally_.fail(why, 1, true);
        return false;
      }
      verified_.push_back(r.alpha);
    }
    if (pbm) {
      const double j = jaccard(support_set(r.alpha), reference_);
      if (!(j >= kMinJaccard)) {
        char why[96];
        std::snprintf(why, sizeof(why), "PBM SV-set Jaccard %.4f vs SMO below %.2f", j,
                      kMinJaccard);
        tally_.fail(why, 1, true);
        return false;
      }
    }
    tally_.ok();
    return true;
  }

 private:
  bool verified(const std::vector<double>& alpha) const {
    return std::find(verified_.begin(), verified_.end(), alpha) != verified_.end();
  }

  const Problem& problem_;
  Spans& spans_;
  Tally& tally_;
  std::vector<std::vector<double>> verified_;
  std::set<std::size_t> reference_;
};

/// One run_serving session at a fixed offered rate, with every request
/// timed from when it was due (the Poisson schedule, recomputed from the
/// load seed) rather than from when the generator got round to it.
struct Served {
  std::size_t requests = 0;
  std::vector<double> latency_s;  ///< completed requests, done - due
  std::vector<double> late_s;     ///< every submitted request, arrival - due
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;  ///< shed + expired + failed
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t wrong = 0;    ///< completed answers off by more than the tolerance
  std::uint64_t batches = 0;
  std::uint64_t extra_dispatches = 0;  ///< retries + hedges

  [[nodiscard]] double error_rate() const {
    return static_cast<double>(refused + wrong) / static_cast<double>(requests);
  }
  /// p99 within kLatencyLimitS and error rate within kErrorLimit.
  [[nodiscard]] bool meets_limits() const {
    return !latency_s.empty() && percentile(latency_s, 99.0) <= kLatencyLimitS &&
           error_rate() <= kErrorLimit;
  }
};

class Server {
 public:
  Server(const svmcore::SvmModel& model, const svmdata::CsrMatrix& queries, std::uint64_t seed,
         Spans& spans)
      : model_(model), queries_(queries), seed_(seed), spans_(spans) {
    const auto span = spans.open("check.exact_answers");
    options_.shards = kShards;
    options_.replicas = 1;
    options_.queue_capacity = kQueueCapacity;
    options_.deadline_s = kDeadlineS;
    options_.dispatch_timeout_s = kDispatchTimeoutS;
    exact_.reserve(queries.rows());
    for (std::size_t i = 0; i < queries.rows(); ++i)
      exact_.push_back(model.decision_value(queries.row(i)));
  }

  Served serve(double qps, std::size_t requests) {
    svmserve::LoadSpec load;
    load.mode = svmserve::ArrivalMode::open_poisson;
    load.requests = requests;
    load.offered_qps = qps;
    load.seed = seed_ * 1000003 + ++sessions_;
    Served out;
    out.requests = requests;
    const auto span = spans_.open("serve.session");
    const svmserve::ServeReport report =
        svmserve::run_serving(model_, queries_, load, options_);
    const std::vector<double> due = svmserve::poisson_arrivals(requests, qps, load.seed);
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
      const svmserve::RequestRecord& rec = report.requests[i];
      out.late_s.push_back(rec.arrival_s - due[i]);
      if (rec.status != svmserve::RequestStatus::completed) continue;
      ++out.completed;
      if (std::abs(rec.decision - exact_[rec.query_row]) > kAnswerTolerance) {
        ++out.wrong;
        continue;
      }
      out.latency_s.push_back(rec.done_s - due[i]);
    }
    out.shed = report.shed_queue_full + report.shed_predicted_wait;
    out.expired = report.expired;
    out.refused = requests - out.completed;
    out.batches = report.batches;
    out.extra_dispatches = report.retries + report.hedges;
    return out;
  }

  /// One pass up the ladder: the highest rung below which every rung met
  /// both limits. The pass stops at the first rung that misses; when that is
  /// the lowest one, the lowest rung is reported as the floor of what the
  /// ladder can resolve.
  double max_qps(double operating_rate) {
    double passed = operating_rate * kLadderFactors.front();
    for (const double factor : kLadderFactors) {
      const double qps = operating_rate * factor;
      const Served s = serve(qps, std::max(kRungMinRequests,
                                           static_cast<std::size_t>(qps * kRungSeconds)));
      wrong_ += s.wrong;
      if (!s.meets_limits()) break;
      passed = qps;
    }
    return passed;
  }

  [[nodiscard]] std::uint64_t ladder_wrong() const { return wrong_; }

 private:
  const svmcore::SvmModel& model_;
  const svmdata::CsrMatrix& queries_;
  std::uint64_t seed_;
  Spans& spans_;
  svmserve::ServeOptions options_;
  std::vector<double> exact_;
  std::uint64_t sessions_ = 0;
  std::uint64_t wrong_ = 0;
};

/// Requests at the operating rate are operations: refused ones fail, wrong
/// answers also fail the correctness check.
void tally_requests(const Served& s, Tally& tally) {
  tally.ok(s.completed - s.wrong);
  if (s.refused > 0) tally.fail("requests shed, expired or failed at the operating rate", s.refused);
  if (s.wrong > 0) tally.fail("served decision differs from SvmModel::decision_value", s.wrong, true);
}

/// Latency percentile per window of kWindowRequests consecutive completed
/// requests (in due order); a trailing partial window is dropped.
void window_percentiles(const Served& s, double p, std::vector<double>& out) {
  const auto window = static_cast<std::ptrdiff_t>(kWindowRequests);
  for (auto it = s.latency_s.begin(); s.latency_s.end() - it >= window; it += window)
    out.push_back(percentile({it, it + window}, p));
}

std::uint64_t counter_of(const svmobs::MetricsRegistry& m, const char* name) {
  const auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second.value();
}

/// One set-up: generate the data, then one warm-up solve per configuration
/// (4-rank, then 1-rank), timed together.
struct SetUp {
  Problem problem;
  Solve p4;
  Solve p1;
  double seconds = 0.0;
  double steal = 0.0;  ///< share of the machine's CPU time the host took meanwhile
};

std::optional<SetUp> set_up(const WorkloadSpec& w, std::uint64_t seed, Spans& spans,
                            Tally& tally) {
  const CpuTicks ticks = cpu_ticks();
  const Clock::time_point start = Clock::now();
  SetUp s;
  {
    const auto span = spans.open("setup.data");
    s.problem = make_problem(w, seed);
  }
  std::optional<Solve> p4 = solve(w, s.problem, Config::p4, spans, tally);
  std::optional<Solve> p1 = solve(w, s.problem, Config::p1, spans, tally);
  if (!p4 || !p1) return std::nullopt;
  s.seconds = seconds_since(start);
  s.steal = steal_share(ticks, cpu_ticks());
  log("[%s] set-up %.3f s, host steal %.4f; train n=%zu test=%zu; warm-up p4 %.3f s "
      "(%llu it, %zu SV), p1 %.3f s\n",
      w.name, s.seconds, s.steal, s.problem.train.size(), s.problem.test.size(), p4->seconds,
      static_cast<unsigned long long>(p4->result.iterations), p4->result.num_support_vectors(),
      p1->seconds);
  s.p4 = std::move(*p4);
  s.p1 = std::move(*p1);
  return s;
}

/// Times taken in one run, each with the share of the machine's CPU time the
/// host stole while it was taken. On a shared virtual machine, other tenants'
/// load comes in phases that stretch every 4-rank solve while they last; the
/// steal share says which samples they hit.
class Samples {
 public:
  void add(double value, double steal) { samples_.emplace_back(value, steal); }

  /// Median of the samples the host left alone (steal share at most
  /// kQuietSteal), or of all samples when fewer than kMinQuiet are left.
  [[nodiscard]] double quiet_median(const char* workload, const char* what) const {
    std::vector<double> quiet;
    std::vector<double> all;
    for (const auto& [value, steal] : samples_) {
      all.push_back(value);
      if (steal <= kQuietSteal) quiet.push_back(value);
    }
    const bool enough = quiet.size() >= kMinQuiet;
    log("[%s] %s: %zu of %zu samples quiet (host steal <= %.0f%%)%s\n", workload, what,
        quiet.size(), all.size(), kQuietSteal * 100.0, enough ? "" : "; median over all");
    return median(enough ? quiet : all);
  }

 private:
  std::vector<std::pair<double, double>> samples_;
};

/// The end-to-end run: more set-ups, for the whole window and at least
/// kSetups in all; setup_s is their median.
void measure(const WorkloadSpec& w, const RunOptions& opt, const SetUp& first,
             SolveChecker& checker, Spans& spans, Tally& tally, MetricSink& sink) {
  Samples setup_s;
  setup_s.add(first.seconds, first.steal);
  const Clock::time_point window = Clock::now();
  for (int k = 1; k < kSetups || seconds_since(window) < opt.seconds; ++k) {
    const std::optional<SetUp> s = set_up(w, opt.seed, spans, tally);
    if (s && (checker.check(s->p4, w.pbm) & checker.check(s->p1, false)))
      setup_s.add(s->seconds, s->steal);
  }

  const auto span = spans.open("check.accuracy");
  sink.set("setup_s", setup_s.quiet_median(w.name, "setup_s"), "s");
  sink.set("accuracy", first.p4.result.model.accuracy(first.problem.test), "fraction");
  sink.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Runs `body` with the svmobs recorder on and returns the reduced trace.
template <typename Body>
TraceSummary traced_call(Spans& spans, Body&& body) {
  {
    const auto span = spans.open("trace.start");
    begin_trace(kTraceEvents);
  }
  body();
  const auto span = spans.open("trace.reduce");
  return end_trace();
}

/// The per-layer run: counters from the warm-up solves, untraced 4-rank and
/// 1-rank solves for their times, traced-vs-untraced 1-rank pairs for the
/// tracing overhead, a traced 4-rank solve reduced through svmobs analysis,
/// one untraced and one traced serving session, a pass up the rate ladder,
/// and the direct layer probes.
void trace_layers(const WorkloadSpec& w, const RunOptions& opt, const SetUp& setup,
                  SolveChecker& checker, Spans& spans, Tally& tally, MetricSink& sink,
                  Clock::time_point run_start) {
  const svmcore::TrainResult& r4 = setup.p4.result;
  const Problem& problem = setup.problem;

  // Tracing overhead on the 1-rank solve, whose spread is far smaller than
  // the 4-rank solve's: the median over pairs of an untraced and a traced
  // solve run back to back on one CPU (a different one per pair), of the
  // traced over the untraced time. Every other pair also runs an untraced
  // 4-rank solve, for core.train_p4_s.
  Samples plain_s;
  Samples p4_s;
  std::vector<double> overhead;
  const std::vector<int> cpus = allowed_cpus();
  for (int k = 0; k < kOverheadPairs; ++k) {
    const int cpu = cpus.empty() ? kAnyCpu : cpus[static_cast<std::size_t>(k) % cpus.size()];
    if (k % 2 == 0) {
      if (std::optional<Solve> s = solve(w, problem, Config::p4, spans, tally);
          s && checker.check(*s, w.pbm))
        p4_s.add(s->seconds, s->steal);
    }
    std::optional<Solve> plain = solve(w, problem, Config::p1, spans, tally, cpu);
    if (plain && !checker.check(*plain, false)) plain.reset();
    if (plain) plain_s.add(plain->seconds, plain->steal);
    {
      const auto span = spans.open("trace.start");
      begin_trace(kTraceEvents);
    }
    std::optional<Solve> s = solve(w, problem, Config::p1, spans, tally, cpu);
    {
      const auto span = spans.open("trace.discard");
      discard_trace();
    }
    if (s && checker.check(*s, false) && plain) overhead.push_back(s->seconds / plain->seconds);
  }

  // The closure: the wall time of the trace's rounds over the traced solve's
  // own wall time, i.e. how much of the solve the per-round attribution
  // accounts for. Time outside every round is a gap in the program's round
  // markers, not a failed operation, so it is reported rather than tallied.
  std::optional<Solve> traced;
  const TraceSummary trace =
      traced_call(spans, [&] { traced = solve(w, problem, Config::p4, spans, tally); });
  double closure = std::numeric_limits<double>::quiet_NaN();
  if (traced && checker.check(*traced, w.pbm)) {
    closure = trace.analysis.total_wall_s / traced->seconds;
    if (!(std::abs(closure - 1.0) <= kClosureTolerance))
      log("[%s] finding: the trace's rounds cover %.1f%% of the traced solve's wall time, "
          "outside the %.0f%% closure tolerance\n",
          w.name, closure * 100.0, kClosureTolerance * 100.0);
  }

  const svmcore::SvmModel& model = r4.model;
  Server server(model, problem.test.X, opt.seed, spans);
  const Served plain = server.serve(w.serve_rate, kRateTrialRequests);
  tally_requests(plain, tally);
  std::vector<double> p50_s;
  std::vector<double> p99_s;
  window_percentiles(plain, 50.0, p50_s);
  window_percentiles(plain, 99.0, p99_s);
  const double max_qps = server.max_qps(w.serve_rate);
  if (server.ladder_wrong() > 0)
    tally.fail("served decision differs from SvmModel::decision_value on the rate ladder",
               server.ladder_wrong(), true);
  std::optional<Served> traced_serve;
  const TraceSummary serve_trace = traced_call(
      spans, [&] { traced_serve = server.serve(w.serve_rate, kRateTrialRequests); });
  tally_requests(*traced_serve, tally);

  const std::size_t local = problem.train.size() / kRanks;
  double collective_us = 0.0;
  double pair_ns = 0.0;
  double block_ns = 0.0;
  double save_us = 0.0;
  {
    const auto span = spans.open("probe");
    collective_us = probe_collective_us(working_pair_bytes(problem.train), 0.5);
    pair_ns = probe_pair_ns(problem.train, problem.params.kernel, 0.5);
    block_ns = probe_block_ns(model, problem.test.X, svmserve::ServeOptions{}.batch_max, 0.5);
    save_us = probe_checkpoint_save_us(local, 0.5);
  }

  const svmmpi::TrafficStats& net = r4.traffic;
  sink.set("mpisim.collective_calls", static_cast<double>(net.collectives), "count");
  sink.set("mpisim.collective_us", collective_us, "us");
  sink.set("mpisim.wait_s", trace.analysis.total_comm_s + trace.analysis.total_blocked_s, "s");
  sink.set("mpisim.blocked_s", trace.analysis.total_blocked_s, "s");
  sink.set("mpisim.imbalance_s", trace.analysis.total_imbalance_s, "s");
  sink.set("mpisim.bytes", static_cast<double>(net.bytes_sent + net.bytes_collective), "bytes");
  sink.set("mpisim.modeled_s", r4.modeled_seconds, "s");

  sink.set("kernel.pair_evals", static_cast<double>(r4.engine_pair_evals), "count");
  sink.set("kernel.max_rank_kevals", static_cast<double>(r4.max_rank_kernel_evaluations),
           "count");
  sink.set("kernel.bytes_streamed", static_cast<double>(r4.engine_bytes_streamed), "bytes");
  sink.set("kernel.pair_ns", pair_ns, "ns");
  sink.set("kernel.block_ns", block_ns, "ns");
  sink.set("kernel.cache_hit_rate", trace.cache_hit_rate, "fraction");

  std::uint64_t min_active = 0;
  for (const svmcore::SolverStats& s : r4.rank_stats) min_active += s.min_active;
  sink.set("core.iterations", static_cast<double>(r4.iterations), "count");
  sink.set("core.compute_s", trace.analysis.total_compute_s, "s");
  sink.set("core.samples_shrunk", static_cast<double>(r4.samples_shrunk), "count");
  sink.set("core.min_active", static_cast<double>(min_active), "count");
  const double train_p4_s = p4_s.quiet_median(w.name, "core.train_p4_s");
  const double train_p1_s = plain_s.quiet_median(w.name, "core.train_p1_s");
  sink.set("core.train_p4_s", train_p4_s, "s");
  sink.set("core.train_p1_s", train_p1_s, "s");
  sink.set("core.speedup_p4", train_p1_s / train_p4_s, "ratio");

  sink.set("recon.passes", static_cast<double>(r4.reconstructions), "count");
  sink.set("recon.s", r4.reconstruction_seconds, "s");
  sink.set("recon.kevals", static_cast<double>(r4.recon_kernel_evaluations), "count");
  sink.set("recon.bytes", static_cast<double>(r4.recon_bytes_streamed), "bytes");
  sink.set("recon.overlap_ratio",
           r4.recon_comm_seconds > 0.0 ? r4.recon_overlapped_seconds / r4.recon_comm_seconds : 0.0,
           "ratio");

  const std::uint64_t saves = setup.p4.recovery.checkpoints_saved;
  sink.set("ckpt.saves", static_cast<double>(saves), "count");
  sink.set("ckpt.bytes", static_cast<double>(saves * checkpoint_bytes(local)), "bytes");
  sink.set("ckpt.save_us", save_us, "us");

  const std::uint64_t inner = counter_of(r4.metrics, "pbm.inner_iterations");
  sink.set("pbm.rounds",
           static_cast<double>(r4.rank_metrics.empty()
                                   ? 0
                                   : counter_of(r4.rank_metrics.front(), "pbm.rounds")),
           "count");
  sink.set("pbm.inner_iterations", static_cast<double>(inner), "count");
  sink.set("pbm.inner_per_smo_iter",
           static_cast<double>(inner) / static_cast<double>(setup.p1.result.iterations),
           "ratio");
  sink.set("pbm.sync_bytes", static_cast<double>(counter_of(r4.metrics, "pbm.sync_payload_bytes")),
           "bytes");
  sink.set("pbm.block_solve_s", trace.span("pbm_block_solve"), "s");
  sink.set("pbm.sync_s", trace.span("pbm_sync"), "s");

  sink.set("serve.batches", static_cast<double>(plain.batches), "count");
  sink.set("serve.batch_mean",
           plain.batches > 0 ? static_cast<double>(plain.completed) / plain.batches : 0.0,
           "requests");
  sink.set("serve.eval_s", serve_trace.span("serve_eval"), "s");
  sink.set("serve.p50_ms", median(p50_s) * 1e3, "ms");
  sink.set("serve.p99_ms", median(p99_s) * 1e3, "ms");
  sink.set("serve.max_qps", max_qps, "req/s");
  sink.set("serve.gen_late_p99_ms", percentile(plain.late_s, 99.0) * 1e3, "ms");
  sink.set("serve.shed", static_cast<double>(plain.shed), "count");
  sink.set("serve.expired", static_cast<double>(plain.expired), "count");
  sink.set("serve.extra_dispatch_ratio",
           plain.batches > 0 ? static_cast<double>(plain.extra_dispatches) /
                                   static_cast<double>(plain.batches * kShards)
                             : 0.0,
           "ratio");

  sink.set("obs.trace_overhead", median(overhead) - 1.0, "ratio");
  sink.set("obs.closure", closure, "ratio");
  sink.set("bench.span_closure", spans.top_level_seconds() / seconds_since(run_start), "ratio");
  log("[%s] traced p4 solve: %zu events, %zu rounds, closure %.6f\n", w.name, trace.events,
      trace.analysis.rounds.size(), closure);
}

}  // namespace

int run_workload(const RunOptions& opt) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads())
    if (opt.workload == w.name) spec = &w;
  if (spec == nullptr) throw std::invalid_argument("unknown workload '" + opt.workload + "'");

  const Clock::time_point run_start = Clock::now();
  Spans spans;
  Tally tally;
  MetricSink sink;
  const std::optional<SetUp> setup = set_up(*spec, opt.seed, spans, tally);
  std::optional<SolveChecker> checker;
  if (setup) {
    checker.emplace(setup->problem, spans, tally);
    checker->set_reference(setup->p1.result.alpha);
  }
  if (!checker || !(checker->check(setup->p1, false) & checker->check(setup->p4, spec->pbm))) {
    for (const std::string& p : tally.problems) log("problem: %s\n", p.c_str());
    log("[%s] set-up failed; no result\n", spec->name);
    return 1;
  }
  if (opt.trace)
    trace_layers(*spec, opt, *setup, *checker, spans, tally, sink, run_start);
  else
    measure(*spec, opt, *setup, *checker, spans, tally, sink);

  log("%s", spans.table().c_str());
  for (const std::string& p : tally.problems) log("problem: %s\n", p.c_str());
  std::printf("workload %s seed %llu: %llu operations, %llu failed, correct=%s\n%s", spec->name,
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), tally.correct ? "true" : "false",
              sink.table().c_str());
  std::printf("%s\n", sink.result_json(tally).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
