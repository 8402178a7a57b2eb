// Microbenchmarks (google-benchmark) for the message-passing substrate: the
// per-operation costs behind §III's complexity analysis — pt2pt latency,
// bcast and allreduce vs rank count, ring exchange vs payload — plus the
// alpha-beta model's predictions for the same operations at paper scale.
// With --assert-obs-overhead the binary instead runs the tracing-overhead
// guard: an SMO-shaped gamma-update hot loop with the solver's per-iteration
// trace calls compiled in but the recorder DISABLED must run within 2% of
// the same loop with no trace calls at all (each disabled call is one
// relaxed atomic load), judged by the median of paired repeats. Exits
// non-zero on violation; used by check.sh --obs.
// With --assert-collectives it runs the collective-latency gate instead: the
// per-iteration SMO collectives at p=4 — the minloc + maxloc + bcast triple
// and the fused allreduce_minmaxloc — timed as the minimum over interleaved
// repeats, failing when the triple exceeds 15 us or the fused allreduce
// 5 us. Used by check.sh --perf.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "mpisim/spmd.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// Best-of-`reps` wall seconds for each of two loop bodies, interleaved
/// A/B/A/B so scheduler noise and frequency drift hit both variants alike;
/// the minimum is the least-perturbed run of each.
template <typename A, typename B>
std::pair<double, double> interleaved_min_seconds(int reps, A&& a, B&& b) {
  double min_a = 1e300;
  double min_b = 1e300;
  for (int r = 0; r < reps; ++r) {
    svmutil::Timer ta;
    a();
    min_a = std::min(min_a, ta.seconds());
    svmutil::Timer tb;
    b();
    min_b = std::min(min_b, tb.seconds());
  }
  return {min_a, min_b};
}

/// One SMO-iteration-shaped gamma update over the active block. noinline so
/// the plain and traced guard loops call the identical code: without it the
/// out-of-line emit() branch acts as a compiler barrier in the traced loop
/// and the comparison measures codegen differences, not the trace calls.
__attribute__((noinline)) void smo_gamma_update(std::vector<double>& gamma,
                                                const std::vector<double>& k_up,
                                                const std::vector<double>& k_low,
                                                std::uint64_t it) {
  const double du = 1e-4 * static_cast<double>(it % 7);
  const double dl = -1e-4 * static_cast<double>(it % 5);
  for (std::size_t i = 0; i < gamma.size(); ++i) gamma[i] += du * k_up[i] + dl * k_low[i];
  benchmark::DoNotOptimize(gamma.data());
}

int run_obs_overhead_guard() {
  // The shape of DistributedSolver::run_phase's inner loop: one gamma update
  // over the active block per iteration, plus the solver's trace call sites
  // (batch-boundary check, gap counter, span begin/end) — all no-ops here
  // because the recorder stays disabled.
  //
  // Machine load drifts by up to 2x over tens of milliseconds, far more than
  // the 2% under test, so the variants are timed as pairs: every repeat
  // alternates short chunks of the two loops (A,B then B,A), both sums of a
  // repeat see the same load, and their ratio is one paired sample. The
  // verdict is the median ratio over the repeats.
  constexpr std::size_t kBlock = 2048;
  constexpr std::uint64_t kChunkIters = 64;  // ~0.1 ms per chunk
  constexpr int kChunks = 200;               // per variant per repeat
  constexpr int kReps = 21;
  std::vector<double> gamma(kBlock, 0.1);
  std::vector<double> k_up(kBlock);
  std::vector<double> k_low(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    k_up[i] = 1.0 / static_cast<double>(i + 1);
    k_low[i] = 1.0 / static_cast<double>(kBlock - i);
  }
  const auto plain = [&](std::uint64_t first) {
    for (std::uint64_t it = first; it < first + kChunkIters; ++it)
      smo_gamma_update(gamma, k_up, k_low, it);
  };
  const auto traced = [&](std::uint64_t first) {
    for (std::uint64_t it = first; it < first + kChunkIters; ++it) {
      if (svmobs::trace_enabled() && it % 256 == 0) svmobs::trace_begin("smo_batch", "solver");
      smo_gamma_update(gamma, k_up, k_low, it);
      svmobs::trace_counter("gap", k_up[it % kBlock]);
      svmobs::trace_counter("active_local", static_cast<double>(kBlock));
    }
  };

  svmobs::trace_disable();
  std::vector<double> ratios;
  double plain_total_s = 0.0;
  for (int r = 0; r < kReps; ++r) {
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (int c = 0; c < kChunks; ++c) {
      const std::uint64_t first = static_cast<std::uint64_t>(c) * kChunkIters;
      for (int k = 0; k < 2; ++k) {
        const bool run_plain = (k == 0) == (c % 2 == 0);
        svmutil::Timer t;
        run_plain ? plain(first) : traced(first);
        (run_plain ? plain_s : traced_s) += t.seconds();
      }
    }
    ratios.push_back(traced_s / plain_s);
    plain_total_s += plain_s;
  }
  std::nth_element(ratios.begin(), ratios.begin() + kReps / 2, ratios.end());
  const double overhead = ratios[kReps / 2] - 1.0;
  std::printf("obs overhead guard: %d paired repeats of %.1f ms per variant, median overhead "
              "%+.2f%% (budget 2%%): %s\n",
              kReps, 1e3 * plain_total_s / kReps, 100.0 * overhead,
              overhead < 0.02 ? "OK" : "VIOLATED");
  return overhead < 0.02 ? 0 : 1;
}

int run_collective_gate() {
  constexpr int kRanks = 4;
  constexpr int kIters = 2000;
  constexpr int kReps = 9;
  constexpr std::size_t kPairBytes = 1024;  // a packed working pair, ~1 KB
  constexpr double kTripleBudgetUs = 15.0;
  constexpr double kFusedBudgetUs = 5.0;
  const auto candidate = [](const svmmpi::Comm& comm, int i) {
    return svmmpi::DoubleInt{static_cast<double>((comm.rank() * 7 + i) % 11), comm.rank()};
  };
  const auto [triple_s, fused_s] = interleaved_min_seconds(
      kReps,
      [&] {
        svmmpi::run_spmd(kRanks, [&](svmmpi::Comm& comm) {
          std::vector<std::byte> pair(kPairBytes);
          for (int i = 0; i < kIters; ++i) {
            benchmark::DoNotOptimize(comm.allreduce_minloc(candidate(comm, i)));
            benchmark::DoNotOptimize(comm.allreduce_maxloc(candidate(comm, i)));
            pair.resize(kPairBytes);
            comm.bcast(pair, 0);
          }
        });
      },
      [&] {
        svmmpi::run_spmd(kRanks, [&](svmmpi::Comm& comm) {
          for (int i = 0; i < kIters; ++i)
            benchmark::DoNotOptimize(
                comm.allreduce_minmaxloc(candidate(comm, i), candidate(comm, i + 1)));
        });
      });
  const double triple_us = triple_s / kIters * 1e6;
  const double fused_us = fused_s / kIters * 1e6;
  const bool ok = triple_us <= kTripleBudgetUs && fused_us <= kFusedBudgetUs;
  std::printf("collective gate (p=%d, min of %d interleaved repeats x %d iterations):\n"
              "  minloc + maxloc + bcast(%zu B): %.2f us (budget %.0f us)\n"
              "  allreduce_minmaxloc:            %.2f us (budget %.0f us)\n%s\n",
              kRanks, kReps, kIters, kPairBytes, triple_us, kTripleBudgetUs, fused_us,
              kFusedBudgetUs, ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
}

void BM_Pt2PtRoundTrip(benchmark::State& state) {
  const std::size_t doubles = state.range(0);
  for (auto _ : state) {
    svmmpi::run_spmd(2, [doubles](svmmpi::Comm& comm) {
      std::vector<double> payload(doubles, 1.0);
      if (comm.rank() == 0) {
        comm.send<double>(payload, 1);
        benchmark::DoNotOptimize(comm.recv<double>(1));
      } else {
        auto got = comm.recv<double>(0);
        comm.send<double>(got, 0);
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * doubles * 16);
}
BENCHMARK(BM_Pt2PtRoundTrip)->Arg(8)->Arg(1024)->Arg(65536);

void BM_AllreduceScalar(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    svmmpi::run_spmd(ranks, [](svmmpi::Comm& comm) {
      for (int i = 0; i < 64; ++i)
        benchmark::DoNotOptimize(comm.allreduce(1.0, svmmpi::ReduceOp::sum));
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AllreduceScalar)->Arg(2)->Arg(4)->Arg(8);

void BM_MinlocPair(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    svmmpi::run_spmd(ranks, [](svmmpi::Comm& comm) {
      for (int i = 0; i < 64; ++i) {
        const svmmpi::DoubleInt mine{static_cast<double>(comm.rank()), comm.rank()};
        benchmark::DoNotOptimize(comm.allreduce_minloc(mine));
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MinlocPair)->Arg(2)->Arg(8);

void BM_Bcast(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    svmmpi::run_spmd(ranks, [](svmmpi::Comm& comm) {
      std::vector<double> payload(1024);
      for (int i = 0; i < 16; ++i) comm.bcast(payload, 0);
    });
  }
}
BENCHMARK(BM_Bcast)->Arg(2)->Arg(4)->Arg(8);

void BM_RingExchange(benchmark::State& state) {
  const int ranks = 4;
  const std::size_t doubles = state.range(0);
  for (auto _ : state) {
    svmmpi::run_spmd(ranks, [doubles](svmmpi::Comm& comm) {
      std::vector<double> block(doubles, 1.0);
      const int to = (comm.rank() + 1) % ranks;
      const int from = (comm.rank() - 1 + ranks) % ranks;
      for (int step = 0; step < ranks - 1; ++step)
        block = comm.sendrecv<double>(block, to, from);
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * doubles * 8 *
                          (ranks - 1) * ranks);
}
BENCHMARK(BM_RingExchange)->Arg(1024)->Arg(32768);

}  // namespace

int main(int argc, char** argv) {
  // The guards replace the benchmark run; strip their flags before
  // benchmark::Initialize (which rejects flags it does not know).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-obs-overhead") == 0) return run_obs_overhead_guard();
    if (std::strcmp(argv[i], "--assert-collectives") == 0) return run_collective_gate();
  }

  // Before the microbenchmarks, print the alpha-beta model's predictions for
  // the paper-scale operations analysed in §III (p=4096, InfiniBand FDR).
  const svmmpi::NetModel model;
  svmutil::TextTable table({"operation", "payload", "p", "modeled time"});
  const auto row = [&](const char* op, const char* payload, int p, double seconds) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.2f us", seconds * 1e6);
    table.add_row({op, payload, svmutil::TextTable::integer(p), buffer});
  };
  row("pt2pt (x_up to rank0)", "1 sample ~ 1KB", 2, model.pt2pt(1024));
  row("bcast (x_up/x_low)", "1 sample ~ 1KB", 4096, model.tree(1024, 4096));
  row("allreduce (beta)", "16 B", 4096, model.tree(16, 4096));
  row("ring step (Algorithm 3)", "N/p samples ~ 5MB", 4096, model.ring_step(5 << 20));
  std::printf("alpha-beta model predictions at paper scale (l=%.1e s, G=%.1e s/B):\n\n",
              model.latency_s, model.seconds_per_byte);
  table.print();
  std::printf("\n");

  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
