// Equivalence of the parallel "Original" solver (Algorithm 2) with the
// sequential reference (Algorithm 1). Because the working-set selection uses
// index-tie-broken MINLOC/MAXLOC and the pair update is computed redundantly
// from broadcast state, the parallel solver must match the sequential one
// BITWISE for any rank count.
#include <gtest/gtest.h>

#include "core/sequential_smo.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "data/zoo.hpp"

namespace {

using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmcore::TrainResult;
using svmdata::Dataset;
using svmkernel::KernelParams;

Dataset medium_dataset() {
  return svmdata::synthetic::gaussian_blobs(
      {.n = 160, .d = 6, .separation = 1.8, .label_noise = 0.05, .seed = 41});
}

SolverParams rbf_params() {
  SolverParams p;
  p.C = 4.0;
  p.eps = 1e-3;
  p.kernel = KernelParams::rbf_with_sigma_sq(4.0);
  return p;
}

class DistributedP : public ::testing::TestWithParam<int> {};

TEST_P(DistributedP, OriginalMatchesSequentialBitwise) {
  const Dataset d = medium_dataset();
  const SolverParams params = rbf_params();
  const auto sequential = svmcore::solve_sequential(d, params);

  TrainOptions options;
  options.num_ranks = GetParam();
  const TrainResult parallel = svmcore::train(d, params, options);

  EXPECT_EQ(parallel.iterations, sequential.stats.iterations);
  // beta averages gamma over I0; rank-partial sums regroup the additions,
  // so beta agrees to the last few ulps rather than bitwise.
  EXPECT_NEAR(parallel.beta, sequential.beta, 1e-12);

  // Reassemble the distributed alphas and compare bitwise.
  std::vector<double> alpha(d.size(), 0.0);
  std::size_t offset = 0;
  for (int r = 0; r < options.num_ranks; ++r) {
    const auto range = svmdata::block_range(d.size(), options.num_ranks, r);
    offset = range.begin;
    (void)offset;
  }
  // train() already stitched them into the model; compare support vectors.
  const auto model_seq =
      svmcore::build_model(d, sequential.alpha, sequential.beta, params.kernel);
  EXPECT_EQ(parallel.model.num_support_vectors(), model_seq.num_support_vectors());
  for (std::size_t j = 0; j < model_seq.num_support_vectors(); ++j)
    EXPECT_EQ(parallel.model.coefficients()[j], model_seq.coefficients()[j]);
}

TEST_P(DistributedP, ConvergedAndBoundsConsistent) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = GetParam();
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  EXPECT_TRUE(r.converged);
  for (const auto& s : r.rank_stats) {
    EXPECT_EQ(s.iterations, r.iterations);  // global loop count is shared
    EXPECT_LE(s.final_beta_up + 2e-3 * 2, s.final_beta_low + 4e-3 + 1e-9);
  }
}

TEST_P(DistributedP, WorkSplitsAcrossRanks) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = GetParam();
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  // Each rank evaluates kernels only for its block: the per-rank max should
  // be well below the single-rank total for p > 1.
  if (GetParam() > 1) {
    EXPECT_LT(r.max_rank_kernel_evaluations, r.total_kernel_evaluations);
    // And communication must have happened.
    EXPECT_GT(r.traffic.collectives, 0u);
    EXPECT_GT(r.traffic.bytes_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, DistributedP, ::testing::Values(1, 2, 3, 4, 8));

TEST(Distributed, RejectsMoreRanksThanSamples) {
  Dataset d;
  d.X.add_row(std::vector<svmdata::Feature>{{0, 1.0}});
  d.X.add_row(std::vector<svmdata::Feature>{{0, -1.0}});
  d.y = {1.0, -1.0};
  TrainOptions options;
  options.num_ranks = 5;
  EXPECT_THROW((void)svmcore::train(d, rbf_params(), options), std::invalid_argument);
}

TEST(Distributed, RejectsSingleClassDataset) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.X.add_row(std::vector<svmdata::Feature>{{0, static_cast<double>(i)}});
    d.y.push_back(1.0);
  }
  TrainOptions options;
  options.num_ranks = 2;
  EXPECT_THROW((void)svmcore::train(d, rbf_params(), options), std::invalid_argument);
}

TEST(Distributed, ModeledTimeDecreasesWithRanksOnFixedProblem) {
  // The modeled per-rank compute shrinks ~1/p while modeled network time
  // grows only logarithmically: modeled time must improve from p=1 to p=8
  // on a compute-heavy problem.
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 400, .d = 10, .separation = 1.5, .label_noise = 0.05, .seed = 43});
  const SolverParams params = rbf_params();
  TrainOptions one;
  one.num_ranks = 1;
  TrainOptions eight;
  eight.num_ranks = 8;
  const double t1 = svmcore::train(d, params, one).modeled_seconds;
  const double t8 = svmcore::train(d, params, eight).modeled_seconds;
  EXPECT_LT(t8, t1);
}

TEST(Distributed, OpenmpGammaPathIsBitwiseEquivalent) {
  // The hybrid OpenMP gamma update touches disjoint entries with identical
  // arithmetic, so it must reproduce the serial path exactly.
  const Dataset d = medium_dataset();
  const SolverParams params = rbf_params();
  TrainOptions serial;
  serial.num_ranks = 2;
  serial.heuristic = svmcore::Heuristic::parse("Multi5pc");
  TrainOptions hybrid = serial;
  hybrid.openmp_gamma = true;
  const TrainResult a = svmcore::train(d, params, serial);
  const TrainResult b = svmcore::train(d, params, hybrid);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.samples_shrunk, b.samples_shrunk);
  EXPECT_EQ(a.beta, b.beta);
  ASSERT_EQ(a.model.num_support_vectors(), b.model.num_support_vectors());
  for (std::size_t j = 0; j < a.model.num_support_vectors(); ++j)
    EXPECT_EQ(a.model.coefficients()[j], b.model.coefficients()[j]);
}

TEST(Distributed, DefaultEngineSolveBitIdenticalToReference) {
  // Default SolverParams leave the kernel strategy to the data (simd panels
  // on dense higgs, sparse scatter on url); either way the model must be the
  // reference merge join's, bit for bit, at one rank and at four.
  for (const char* name : {"higgs", "url"}) {
    const svmdata::ZooEntry& entry = svmdata::zoo_entry(name);
    const Dataset train = svmdata::make_train(entry, 0.05);
    SolverParams params;
    params.C = entry.C;
    params.kernel = KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
    SolverParams pinned = params;
    pinned.engine_backend = svmkernel::EngineBackend::reference;
    for (const int ranks : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " p=" + std::to_string(ranks));
      TrainOptions options;
      options.num_ranks = ranks;
      options.heuristic = svmcore::Heuristic::parse("Multi5pc");
      const TrainResult ref = svmcore::train(train, pinned, options);
      const TrainResult automatic = svmcore::train(train, params, options);
      ASSERT_TRUE(ref.converged);
      EXPECT_EQ(automatic.iterations, ref.iterations);
      EXPECT_EQ(automatic.beta, ref.beta);
      ASSERT_EQ(automatic.alpha.size(), ref.alpha.size());
      for (std::size_t i = 0; i < ref.alpha.size(); ++i)
        EXPECT_EQ(automatic.alpha[i], ref.alpha[i]) << "alpha " << i;
    }
  }
}

TEST(Distributed, ActiveTraceRecordsShrinkingCurve) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = 2;
  options.heuristic = svmcore::Heuristic::parse("Multi5pc");
  options.trace_active_interval = 50;
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  ASSERT_FALSE(r.active_trace.empty());
  // Iterations in the trace are multiples of the interval, ascending, and
  // active counts never exceed the dataset size.
  std::uint64_t previous = 0;
  for (const auto& [iteration, active] : r.active_trace) {
    EXPECT_EQ(iteration % 50, 0u);
    EXPECT_GT(iteration, previous);
    previous = iteration;
    EXPECT_LE(active, d.size());
    EXPECT_GT(active, 0u);
  }
  // With shrinking, some sample point must show a reduced active set.
  bool shrunk_seen = false;
  for (const auto& [iteration, active] : r.active_trace)
    if (active < d.size()) shrunk_seen = true;
  EXPECT_TRUE(shrunk_seen);
}

TEST(Distributed, TraceDisabledByDefault) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = 2;
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  EXPECT_TRUE(r.active_trace.empty());
}

TEST(Distributed, OneSamplePerRankEdgeCase) {
  // p == n: every rank owns exactly one sample; the full communication
  // machinery (owner->0->bcast, ring) runs with minimal blocks.
  svmdata::Dataset d;
  for (int i = 0; i < 12; ++i) {
    d.X.add_row(std::vector<svmdata::Feature>{{0, static_cast<double>(i % 2 ? 1 : -1)},
                                              {1, static_cast<double>(i) / 12.0}});
    d.y.push_back(i % 2 ? 1.0 : -1.0);
  }
  TrainOptions options;
  options.num_ranks = 12;
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.model.accuracy(d), 0.9);

  // And with shrinking on the same extreme layout.
  options.heuristic = svmcore::Heuristic::parse("Multi2");
  const TrainResult s = svmcore::train(d, rbf_params(), options);
  EXPECT_TRUE(s.converged);
  EXPECT_NEAR(s.beta, r.beta, 1e-9);
}

TEST(Distributed, OpenmpGammaMatchesOnOriginalToo) {
  const Dataset d = medium_dataset();
  const SolverParams params = rbf_params();
  TrainOptions serial;
  serial.num_ranks = 3;
  TrainOptions hybrid = serial;
  hybrid.openmp_gamma = true;
  const TrainResult a = svmcore::train(d, params, serial);
  const TrainResult b = svmcore::train(d, params, hybrid);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.beta, b.beta);
}

TEST(Distributed, TrafficScalesWithIterations) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = 4;
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  // Per iteration: >= 2 pt2pt bcast payloads + 2 MINLOC/MAXLOC collectives.
  EXPECT_GE(r.traffic.collectives, 2 * r.iterations);
}

}  // namespace
