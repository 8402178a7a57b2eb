// RowStore / flavored kernel data path:
//  - flavor and backend name round-trips, with clear rejection of unknowns,
//  - f64 panels reproduce the scalar dense dot BITWISE,
//  - the AVX2 kernels match the portable 8-wide fallback bitwise for every
//    flavor (lane-per-row layout: same arithmetic, same order),
//  - the software binary16 codec is exact on representables and correctly
//    rounded elsewhere,
//  - f16/i8 quantization error is bounded,
//  - the flavored KernelRowCache charges encoded bytes and decodes
//    deterministically,
//  - a reduced flavor needs the simd store or a row cache to hold it,
//  - flavored prediction passes its accuracy gates end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/zoo.hpp"
#include "kernel/kernel_cache.hpp"
#include "kernel/kernel_engine.hpp"
#include "kernel/row_store.hpp"
#include "kernel/simd.hpp"

namespace {

using svmdata::Dataset;
using svmkernel::EngineBackend;
using svmkernel::KernelRowCache;
using svmkernel::RowFlavor;
using svmkernel::RowStore;

constexpr RowFlavor kAllFlavors[] = {RowFlavor::f64, RowFlavor::f32, RowFlavor::f16,
                                     RowFlavor::i8};

// Restores the runtime SIMD dispatch on scope exit, whatever the test did.
struct DispatchGuard {
  ~DispatchGuard() { svmkernel::simd::set_force_portable(false); }
};

svmdata::CsrMatrix random_matrix(std::size_t n, std::size_t d, double density,
                                 std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  svmdata::CsrMatrix X;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<svmdata::Feature> row;
    for (std::size_t j = 0; j < d; ++j)
      if (coin(rng) < density) row.push_back({static_cast<std::int32_t>(j), value(rng)});
    if (row.empty()) row.push_back({0, value(rng)});  // keep every row non-empty
    X.add_row(row);
  }
  return X;
}

std::vector<double> densify(const svmdata::CsrMatrix& X, std::size_t row, std::size_t d) {
  std::vector<double> dense(d, 0.0);
  for (const auto& f : X.row(row)) dense[static_cast<std::size_t>(f.index)] = f.value;
  return dense;
}

// The scalar reference for one lane of a panel sweep: a single sequential
// accumulation over ascending columns, zeros included — exactly what each
// SIMD lane computes.
double lane_dot(const std::vector<double>& q, const std::vector<double>& row) {
  double acc = 0.0;
  for (std::size_t j = 0; j < q.size(); ++j) acc += q[j] * row[j];
  return acc;
}

std::vector<double> store_dots(const RowStore& store) {
  std::vector<double> out(store.panels() * RowStore::kPanel);
  for (std::size_t p = 0; p < store.panels(); ++p)
    store.panel_dots(p, out.data() + p * RowStore::kPanel);
  out.resize(store.rows());
  return out;
}

// --- satellite: name round-trips -------------------------------------------

TEST(FlavorNames, RoundTripAllFlavors) {
  for (const RowFlavor f : kAllFlavors)
    EXPECT_EQ(svmkernel::row_flavor_from_string(svmkernel::to_string(f)), f)
        << svmkernel::to_string(f);
}

TEST(FlavorNames, AcceptsAliases) {
  EXPECT_EQ(svmkernel::row_flavor_from_string("double"), RowFlavor::f64);
  EXPECT_EQ(svmkernel::row_flavor_from_string("float"), RowFlavor::f32);
  EXPECT_EQ(svmkernel::row_flavor_from_string("half"), RowFlavor::f16);
  EXPECT_EQ(svmkernel::row_flavor_from_string("int8"), RowFlavor::i8);
}

TEST(FlavorNames, RejectsUnknownWithClearError) {
  try {
    (void)svmkernel::row_flavor_from_string("bf16");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bf16"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("f64|f32|f16|i8"), std::string::npos) << e.what();
  }
}

TEST(FlavorNames, ElementBytes) {
  EXPECT_EQ(svmkernel::flavor_element_bytes(RowFlavor::f64), 8u);
  EXPECT_EQ(svmkernel::flavor_element_bytes(RowFlavor::f32), 4u);
  EXPECT_EQ(svmkernel::flavor_element_bytes(RowFlavor::f16), 2u);
  EXPECT_EQ(svmkernel::flavor_element_bytes(RowFlavor::i8), 1u);
}

// --- f64 bit-exactness ------------------------------------------------------

TEST(RowStoreF64, PanelDotsBitwiseEqualScalarDense) {
  const std::size_t n = 37, d = 53;  // deliberately not multiples of 8
  const auto X = random_matrix(n, d, 0.6, 101);
  RowStore store(X, 0, n, RowFlavor::f64);
  ASSERT_EQ(store.rows(), n);
  ASSERT_EQ(store.panels(), (n + 7) / 8);

  const std::vector<double> q = densify(X, 3, d);
  RowStore& mut = store;
  mut.prepare_query(q);
  const std::vector<double> dots = store_dots(store);
  for (std::size_t r = 0; r < n; ++r)
    EXPECT_EQ(dots[r], lane_dot(q, densify(X, r, d))) << "row " << r;
}

TEST(RowStoreF64, SqNormsMatchCsr) {
  const auto X = random_matrix(21, 17, 0.5, 7);
  RowStore store(X, 0, 21, RowFlavor::f64);
  const auto csr_norms = X.row_squared_norms();
  for (std::size_t r = 0; r < 21; ++r) EXPECT_EQ(store.sq_norm(r), csr_norms[r]);
}

// --- AVX2 vs portable -------------------------------------------------------

TEST(SimdDispatch, Avx2MatchesPortableBitwiseAllFlavors) {
  if (!svmkernel::simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  DispatchGuard guard;

  const std::size_t n = 29, d = 41;
  const auto X = random_matrix(n, d, 0.7, 23);
  const std::vector<double> qa = densify(X, 1, d);
  const std::vector<double> qb = densify(X, 11, d);

  for (const RowFlavor flavor : kAllFlavors) {
    svmkernel::simd::set_force_portable(false);
    RowStore vec_store(X, 0, n, flavor);
    EXPECT_STREQ(vec_store.ops_name(), "avx2");
    vec_store.prepare_query(qa, qb);

    svmkernel::simd::set_force_portable(true);
    RowStore por_store(X, 0, n, flavor);
    EXPECT_STREQ(por_store.ops_name(), "portable8");
    por_store.prepare_query(qa, qb);

    for (std::size_t p = 0; p < vec_store.panels(); ++p) {
      double va[RowStore::kPanel], vb[RowStore::kPanel];
      double pa[RowStore::kPanel], pb[RowStore::kPanel];
      vec_store.panel_dots(p, va, vb);
      por_store.panel_dots(p, pa, pb);
      for (std::size_t l = 0; l < RowStore::kPanel; ++l) {
        EXPECT_EQ(va[l], pa[l]) << svmkernel::to_string(flavor) << " panel " << p << " lane "
                                << l;
        EXPECT_EQ(vb[l], pb[l]) << svmkernel::to_string(flavor) << " panel " << p << " lane "
                                << l;
      }
    }
  }
}

// --- binary16 codec ---------------------------------------------------------

TEST(HalfCodec, ExactOnRepresentables) {
  using svmkernel::simd::float_to_half;
  using svmkernel::simd::half_to_float;
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -2.0f, 0.25f, 1024.0f, 65504.0f,
                        -65504.0f, 6.103515625e-05f /* min normal */}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(HalfCodec, RoundsToNearestWithinHalfUlp) {
  using svmkernel::simd::float_to_half;
  using svmkernel::simd::half_to_float;
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> value(-100.0f, 100.0f);
  for (int i = 0; i < 10000; ++i) {
    const float v = value(rng);
    const float back = half_to_float(float_to_half(v));
    // Normal binary16 has a 10-bit mantissa: rel error <= 2^-11.
    EXPECT_LE(std::abs(back - v), std::abs(v) * (1.0f / 2048.0f) + 1e-07f) << v;
  }
}

TEST(HalfCodec, SpecialValues) {
  using svmkernel::simd::float_to_half;
  using svmkernel::simd::half_to_float;
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half_to_float(float_to_half(inf)), inf);
  EXPECT_EQ(half_to_float(float_to_half(-inf)), -inf);
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(std::nanf("")))));
  EXPECT_EQ(half_to_float(float_to_half(1.0e6f)), inf);    // overflow -> inf
  EXPECT_EQ(half_to_float(float_to_half(1.0e-12f)), 0.0f); // underflow -> 0
  // binary16 subnormals survive the trip.
  EXPECT_EQ(half_to_float(float_to_half(5.9604644775390625e-08f)),
            5.9604644775390625e-08f);
}

// --- quantization bounds ----------------------------------------------------

TEST(RowStoreQuantized, DotErrorBounded) {
  const std::size_t n = 40, d = 64;
  const auto X = random_matrix(n, d, 0.8, 77);
  RowStore exact(X, 0, n, RowFlavor::f64);
  const std::vector<double> q = densify(X, 5, d);
  exact.prepare_query(q);
  const std::vector<double> truth = store_dots(exact);

  double q_l1 = 0.0;
  for (const double v : q) q_l1 += std::abs(v);

  const struct {
    RowFlavor flavor;
    double rel_elem;  ///< per-element quantization + accumulation error bound
  } cases[] = {// f32/f16/i8 all ACCUMULATE in binary32, so the d-term float
               // summation error (~d * 2^-24 relative) rides on top of the
               // per-element quantization error; d = 64 here.
               {RowFlavor::f32, 64.0 / (1 << 22)},
               {RowFlavor::f16, 1.0 / 1024.0},
               {RowFlavor::i8, 2.0 / 127.0}};  // scale = max|v|/127, |v| <= 2
  for (const auto& c : cases) {
    RowStore store(X, 0, n, c.flavor);
    store.prepare_query(q);
    const std::vector<double> dots = store_dots(store);
    for (std::size_t r = 0; r < n; ++r) {
      // |err| <= sum_j |q_j| * max elementwise quantization error.
      const double bound = q_l1 * c.rel_elem * 2.0 + 1e-9;
      EXPECT_NEAR(dots[r], truth[r], bound)
          << svmkernel::to_string(c.flavor) << " row " << r;
    }
  }
}

TEST(RowStoreQuantized, I8ImplicitZerosDecodeToZero) {
  // A sparse row quantized symmetrically must keep its missing features at
  // exactly 0: a query supported only on the missing coordinates dots to 0.
  svmdata::CsrMatrix X;
  const std::vector<svmdata::Feature> row0 = {{0, 1.5}, {2, -0.75}};
  const std::vector<svmdata::Feature> row1 = {{1, 2.0}, {3, 0.5}, {4, 1.0}};
  X.add_row(row0);
  X.add_row(row1);
  RowStore store(X, 0, 2, RowFlavor::i8);
  const std::vector<double> q = {0.0, 0.0, 0.0, 0.0, 0.0};
  std::vector<double> probe(5, 0.0);
  probe[1] = 3.0;  // row 0 has no feature 1
  store.prepare_query(probe);
  double out[RowStore::kPanel];
  store.panel_dots(0, out);
  EXPECT_EQ(out[0], 0.0);
  (void)q;
}

TEST(RowStoreQuantized, BytesResidentScaleWithFlavor) {
  const auto X = random_matrix(32, 48, 0.5, 3);
  const std::size_t f64_bytes = RowStore(X, 0, 32, RowFlavor::f64).bytes_resident();
  const std::size_t f32_bytes = RowStore(X, 0, 32, RowFlavor::f32).bytes_resident();
  const std::size_t f16_bytes = RowStore(X, 0, 32, RowFlavor::f16).bytes_resident();
  const std::size_t i8_bytes = RowStore(X, 0, 32, RowFlavor::i8).bytes_resident();
  EXPECT_EQ(f64_bytes, 2 * f32_bytes);
  EXPECT_EQ(f32_bytes, 2 * f16_bytes);
  // i8 carries per-row scale/offset floats on top of the 1 B/elem payload.
  EXPECT_LT(i8_bytes, f16_bytes);
  EXPECT_GE(i8_bytes, f16_bytes / 2);
}

// --- flavored row cache -----------------------------------------------------

TEST(FlavoredCache, ChargesEncodedBytes) {
  const std::size_t len = 100;
  std::vector<float> row(len, 1.25f);
  for (const auto& [flavor, per_row] :
       {std::pair{RowFlavor::f32, len * 4}, std::pair{RowFlavor::f16, len * 2},
        std::pair{RowFlavor::i8, len * 1 + sizeof(float)}}) {
    KernelRowCache cache(1 << 20, flavor);
    ASSERT_TRUE(cache.lookup(0).empty());
    cache.insert(0, row);
    EXPECT_EQ(cache.bytes_used(), per_row) << svmkernel::to_string(flavor);
    EXPECT_EQ(cache.bytes_resident(), cache.bytes_used());
  }
}

TEST(FlavoredCache, CompactFlavorHoldsMoreRowsUnderSameBudget) {
  const std::size_t len = 64;
  const std::size_t budget = len * 4 * 4;  // exactly 4 f32 rows
  std::vector<float> row(len, 0.5f);
  KernelRowCache f32_cache(budget, RowFlavor::f32);
  KernelRowCache i8_cache(budget, RowFlavor::i8);
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(f32_cache.lookup(i).empty());
    f32_cache.insert(i, row);
    ASSERT_TRUE(i8_cache.lookup(i).empty());
    i8_cache.insert(i, row);
  }
  EXPECT_EQ(f32_cache.entries(), 4u);
  EXPECT_GT(i8_cache.entries(), 8u);  // ~4x density (len + 4 bytes per row)
  EXPECT_LE(f32_cache.bytes_used(), budget);
  EXPECT_LE(i8_cache.bytes_used(), budget);
}

TEST(FlavoredCache, DecodeIsDeterministicAcrossHits) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> value(-3.0f, 3.0f);
  std::vector<float> row(33);
  for (float& v : row) v = value(rng);

  for (const RowFlavor flavor : {RowFlavor::f16, RowFlavor::i8}) {
    KernelRowCache cache(1 << 20, flavor);
    ASSERT_TRUE(cache.lookup(7).empty());
    cache.insert(7, row);
    const auto first = cache.lookup(7);
    ASSERT_EQ(first.size(), row.size());
    std::vector<float> snapshot(first.begin(), first.end());
    const auto second = cache.lookup(7);
    for (std::size_t i = 0; i < row.size(); ++i)
      EXPECT_EQ(second[i], snapshot[i]) << svmkernel::to_string(flavor) << " elem " << i;
    // And the decode is close to the original.
    const float amax = 3.0f;
    const float tol = flavor == RowFlavor::f16 ? amax / 1024.0f : amax / 127.0f;
    for (std::size_t i = 0; i < row.size(); ++i)
      EXPECT_NEAR(second[i], row[i], tol) << svmkernel::to_string(flavor) << " elem " << i;
  }
}

TEST(FlavoredCache, F32FlavorIsBitExact) {
  std::vector<float> row = {1.0f, -2.5f, 3.25f, 0.0f, -0.125f};
  KernelRowCache cache(1 << 16, RowFlavor::f32);
  ASSERT_TRUE(cache.lookup(0).empty());
  cache.insert(0, row);
  const auto got = cache.lookup(0);
  ASSERT_EQ(got.size(), row.size());
  for (std::size_t i = 0; i < row.size(); ++i) EXPECT_EQ(got[i], row[i]);
}

// --- flavor policy enforcement ---------------------------------------------

TEST(FlavorPolicy, ScalarBackendsRejectFlavoredRows) {
  const auto X = random_matrix(10, 8, 0.9, 1);
  const svmkernel::Kernel kernel{svmkernel::KernelParams{}};
  EXPECT_THROW(svmkernel::KernelEngine(kernel, X, EngineBackend::reference, 0, 10, 0,
                                       RowFlavor::f16),
               std::invalid_argument);
  EXPECT_THROW(svmkernel::KernelEngine(kernel, X, EngineBackend::dense_scatter, 0, 10, 0,
                                       RowFlavor::i8),
               std::invalid_argument);
  // A cache budget gives the flavor somewhere to live, on either backend.
  EXPECT_NO_THROW(svmkernel::KernelEngine(kernel, X, EngineBackend::dense_scatter, 0, 10,
                                          1 << 16, RowFlavor::f16));
  EXPECT_NO_THROW(svmkernel::KernelEngine(kernel, X, EngineBackend::reference, 0, 10,
                                          1 << 16, RowFlavor::i8));
  // simd accepts every flavor; f64 there stays bit-exact.
  EXPECT_NO_THROW(
      svmkernel::KernelEngine(kernel, X, EngineBackend::simd, 0, 10, 0, RowFlavor::i8));
}

// --- end-to-end accuracy gates ---------------------------------------------

TEST(FlavoredPredict, AccuracyGates) {
  const auto& entry = svmdata::zoo_entry("usps");
  const Dataset train = svmdata::make_train(entry, 0.25);
  const Dataset test = svmdata::make_test(entry, 0.25);
  ASSERT_GT(test.size(), 0u);

  svmcore::SolverParams params;
  params.C = entry.C;
  params.eps = 1e-3;
  params.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  svmcore::TrainOptions options;
  options.num_ranks = 2;
  const svmcore::TrainResult trained = svmcore::train(train, params, options);
  ASSERT_TRUE(trained.converged);
  const svmcore::SvmModel& model = trained.model;

  auto exact_engine = model.make_engine(EngineBackend::simd, RowFlavor::f64);
  std::vector<bool> exact_decisions(test.size());
  for (std::size_t i = 0; i < test.size(); ++i)
    exact_decisions[i] = model.decision_value(test.X.row(i), exact_engine) >= 0.0;

  const struct {
    RowFlavor flavor;
    double max_disagreement;  ///< fraction of flipped decisions vs f64
  } gates[] = {{RowFlavor::f32, 0.005}, {RowFlavor::f16, 0.01}, {RowFlavor::i8, 0.02}};
  for (const auto& gate : gates) {
    auto engine = model.make_engine(EngineBackend::simd, gate.flavor);
    std::size_t flips = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const bool decision = model.decision_value(test.X.row(i), engine) >= 0.0;
      if (decision != exact_decisions[i]) ++flips;
    }
    const double disagreement = static_cast<double>(flips) / static_cast<double>(test.size());
    EXPECT_LE(disagreement, gate.max_disagreement) << svmkernel::to_string(gate.flavor);
  }
}

TEST(FlavoredPredict, SimdF64MatchesDenseScatterBitwise) {
  const auto& entry = svmdata::zoo_entry("a9a");
  const Dataset train = svmdata::make_train(entry, 0.1);
  svmcore::SolverParams params;
  params.C = entry.C;
  params.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  svmcore::TrainOptions options;
  options.num_ranks = 1;
  const svmcore::TrainResult trained = svmcore::train(train, params, options);
  ASSERT_TRUE(trained.converged);

  auto scalar = trained.model.make_engine(EngineBackend::dense_scatter);
  auto simd = trained.model.make_engine(EngineBackend::simd, RowFlavor::f64);
  for (std::size_t i = 0; i < train.size(); i += 7) {
    EXPECT_EQ(trained.model.decision_value(train.X.row(i), scalar),
              trained.model.decision_value(train.X.row(i), simd))
        << "sample " << i;
  }
}

}  // namespace
