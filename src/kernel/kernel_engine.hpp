// KernelEngine: the one batched kernel-evaluation layer every hot path goes
// through. The engine owns per-solve hot state — precomputed row squared
// norms for its slice of the matrix, a dense scatter buffer for the current
// query row(s), an optional LRU row cache on any backend — and exposes
// batched operations:
//
//   eval_pair_rows / eval_pair_range   fused up/low evaluation: both query
//       rows are scattered into one interleaved dense accumulator, then every
//       requested matrix row is streamed against it ONCE, producing K(up,i)
//       and K(low,i) in a single memory traversal (the gamma-update hot loop
//       previously paid two sparse merge-join intersections per sample);
//   eval_rows                          the single-query batch, same core;
//   begin_query/query_row/end_query    streaming one-query scope for loops
//       that walk rows from elsewhere (gradient reconstruction's ring blocks,
//       model scoring against support vectors);
//   k_row_floats                       full float kernel row with optional
//       per-row scaling and LRU caching (the libsvm baseline's Q rows).
//
// Backends (EngineBackend) select the evaluation strategy:
//   reference      every value via Kernel::eval, i.e. the CsrMatrix::dot
//                  sparse merge join — the semantics ground truth;
//   dense_scatter  the fused fast path described above;
//   simd           the engine's norm-range rows materialized in a dense
//                  panel RowStore (lane-per-row, see row_store.hpp) and
//                  evaluated with the runtime-dispatched SIMD kernels;
//   auto_select    the production default: resolve_backend picks simd or
//                  dense_scatter from the WHOLE matrix's density, so every
//                  rank's slice of one matrix resolves the same way.
// No option selects a strategy: the named ones are pins for the tests'
// oracle and parity checks, the strategy benches, and the baselines (whose
// k_row_floats rows are filled by scatter under every backend).
// The Q-row cache is a layer, not a backend: a cache budget > 0 puts a
// KernelRowCache in front of k_row_floats on whichever backend fills rows.
//
// Row flavors (RowFlavor, row_store.hpp) select the resident precision of
// the simd store and of cached Q rows: f64 is exact; f32/f16/i8 trade
// precision for footprint and bandwidth. A reduced flavor needs something
// to hold it — the simd RowStore or a row cache — so a pinned scalar
// backend without a cache budget accepts only f64, and auto_select resolves
// such an engine to simd. The training solvers always
// build f64 engines, so optimization stays bit-exact double; flavors are a
// prediction/Q-cache feature, accuracy-gated by tests and bench_precision.
//
// Parity guarantee: dense_scatter is BIT-IDENTICAL to reference, not merely
// close. Both visit row i's nonzeros in increasing index order: the merge
// join accumulates the products a_k*b_k of the index intersection in that
// order, and the dense pass accumulates the same products in the same order
// interleaved with terms of the form v*(+-0.0), which never change an IEEE
// sum that starts at +0.0 (adding a signed zero to any finite value is an
// exact identity, and (+0)+(-0) = +0). Both paths then funnel the dot
// through Kernel::finish_from_dot, so the RBF/poly/sigmoid finish is the
// same instruction sequence. Tests enforce bitwise equality of whole models;
// checkpoint/chaos recovery relies on it staying exact.
//
// The simd backend at flavor f64 inherits the same guarantee: each panel
// lane is one row's sequential mul+add sum over ascending columns (never a
// horizontal reduction, never an FMA — see simd.hpp), which is the dense
// pass above with the sides swapped, and the dot funnels through the same
// finish_from_dot. Streaming entry points whose rows are not in the store
// (begin_query/query_row, k_row_floats fills) fall back to the scalar
// dense-scatter code under the simd backend — bit-identical for f64 by the
// argument above. The batched multi-query paths (eval_block_rows in both
// forms, accumulate_rows) DO run on the RowStore panels under simd: each
// external row becomes the prepared query and the resident side is swept a
// panel at a time, with ordered reductions preserving f64 bit-identity.
//
// Thread safety: an engine is mutable per-call state (scatter buffers,
// counters) — use one engine per rank / per thread. The `parallel` flags
// parallelize INSIDE a call with OpenMP; that is safe because the dense
// buffer is read-only while worker threads stream rows.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/sparse.hpp"
#include "kernel/kernel.hpp"
#include "kernel/kernel_cache.hpp"
#include "kernel/row_store.hpp"

namespace svmkernel {

enum class EngineBackend { reference, dense_scatter, simd, auto_select };

/// Whole-matrix density at and above which auto_select picks simd: simd
/// wins 1.4-2.4x on dense rows and loses up to 500x on sparse ones
/// (bench_engine_backends; table in DESIGN.md).
inline constexpr double kSimdMinDensity = 0.5;

/// `requested` unless it is auto_select; then simd for a reduced flavor
/// without a cache budget (only the panel store can hold it), else by density.
[[nodiscard]] EngineBackend resolve_backend(EngineBackend requested,
                                            const svmdata::CsrMatrix& X,
                                            RowFlavor flavor = RowFlavor::f64,
                                            std::size_t cache_budget_bytes = 0) noexcept;

[[nodiscard]] std::string to_string(EngineBackend backend);
/// Stable string literal for trace metadata (trace_instant keeps pointers).
[[nodiscard]] const char* trace_label(EngineBackend backend) noexcept;

/// Counters for the batched layer; cheap (no atomics — engines are
/// single-owner), reported through SolverStats and the benches.
struct EngineStats {
  std::uint64_t pair_evals = 0;      ///< samples evaluated by the fused pair path
  std::uint64_t single_evals = 0;    ///< rows evaluated by eval_rows/query_row
  std::uint64_t scatter_builds = 0;  ///< query-row scatters into the dense buffer
  std::uint64_t bytes_streamed = 0;  ///< payload bytes traversed by batched ops
                                     ///< (CSR features, or flavored panel bytes
                                     ///< for the simd backend)
  std::uint64_t panel_dots = 0;      ///< 8-row SIMD panel products computed
};

class KernelEngine {
 public:
  /// Engine over rows [norm_begin, norm_end) of `X` (a distributed rank's
  /// local block); squared norms for that slice are computed on
  /// construction; `backend` is resolved (resolve_backend). A cache budget
  /// > 0 puts the row cache in front of k_row_floats, on any backend.
  /// `flavor` selects the resident row precision of the simd store / cached
  /// Q rows; without either of those a reduced flavor is rejected. The
  /// engine keeps references to `kernel` and `X` — both must outlive it.
  KernelEngine(const Kernel& kernel, const svmdata::CsrMatrix& X, EngineBackend backend,
               std::size_t norm_begin, std::size_t norm_end,
               std::size_t cache_budget_bytes = 0, RowFlavor flavor = RowFlavor::f64);

  /// Full-matrix convenience (sequential solvers, baselines, model scoring).
  KernelEngine(const Kernel& kernel, const svmdata::CsrMatrix& X, EngineBackend backend,
               std::size_t cache_budget_bytes = 0, RowFlavor flavor = RowFlavor::f64)
      : KernelEngine(kernel, X, backend, 0, X.rows(), cache_budget_bytes, flavor) {}

  /// Owning-kernel form for callers without a long-lived Kernel (model
  /// scoring): the engine constructs and owns the evaluator itself, and
  /// borrows `sq_norms` (||X.row(i)||^2 for every row) instead of
  /// recomputing them.
  KernelEngine(const KernelParams& params, const svmdata::CsrMatrix& X,
               EngineBackend backend, std::span<const double> sq_norms,
               RowFlavor flavor = RowFlavor::f64);

  /// The resolved strategy; never auto_select.
  [[nodiscard]] EngineBackend backend() const noexcept { return backend_; }
  [[nodiscard]] RowFlavor flavor() const noexcept { return flavor_; }
  [[nodiscard]] const Kernel& kernel() const noexcept { return kernel_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Resident bytes of the simd backend's flavored RowStore (0 otherwise).
  [[nodiscard]] std::size_t store_bytes() const noexcept {
    return store_ ? store_->bytes_resident() : 0;
  }
  /// Encoded bytes currently held by the Q-row cache (0 without one).
  [[nodiscard]] std::size_t cache_bytes_resident() const noexcept {
    return cache_ ? cache_->bytes_resident() : 0;
  }

  /// ||X.row(i)||^2 for i in the engine's norm range.
  [[nodiscard]] double sq_norm(std::size_t i) const noexcept {
    return norms_[i - norm_begin_];
  }

  /// One-off evaluation of arbitrary rows (not necessarily from X); always
  /// the reference merge join — there is nothing to batch.
  [[nodiscard]] double eval_one(std::span<const svmdata::Feature> a,
                                std::span<const svmdata::Feature> b, double sq_a,
                                double sq_b) const noexcept {
    return kernel_.eval(a, b, sq_a, sq_b);
  }

  /// Fused pair evaluation over an index list: for each k,
  ///   out_up[k]  = K(up,  X.row(base + rows[k]))
  ///   out_low[k] = K(low, X.row(base + rows[k]))
  /// All base+rows[k] must lie in the engine's norm range. `up`/`low` may be
  /// remote rows (PackedSamples); their squared norms are passed explicitly.
  void eval_pair_rows(std::span<const svmdata::Feature> up, double sq_up,
                      std::span<const svmdata::Feature> low, double sq_low,
                      std::span<const std::uint32_t> rows, std::size_t base,
                      std::span<double> out_up, std::span<double> out_low,
                      bool parallel = false);

  /// Fused pair evaluation over the contiguous rows [begin, end).
  void eval_pair_range(std::span<const svmdata::Feature> up, double sq_up,
                       std::span<const svmdata::Feature> low, double sq_low,
                       std::size_t begin, std::size_t end, std::span<double> out_up,
                       std::span<double> out_low, bool parallel = false);

  /// Single-query batch: out[i - begin] = K(query, X.row(i)), i in [begin, end).
  void eval_rows(std::span<const svmdata::Feature> query, double sq_query,
                 std::size_t begin, std::size_t end, std::span<double> out,
                 bool parallel = false);

  /// Weighted kernel sum over every row in the engine's norm range:
  ///   sum_j coeffs[j] * K(query, X.row(norm_begin + j)),  j ascending.
  /// This is model scoring (coeffs = alpha_i * y_i over support vectors) as
  /// one batched call. The scalar backends reproduce the historical
  /// begin_query/query_row loop term by term; the simd backend sweeps the
  /// RowStore panels and reduces in the same ascending-row order, so the
  /// result is bit-identical across backends at flavor f64.
  [[nodiscard]] double accumulate_rows(std::span<const svmdata::Feature> query,
                                       double sq_query, std::span<const double> coeffs,
                                       bool parallel = false);

  // --- multi-query block batch (reconstruction ring steps) -----------------

  /// One ring step of gradient reconstruction in a single call: for every
  /// stale sample w,
  ///   accum[w] += sum_j block_coeffs[j] * K(block_rows[j], X.row(base + rows[w]))
  /// where block_rows are the circulating remote samples (their squared
  /// norms passed in block_sq_norms) and the j-sum is evaluated in
  /// increasing j order into a fresh +0.0 partial before the single += —
  /// BIT-IDENTICAL to the per-sample begin_query/query_row loop it replaces
  /// (the dot is orientation-symmetric: the merge join and both scatter
  /// directions accumulate the index-intersection products in the same
  /// increasing-index order, and IEEE add/mul are commutative).
  ///
  /// The dense backends scatter whichever side is SMALLER — the adaptive
  /// kernel orientation: min(rows.size(), block_rows.size()) scatter builds
  /// instead of the one-per-stale-sample of the streaming-scope path — and
  /// `parallel` OpenMP-parallelizes the streamed side (safe: the dense
  /// buffer is read-only while worker threads stream, and per-w partials
  /// keep the accumulation order fixed).
  void eval_block_rows(std::span<const std::span<const svmdata::Feature>> block_rows,
                       std::span<const double> block_sq_norms,
                       std::span<const double> block_coeffs,
                       std::span<const std::uint32_t> rows, std::size_t base,
                       std::span<double> accum, bool parallel = false);

  /// Serving micro-batch form: score every query against the engine's whole
  /// norm range in one call,
  ///   out[q] = sum_j coeffs[j] * K(queries[q], X.row(norm_begin + j))
  /// with the j-sum in ascending order — each out[q] is bitwise equal to
  /// accumulate_rows(queries[q], ...) on the same engine, across backends at
  /// flavor f64. Under the simd backend the resident rows are swept through
  /// the RowStore panels per query (flavored batch predict: an f32/f16/i8
  /// store serves degraded-precision batches from the same call shape).
  /// `query_sq_norms[q]` is ||queries[q]||^2.
  void eval_block_rows(std::span<const std::span<const svmdata::Feature>> queries,
                       std::span<const double> query_sq_norms,
                       std::span<const double> coeffs, std::span<double> out,
                       bool parallel = false);

  // --- streaming one-query scope -----------------------------------------
  // begin_query scatters (or, for the reference backend, remembers) the
  // query row; query_row then evaluates arbitrary rows against it — rows
  // need not come from X (gradient reconstruction streams ring-exchanged
  // blocks). The query span must stay valid until end_query.

  void begin_query(std::span<const svmdata::Feature> query, double sq_query);
  [[nodiscard]] double query_row(std::span<const svmdata::Feature> row, double sq_row);
  void end_query();

  // --- cached float rows (libsvm baseline Q rows) -------------------------

  /// Optional per-row scale s: k_row_floats then returns
  /// float(s[i] * s[j] * K(i, j)) — with s = y this is exactly the C-SVC
  /// Q row, and since y in {+-1} the float rounding equals libsvm's
  /// float(y_i * y_j * K). Must be set before the first k_row_floats call;
  /// scaled rows are cached scaled (cache hits stay O(1)).
  void set_row_scale(std::span<const double> scale);

  /// Row i of the (scaled) kernel matrix as floats, columns [0, len).
  /// Served from the LRU cache when the engine has a cache budget; the
  /// returned span stays valid until the next k_row_floats call (the cache
  /// pins it — see KernelRowCache::lookup). Counts `len` kernel
  /// evaluations on a miss and none on a hit, matching the per-element
  /// Kernel::eval metric of the unbatched code.
  [[nodiscard]] std::span<const float> k_row_floats(std::size_t i, std::size_t len,
                                                    bool parallel = false);

  [[nodiscard]] double cache_hit_rate() const noexcept {
    return cache_ ? cache_->hit_rate() : 0.0;
  }

 private:
  void ensure_dense(std::size_t lanes);
  void scatter(std::span<const svmdata::Feature> row, std::size_t lane, std::size_t lanes);
  void unscatter(std::span<const svmdata::Feature> row, std::size_t lane, std::size_t lanes);
  void fill_k_row(std::size_t i, std::size_t len, bool parallel, float* out);
  [[nodiscard]] std::uint64_t payload_bytes(std::span<const std::uint32_t> rows,
                                            std::size_t base) const noexcept;
  void init_flavored(std::size_t cache_budget_bytes);
  /// Decoded squared norm of store-local row (engine norms when f64 — the
  /// two agree there, and the scalar parity paths compare against norms_).
  [[nodiscard]] double store_sq(std::size_t local) const {
    return flavor_ == RowFlavor::f64 ? norms_[local] : store_->sq_norm(local);
  }
  /// Densifies `row` into `buf` (resized to cols, zeros elsewhere); caller
  /// must clear_query_vec afterwards. Returns the span panel eval reads.
  void fill_query_vec(std::vector<double>& buf, std::span<const svmdata::Feature> row);
  void clear_query_vec(std::vector<double>& buf, std::span<const svmdata::Feature> row);
  void simd_pair_indexed(std::span<const std::uint32_t> rows, std::size_t base,
                         double sq_up, double sq_low, std::span<double> out_up,
                         std::span<double> out_low);
  void simd_pair_range(std::size_t begin, std::size_t end, double sq_up, double sq_low,
                       std::span<double> out_up, std::span<double> out_low, bool parallel);
  void simd_single_range(std::size_t begin, std::size_t end, double sq_query,
                         std::span<double> out, bool parallel);

  std::unique_ptr<Kernel> owned_kernel_;  ///< set only by the owning ctor
  const Kernel& kernel_;
  const svmdata::CsrMatrix& X_;
  EngineBackend backend_;
  RowFlavor flavor_ = RowFlavor::f64;
  std::size_t norm_begin_ = 0;
  std::vector<double> owned_norms_;
  std::span<const double> norms_;

  std::unique_ptr<RowStore> store_;  ///< simd backend's flavored panels
  std::vector<double> qa_vec_;       ///< dense query buffers for the store
  std::vector<double> qb_vec_;

  std::vector<double> dense_;        ///< scatter buffer, lanes * cols entries
  std::size_t dense_lanes_ = 0;      ///< 1 = single query, 2 = interleaved pair
  std::span<const svmdata::Feature> query_;  ///< active begin_query row
  double query_sq_ = 0.0;
  bool query_active_ = false;

  std::vector<double> scale_;
  std::vector<float> row_scratch_;
  // eval_block_rows scratch, reused across ring steps: per-stale-sample
  // partial sums and (scatter-stale orientation) per-block kernel values.
  std::vector<double> block_partials_;
  std::vector<double> block_kvals_;
  std::unique_ptr<KernelRowCache> cache_;
  std::uint64_t k_row_calls_ = 0;  ///< trace counter-track sampling stride

  EngineStats stats_;
};

}  // namespace svmkernel
