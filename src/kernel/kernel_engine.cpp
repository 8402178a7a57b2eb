#include "kernel/kernel_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace svmkernel {

namespace {

// One cache-hit-rate counter sample per kCacheCounterStride k_row_floats
// calls: frequent enough to plot warm-up, cheap enough for traced runs.
constexpr std::uint64_t kCacheCounterStride = 1024;

}  // namespace

EngineBackend resolve_backend(EngineBackend requested, const svmdata::CsrMatrix& X,
                              RowFlavor flavor, std::size_t cache_budget_bytes) noexcept {
  if (requested != EngineBackend::auto_select) return requested;
  if (flavor != RowFlavor::f64 && cache_budget_bytes == 0) return EngineBackend::simd;
  return X.density() >= kSimdMinDensity ? EngineBackend::simd : EngineBackend::dense_scatter;
}

std::string to_string(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::reference: return "reference";
    case EngineBackend::dense_scatter: return "dense_scatter";
    case EngineBackend::simd: return "simd";
    case EngineBackend::auto_select: return "auto";
  }
  return "?";
}

const char* trace_label(EngineBackend backend) noexcept {
  switch (backend) {
    case EngineBackend::reference: return "backend_reference";
    case EngineBackend::dense_scatter: return "backend_dense_scatter";
    case EngineBackend::simd: return "backend_simd";
    case EngineBackend::auto_select: return "backend_auto";
  }
  return "backend_unknown";
}

void KernelEngine::init_flavored(std::size_t cache_budget_bytes) {
  backend_ = resolve_backend(backend_, X_, flavor_, cache_budget_bytes);
  if (flavor_ != RowFlavor::f64 && backend_ != EngineBackend::simd && cache_budget_bytes == 0)
    throw std::invalid_argument("KernelEngine: flavored rows ('" + to_string(flavor_) +
                                "') need the simd backend or a cache budget (rows are "
                                "encoded on insert; without either there is nothing to "
                                "flavor)");
  if (cache_budget_bytes > 0)
    cache_ = std::make_unique<KernelRowCache>(cache_budget_bytes, flavor_);
  if (backend_ == EngineBackend::simd) {
    // Borrowed norm spans may be longer than the matrix; the store covers
    // exactly the rows that exist.
    const std::size_t row_end = std::min(norm_begin_ + norms_.size(), X_.rows());
    store_ = std::make_unique<RowStore>(X_, norm_begin_, row_end, flavor_);
  }
}

KernelEngine::KernelEngine(const Kernel& kernel, const svmdata::CsrMatrix& X,
                           EngineBackend backend, std::size_t norm_begin,
                           std::size_t norm_end, std::size_t cache_budget_bytes,
                           RowFlavor flavor)
    : kernel_(kernel), X_(X), backend_(backend), flavor_(flavor), norm_begin_(norm_begin) {
  if (norm_end < norm_begin || norm_end > X.rows())
    throw std::invalid_argument("KernelEngine: bad norm range");
  owned_norms_.resize(norm_end - norm_begin);
  for (std::size_t i = norm_begin; i < norm_end; ++i)
    owned_norms_[i - norm_begin] = svmdata::CsrMatrix::squared_norm(X.row(i));
  norms_ = owned_norms_;
  init_flavored(cache_budget_bytes);
}

KernelEngine::KernelEngine(const KernelParams& params, const svmdata::CsrMatrix& X,
                           EngineBackend backend, std::span<const double> sq_norms,
                           RowFlavor flavor)
    : owned_kernel_(std::make_unique<Kernel>(params)),
      kernel_(*owned_kernel_),
      X_(X),
      backend_(backend),
      flavor_(flavor),
      norm_begin_(0),
      norms_(sq_norms) {
  if (sq_norms.size() < X.rows())
    throw std::invalid_argument("KernelEngine: borrowed norms shorter than matrix");
  init_flavored(0);
}

void KernelEngine::ensure_dense(std::size_t lanes) {
  const std::size_t needed = lanes * X_.cols();
  // The buffer is kept all-zero between scatters, so growing with
  // zero-fill (and reinterpreting the lane stride) preserves the invariant.
  if (dense_.size() < needed) dense_.resize(needed, 0.0);
  dense_lanes_ = lanes;
}

void KernelEngine::scatter(std::span<const svmdata::Feature> row, std::size_t lane,
                           std::size_t lanes) {
  const std::size_t cols = X_.cols();
  // Query features beyond the matrix's column count cannot intersect any
  // matrix row; skipping them is exact (and keeps the buffer in bounds when
  // the query is a remote sample with wider features).
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) dense_[idx * lanes + lane] = f.value;
  }
}

void KernelEngine::unscatter(std::span<const svmdata::Feature> row, std::size_t lane,
                             std::size_t lanes) {
  const std::size_t cols = X_.cols();
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) dense_[idx * lanes + lane] = 0.0;
  }
}

std::uint64_t KernelEngine::payload_bytes(std::span<const std::uint32_t> rows,
                                          std::size_t base) const noexcept {
  std::uint64_t bytes = 0;
  for (const std::uint32_t r : rows)
    bytes += X_.row(base + r).size() * sizeof(svmdata::Feature);
  return bytes;
}

void KernelEngine::eval_pair_rows(std::span<const svmdata::Feature> up, double sq_up,
                                  std::span<const svmdata::Feature> low, double sq_low,
                                  std::span<const std::uint32_t> rows, std::size_t base,
                                  std::span<double> out_up, std::span<double> out_low,
                                  bool parallel) {
  svmobs::TraceSpan span("engine_pair_batch", "kernel");
  const auto count = static_cast<std::ptrdiff_t>(rows.size());
  stats_.pair_evals += rows.size();
  stats_.bytes_streamed +=
      store_ ? rows.size() * store_->row_bytes() : payload_bytes(rows, base);

  if (backend_ == EngineBackend::reference) {
    // Ground truth: two sparse merge joins per sample, as the pre-engine
    // solvers did. Kernel::eval bumps the evaluation counter itself.
#pragma omp parallel for schedule(static) if (parallel)
    for (std::ptrdiff_t k = 0; k < count; ++k) {
      const std::size_t g = base + rows[static_cast<std::size_t>(k)];
      const auto row = X_.row(g);
      const double sq = sq_norm(g);
      out_up[static_cast<std::size_t>(k)] = kernel_.eval(up, row, sq_up, sq);
      out_low[static_cast<std::size_t>(k)] = kernel_.eval(low, row, sq_low, sq);
    }
    return;
  }

  if (backend_ == EngineBackend::simd) {
    // Panel sweep with last-panel memoization: the solver hands this path a
    // sorted active-index list, so each touched panel is computed once.
    // Intra-call threading is skipped — the memo is worth more than a
    // parallel-for on arbitrary index lists.
    (void)parallel;
    fill_query_vec(qa_vec_, up);
    fill_query_vec(qb_vec_, low);
    simd_pair_indexed(rows, base, sq_up, sq_low, out_up, out_low);
    kernel_.note_evaluations(2 * rows.size());
    clear_query_vec(qa_vec_, up);
    clear_query_vec(qb_vec_, low);
    return;
  }

  // Fused fast path: one interleaved dense buffer holds both query rows, so
  // each matrix row is traversed once and yields both kernel values.
  ensure_dense(2);
  scatter(up, 0, 2);
  scatter(low, 1, 2);
  stats_.scatter_builds += 2;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t k = 0; k < count; ++k) {
    const std::size_t g = base + rows[static_cast<std::size_t>(k)];
    double du = 0.0;
    double dl = 0.0;
    for (const svmdata::Feature& f : X_.row(g)) {
      const double* lane = dense_.data() + 2 * static_cast<std::size_t>(f.index);
      du += f.value * lane[0];
      dl += f.value * lane[1];
    }
    const double sq = sq_norm(g);
    out_up[static_cast<std::size_t>(k)] = kernel_.finish_from_dot(du, sq_up, sq);
    out_low[static_cast<std::size_t>(k)] = kernel_.finish_from_dot(dl, sq_low, sq);
  }
  kernel_.note_evaluations(2 * rows.size());
  unscatter(up, 0, 2);
  unscatter(low, 1, 2);
}

void KernelEngine::eval_pair_range(std::span<const svmdata::Feature> up, double sq_up,
                                   std::span<const svmdata::Feature> low, double sq_low,
                                   std::size_t begin, std::size_t end,
                                   std::span<double> out_up, std::span<double> out_low,
                                   bool parallel) {
  svmobs::TraceSpan span("engine_pair_batch", "kernel");
  const auto first = static_cast<std::ptrdiff_t>(begin);
  const auto last = static_cast<std::ptrdiff_t>(end);
  stats_.pair_evals += end - begin;
  if (store_) {
    stats_.bytes_streamed += (end - begin) * store_->row_bytes();
  } else {
    for (std::size_t i = begin; i < end; ++i)
      stats_.bytes_streamed += X_.row(i).size() * sizeof(svmdata::Feature);
  }

  if (backend_ == EngineBackend::reference) {
#pragma omp parallel for schedule(static) if (parallel)
    for (std::ptrdiff_t k = first; k < last; ++k) {
      const auto g = static_cast<std::size_t>(k);
      const auto row = X_.row(g);
      const double sq = sq_norm(g);
      out_up[g - begin] = kernel_.eval(up, row, sq_up, sq);
      out_low[g - begin] = kernel_.eval(low, row, sq_low, sq);
    }
    return;
  }

  if (backend_ == EngineBackend::simd) {
    fill_query_vec(qa_vec_, up);
    fill_query_vec(qb_vec_, low);
    simd_pair_range(begin, end, sq_up, sq_low, out_up, out_low, parallel);
    kernel_.note_evaluations(2 * (end - begin));
    clear_query_vec(qa_vec_, up);
    clear_query_vec(qb_vec_, low);
    return;
  }

  ensure_dense(2);
  scatter(up, 0, 2);
  scatter(low, 1, 2);
  stats_.scatter_builds += 2;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t k = first; k < last; ++k) {
    const auto g = static_cast<std::size_t>(k);
    double du = 0.0;
    double dl = 0.0;
    for (const svmdata::Feature& f : X_.row(g)) {
      const double* lane = dense_.data() + 2 * static_cast<std::size_t>(f.index);
      du += f.value * lane[0];
      dl += f.value * lane[1];
    }
    const double sq = sq_norm(g);
    out_up[g - begin] = kernel_.finish_from_dot(du, sq_up, sq);
    out_low[g - begin] = kernel_.finish_from_dot(dl, sq_low, sq);
  }
  kernel_.note_evaluations(2 * (end - begin));
  unscatter(up, 0, 2);
  unscatter(low, 1, 2);
}

void KernelEngine::eval_rows(std::span<const svmdata::Feature> query, double sq_query,
                             std::size_t begin, std::size_t end, std::span<double> out,
                             bool parallel) {
  svmobs::TraceSpan span("engine_row_batch", "kernel");
  const auto first = static_cast<std::ptrdiff_t>(begin);
  const auto last = static_cast<std::ptrdiff_t>(end);
  stats_.single_evals += end - begin;
  if (store_) {
    stats_.bytes_streamed += (end - begin) * store_->row_bytes();
  } else {
    for (std::size_t i = begin; i < end; ++i)
      stats_.bytes_streamed += X_.row(i).size() * sizeof(svmdata::Feature);
  }

  if (backend_ == EngineBackend::reference) {
#pragma omp parallel for schedule(static) if (parallel)
    for (std::ptrdiff_t k = first; k < last; ++k) {
      const auto g = static_cast<std::size_t>(k);
      out[g - begin] = kernel_.eval(X_.row(g), query, sq_norm(g), sq_query);
    }
    return;
  }

  if (backend_ == EngineBackend::simd) {
    fill_query_vec(qa_vec_, query);
    simd_single_range(begin, end, sq_query, out, parallel);
    kernel_.note_evaluations(end - begin);
    clear_query_vec(qa_vec_, query);
    return;
  }

  ensure_dense(1);
  scatter(query, 0, 1);
  stats_.scatter_builds += 1;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t k = first; k < last; ++k) {
    const auto g = static_cast<std::size_t>(k);
    double d = 0.0;
    for (const svmdata::Feature& f : X_.row(g))
      d += f.value * dense_[static_cast<std::size_t>(f.index)];
    out[g - begin] = kernel_.finish_from_dot(d, sq_norm(g), sq_query);
  }
  kernel_.note_evaluations(end - begin);
  unscatter(query, 0, 1);
}

void KernelEngine::eval_block_rows(
    std::span<const std::span<const svmdata::Feature>> block_rows,
    std::span<const double> block_sq_norms, std::span<const double> block_coeffs,
    std::span<const std::uint32_t> rows, std::size_t base, std::span<double> accum,
    bool parallel) {
  svmobs::TraceSpan span("engine_block_batch", "kernel");
  const std::size_t stale = rows.size();
  const std::size_t block = block_rows.size();
  stats_.single_evals += stale * block;

  if (backend_ == EngineBackend::reference) {
    // Ground truth: per stale sample, one ordered merge-join sweep over the
    // block — exactly the begin_query/query_row loop this call batches.
    for (std::size_t w = 0; w < stale; ++w) {
      const std::size_t g = base + rows[w];
      const auto stale_row = X_.row(g);
      const double sq_stale = sq_norm(g);
      stats_.bytes_streamed += block * stale_row.size() * sizeof(svmdata::Feature);
      double partial = 0.0;
      for (std::size_t j = 0; j < block; ++j)
        partial += block_coeffs[j] *
                   kernel_.eval(block_rows[j], stale_row, block_sq_norms[j], sq_stale);
      accum[w] += partial;
    }
    return;
  }

  if (backend_ == EngineBackend::simd) {
    // Panel orientation: the stale side already lives in the RowStore, so
    // each circulating block row becomes the prepared query and the store is
    // swept a panel at a time (dots cached while consecutive stale indices
    // stay in one panel). The serial ascending-j accumulation through the
    // partials buffer matches the scalar orientations' order, so f64 stays
    // bit-identical; `parallel` is ignored — the ordered reduction and the
    // lane amortization both want the serial sweep.
    (void)parallel;
    constexpr std::size_t kP = RowStore::kPanel;
    block_partials_.assign(stale, 0.0);
    double d[kP];
    for (std::size_t j = 0; j < block; ++j) {
      fill_query_vec(qa_vec_, block_rows[j]);
      store_->prepare_query(qa_vec_);
      const double coeff = block_coeffs[j];
      const double sq_block = block_sq_norms[j];
      std::size_t cur = std::numeric_limits<std::size_t>::max();
      for (std::size_t w = 0; w < stale; ++w) {
        const std::size_t local = base + rows[w] - norm_begin_;
        const std::size_t p = local / kP;
        if (p != cur) {
          store_->panel_dots(p, d);
          stats_.panel_dots += 1;
          cur = p;
        }
        block_partials_[w] +=
            coeff * kernel_.finish_from_dot(d[local % kP], sq_block, store_sq(local));
      }
      clear_query_vec(qa_vec_, block_rows[j]);
    }
    for (std::size_t w = 0; w < stale; ++w) accum[w] += block_partials_[w];
    stats_.bytes_streamed += stale * block * store_->row_bytes();
    kernel_.note_evaluations(stale * block);
    return;
  }

  ensure_dense(1);
  // Adaptive orientation: scatter whichever side is smaller. Ties go to the
  // block side, whose orientation parallelizes the (per-element independent)
  // stale dimension instead of needing a K-value scratch pass.
  if (block <= stale) {
    // Scatter each circulating block row once; stream all stale rows
    // against it. Outer j loop is serial, so accum[w]'s additions happen in
    // increasing j order via the partials buffer.
    block_partials_.assign(stale, 0.0);
    const auto last = static_cast<std::ptrdiff_t>(stale);
    for (std::size_t j = 0; j < block; ++j) {
      scatter(block_rows[j], 0, 1);
      stats_.scatter_builds += 1;
      const double coeff = block_coeffs[j];
      const double sq_block = block_sq_norms[j];
      const auto add_row = [&](std::size_t w) {
        const std::size_t g = base + rows[w];
        double d = 0.0;
        for (const svmdata::Feature& f : X_.row(g))
          d += f.value * dense_[static_cast<std::size_t>(f.index)];
        block_partials_[w] += coeff * kernel_.finish_from_dot(d, sq_block, sq_norm(g));
      };
      if (parallel) {
#pragma omp parallel for schedule(static)
        for (std::ptrdiff_t k = 0; k < last; ++k) add_row(static_cast<std::size_t>(k));
      } else {
        // No pragma on the sequential path: entering an OpenMP region with a
        // one-thread team is measurable overhead at ring-step granularity.
        for (std::size_t w = 0; w < stale; ++w) add_row(w);
      }
      unscatter(block_rows[j], 0, 1);
    }
    for (std::size_t w = 0; w < stale; ++w) {
      stats_.bytes_streamed += block * X_.row(base + rows[w]).size() * sizeof(svmdata::Feature);
      accum[w] += block_partials_[w];
    }
  } else {
    // Scatter each stale row once; stream the whole block against it —
    // exactly the streaming query-scope orientation, batched. Circulating
    // rows may be wider than this rank's matrix; features beyond cols cannot
    // intersect the scattered query (same exactness argument as query_row).
    std::uint64_t block_bytes = 0;
    for (std::size_t j = 0; j < block; ++j)
      block_bytes += block_rows[j].size() * sizeof(svmdata::Feature);
    const std::size_t cols = X_.cols();
    const auto last = static_cast<std::ptrdiff_t>(block);
    const auto dot_row = [&](std::size_t j) {
      double d = 0.0;
      for (const svmdata::Feature& f : block_rows[j]) {
        const auto idx = static_cast<std::size_t>(f.index);
        if (idx < cols) d += f.value * dense_[idx];
      }
      return d;
    };
    for (std::size_t w = 0; w < stale; ++w) {
      const std::size_t g = base + rows[w];
      const auto stale_row = X_.row(g);
      const double sq_stale = sq_norm(g);
      scatter(stale_row, 0, 1);
      stats_.scatter_builds += 1;
      stats_.bytes_streamed += block_bytes;
      double partial = 0.0;
      if (parallel) {
        // K values land in a scratch in parallel, then the coefficient
        // reduction walks them serially in increasing j order so the partial
        // matches the sequential loop bitwise.
        block_kvals_.resize(block);
#pragma omp parallel for schedule(static)
        for (std::ptrdiff_t k = 0; k < last; ++k) {
          const auto j = static_cast<std::size_t>(k);
          block_kvals_[j] = kernel_.finish_from_dot(dot_row(j), block_sq_norms[j], sq_stale);
        }
        for (std::size_t j = 0; j < block; ++j) partial += block_coeffs[j] * block_kvals_[j];
      } else {
        // Fused single pass, same accumulation order (and bit pattern) as
        // the scratch variant without its extra memory sweep.
        for (std::size_t j = 0; j < block; ++j)
          partial +=
              block_coeffs[j] * kernel_.finish_from_dot(dot_row(j), block_sq_norms[j], sq_stale);
      }
      unscatter(stale_row, 0, 1);
      accum[w] += partial;
    }
  }
  kernel_.note_evaluations(stale * block);
}

void KernelEngine::eval_block_rows(std::span<const std::span<const svmdata::Feature>> queries,
                                   std::span<const double> query_sq_norms,
                                   std::span<const double> coeffs, std::span<double> out,
                                   bool parallel) {
  svmobs::TraceSpan span("engine_predict_batch", "kernel");
  // Each query is exactly one accumulate_rows scope (bit-identical by
  // construction); batching here buys the serving batcher one engine call
  // per micro-batch and, under simd, one store sweep per query instead of a
  // per-support-vector scatter loop.
  for (std::size_t q = 0; q < queries.size(); ++q)
    out[q] = accumulate_rows(queries[q], query_sq_norms[q], coeffs, parallel);
}

void KernelEngine::begin_query(std::span<const svmdata::Feature> query, double sq_query) {
  query_ = query;
  query_sq_ = sq_query;
  query_active_ = true;
  if (backend_ != EngineBackend::reference) {
    ensure_dense(1);
    scatter(query, 0, 1);
    stats_.scatter_builds += 1;
  }
}

double KernelEngine::query_row(std::span<const svmdata::Feature> row, double sq_row) {
  stats_.single_evals += 1;
  stats_.bytes_streamed += row.size() * sizeof(svmdata::Feature);
  if (backend_ == EngineBackend::reference)
    return kernel_.eval(row, query_, sq_row, query_sq_);
  const std::size_t cols = X_.cols();
  double d = 0.0;
  // Streamed rows may come from other ranks (ring blocks) and exceed this
  // matrix's column count; such features cannot intersect the query, so
  // skipping them is exact.
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) d += f.value * dense_[idx];
  }
  kernel_.note_evaluations(1);
  return kernel_.finish_from_dot(d, sq_row, query_sq_);
}

void KernelEngine::end_query() {
  if (query_active_ && backend_ != EngineBackend::reference) unscatter(query_, 0, 1);
  query_ = {};
  query_active_ = false;
}

void KernelEngine::set_row_scale(std::span<const double> scale) {
  scale_.assign(scale.begin(), scale.end());
  if (cache_) cache_->clear();  // cached rows bake the scale in
}

void KernelEngine::fill_k_row(std::size_t i, std::size_t len, bool parallel, float* out) {
  const auto qrow = X_.row(i);
  const double sq_i = sq_norm(i);
  const bool scaled = !scale_.empty();
  const double s_i = scaled ? scale_[i] : 1.0;
  const auto last = static_cast<std::ptrdiff_t>(len);
  stats_.single_evals += len;
  for (std::size_t j = 0; j < len; ++j)
    stats_.bytes_streamed += X_.row(j).size() * sizeof(svmdata::Feature);

  if (backend_ == EngineBackend::reference) {
#pragma omp parallel for schedule(static) if (parallel)
    for (std::ptrdiff_t k = 0; k < last; ++k) {
      const auto j = static_cast<std::size_t>(k);
      const double kij = kernel_.eval(qrow, X_.row(j), sq_i, sq_norm(j));
      out[j] = static_cast<float>(scaled ? s_i * scale_[j] * kij : kij);
    }
    return;
  }

  ensure_dense(1);
  scatter(qrow, 0, 1);
  stats_.scatter_builds += 1;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t k = 0; k < last; ++k) {
    const auto j = static_cast<std::size_t>(k);
    double d = 0.0;
    for (const svmdata::Feature& f : X_.row(j))
      d += f.value * dense_[static_cast<std::size_t>(f.index)];
    const double kij = kernel_.finish_from_dot(d, sq_i, sq_norm(j));
    out[j] = static_cast<float>(scaled ? s_i * scale_[j] * kij : kij);
  }
  kernel_.note_evaluations(len);
  unscatter(qrow, 0, 1);
}

std::span<const float> KernelEngine::k_row_floats(std::size_t i, std::size_t len,
                                                  bool parallel) {
  if (svmobs::trace_enabled() && ++k_row_calls_ % kCacheCounterStride == 0 && cache_)
    svmobs::trace_counter("kernel_cache_hit_rate", cache_->hit_rate());
  if (cache_) {
    const std::span<const float> hit = cache_->lookup(i);
    if (hit.size() >= len) return hit.first(len);
    row_scratch_.resize(len);
    fill_k_row(i, len, parallel, row_scratch_.data());
    cache_->insert(i, row_scratch_);
    return cache_->lookup(i).first(len);  // re-lookup pins the fresh row
  }
  row_scratch_.resize(len);
  fill_k_row(i, len, parallel, row_scratch_.data());
  return std::span<const float>(row_scratch_).first(len);
}

// --- simd backend helpers ---------------------------------------------------

void KernelEngine::fill_query_vec(std::vector<double>& buf,
                                  std::span<const svmdata::Feature> row) {
  const std::size_t cols = X_.cols();
  // Kept all-zero between uses (clear_query_vec), so resize only zero-fills
  // growth. Query features beyond the matrix's columns cannot intersect any
  // stored row; skipping them is exact (same argument as scatter()).
  if (buf.size() < cols) buf.resize(cols, 0.0);
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) buf[idx] = f.value;
  }
  stats_.scatter_builds += 1;
}

void KernelEngine::clear_query_vec(std::vector<double>& buf,
                                   std::span<const svmdata::Feature> row) {
  const std::size_t cols = X_.cols();
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) buf[idx] = 0.0;
  }
}

void KernelEngine::simd_pair_indexed(std::span<const std::uint32_t> rows, std::size_t base,
                                     double sq_up, double sq_low, std::span<double> out_up,
                                     std::span<double> out_low) {
  store_->prepare_query(qa_vec_, qb_vec_);
  constexpr std::size_t kP = RowStore::kPanel;
  std::size_t cur = static_cast<std::size_t>(-1);
  double oa[kP];
  double ob[kP];
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::size_t local = base + rows[k] - norm_begin_;
    const std::size_t p = local / kP;
    if (p != cur) {
      store_->panel_dots(p, oa, ob);
      stats_.panel_dots += 1;
      cur = p;
    }
    const std::size_t lane = local % kP;
    const double sq = store_sq(local);
    out_up[k] = kernel_.finish_from_dot(oa[lane], sq_up, sq);
    out_low[k] = kernel_.finish_from_dot(ob[lane], sq_low, sq);
  }
}

void KernelEngine::simd_pair_range(std::size_t begin, std::size_t end, double sq_up,
                                   double sq_low, std::span<double> out_up,
                                   std::span<double> out_low, bool parallel) {
  store_->prepare_query(qa_vec_, qb_vec_);
  constexpr std::size_t kP = RowStore::kPanel;
  const std::size_t lo = begin - norm_begin_;
  const std::size_t hi = end - norm_begin_;
  const auto plo = static_cast<std::ptrdiff_t>(lo / kP);
  const auto phi = static_cast<std::ptrdiff_t>((hi + kP - 1) / kP);
  // Panels are independent given the prepared (read-only) query state, so
  // the panel loop parallelizes cleanly; per-thread stack outputs.
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t pp = plo; pp < phi; ++pp) {
    const auto p = static_cast<std::size_t>(pp);
    double oa[kP];
    double ob[kP];
    store_->panel_dots(p, oa, ob);
    const std::size_t first = std::max(lo, p * kP);
    const std::size_t last = std::min(hi, (p + 1) * kP);
    for (std::size_t local = first; local < last; ++local) {
      const std::size_t lane = local - p * kP;
      const double sq = store_sq(local);
      out_up[local - lo] = kernel_.finish_from_dot(oa[lane], sq_up, sq);
      out_low[local - lo] = kernel_.finish_from_dot(ob[lane], sq_low, sq);
    }
  }
  stats_.panel_dots += static_cast<std::uint64_t>(phi - plo);
}

void KernelEngine::simd_single_range(std::size_t begin, std::size_t end, double sq_query,
                                     std::span<double> out, bool parallel) {
  store_->prepare_query(qa_vec_);
  constexpr std::size_t kP = RowStore::kPanel;
  const std::size_t lo = begin - norm_begin_;
  const std::size_t hi = end - norm_begin_;
  const auto plo = static_cast<std::ptrdiff_t>(lo / kP);
  const auto phi = static_cast<std::ptrdiff_t>((hi + kP - 1) / kP);
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t pp = plo; pp < phi; ++pp) {
    const auto p = static_cast<std::size_t>(pp);
    double d[kP];
    store_->panel_dots(p, d);
    const std::size_t first = std::max(lo, p * kP);
    const std::size_t last = std::min(hi, (p + 1) * kP);
    for (std::size_t local = first; local < last; ++local)
      out[local - lo] = kernel_.finish_from_dot(d[local - p * kP], sq_query, store_sq(local));
  }
  stats_.panel_dots += static_cast<std::uint64_t>(phi - plo);
}

double KernelEngine::accumulate_rows(std::span<const svmdata::Feature> query,
                                     double sq_query, std::span<const double> coeffs,
                                     bool parallel) {
  svmobs::TraceSpan span("engine_row_batch", "kernel");
  const std::size_t n = coeffs.size();

  if (backend_ != EngineBackend::simd) {
    // The historical model-scoring loop, term by term: one streaming query
    // scope, rows ascending. query_row does the per-row stats/counters.
    (void)parallel;
    begin_query(query, sq_query);
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t g = norm_begin_ + j;
      sum += coeffs[j] * query_row(X_.row(g), sq_norm(g));
    }
    end_query();
    return sum;
  }

  // Panel sweep with an ordered (ascending-row) coefficient reduction: same
  // per-term operations and order as the scalar loop above, so f64 stays
  // bit-identical. The reduction order requirement rules out parallelism.
  (void)parallel;
  stats_.single_evals += n;
  stats_.bytes_streamed += n * store_->row_bytes();
  constexpr std::size_t kP = RowStore::kPanel;
  fill_query_vec(qa_vec_, query);
  store_->prepare_query(qa_vec_);
  double sum = 0.0;
  double d[kP];
  const std::size_t panels = (n + kP - 1) / kP;
  for (std::size_t p = 0; p < panels; ++p) {
    store_->panel_dots(p, d);
    const std::size_t lim = std::min(n - p * kP, kP);
    for (std::size_t l = 0; l < lim; ++l) {
      const std::size_t j = p * kP + l;
      sum += coeffs[j] * kernel_.finish_from_dot(d[l], sq_query, store_sq(j));
    }
  }
  stats_.panel_dots += panels;
  kernel_.note_evaluations(n);
  clear_query_vec(qa_vec_, query);
  return sum;
}

}  // namespace svmkernel
