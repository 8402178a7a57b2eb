#include "layers.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/sample_block.hpp"
#include "core/types.hpp"
#include "harness.hpp"
#include "kernel/kernel_engine.hpp"
#include "mpisim/spmd.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

/// Runs `batch` until about `seconds` have passed (at least three batches)
/// and returns the median of `batch`'s per-call cost divided by `per_batch`.
template <typename Batch>
double median_cost(double seconds, double per_batch, Batch&& batch) {
  std::vector<double> costs;
  const Clock::time_point start = Clock::now();
  while (costs.size() < 3 || seconds_since(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    batch();
    costs.push_back(seconds_since(t0) / per_batch);
  }
  return median(costs);
}

double number_of(const svmobs::JsonValue& event, const char* key) {
  const svmobs::JsonValue* v = event.find(key);
  return v != nullptr && v->is(svmobs::JsonType::number) ? v->number : 0.0;
}

/// Per-span-name durations and the last cache hit-rate sample, from the
/// Chrome trace events (B/E pairs nest per rank track).
void reduce_spans(const std::string& json, TraceSummary& out) {
  const svmobs::JsonValue root = svmobs::parse_json(json);
  const svmobs::JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is(svmobs::JsonType::array))
    throw std::runtime_error("trace has no traceEvents array");
  out.events = events->array.size();

  std::map<std::int64_t, std::vector<std::pair<std::string, double>>> open;  // per rank
  std::map<std::string, std::map<std::int64_t, double>> per_rank;            // name -> rank -> s
  std::map<std::int64_t, double> hit_rate;
  for (const svmobs::JsonValue& e : events->array) {
    const svmobs::JsonValue* ph = e.find("ph");
    const svmobs::JsonValue* name = e.find("name");
    if (ph == nullptr || name == nullptr) continue;
    const auto rank = static_cast<std::int64_t>(number_of(e, "pid"));
    const double ts_s = number_of(e, "ts") * 1e-6;
    if (ph->string == "B") {
      open[rank].emplace_back(name->string, ts_s);
    } else if (ph->string == "E") {
      auto& stack = open[rank];
      if (stack.empty()) continue;
      per_rank[stack.back().first][rank] += ts_s - stack.back().second;
      stack.pop_back();
    } else if (ph->string == "C" && name->string == "kernel_cache_hit_rate") {
      const svmobs::JsonValue* args = e.find("args");
      if (args != nullptr) hit_rate[rank] = number_of(*args, "value");
    }
  }
  for (const auto& [span, ranks] : per_rank) {
    double sum = 0.0;
    for (const auto& [rank, seconds] : ranks) sum += seconds;
    out.span_seconds[span] = sum / static_cast<double>(ranks.size());
  }
  if (!hit_rate.empty()) {
    double sum = 0.0;
    for (const auto& [rank, rate] : hit_rate) sum += rate;
    out.cache_hit_rate = sum / static_cast<double>(hit_rate.size());
  }
}

}  // namespace

void begin_trace(std::size_t events_per_thread) {
  svmobs::trace_disable();
  svmobs::trace_reset();
  svmobs::trace_enable(events_per_thread);
}

void discard_trace() {
  svmobs::trace_disable();
  svmobs::trace_reset();
}

TraceSummary end_trace() {
  svmobs::trace_disable();
  TraceSummary out;
  std::string json = svmobs::trace_json();
  svmobs::trace_reset();
  out.analysis = svmobs::analyze_trace(json);
  if (!out.analysis.ok())
    throw std::runtime_error("trace analysis failed: " + out.analysis.errors.front());
  reduce_spans(json, out);
  return out;
}

std::size_t working_pair_bytes(const svmdata::Dataset& data) {
  const std::vector<double> sq = data.X.row_squared_norms();
  svmcore::PackedSamples pair;
  pair.add(0, data.y[0], 0.0, sq[0], data.X.row(0));
  pair.add(1, data.y[1], 0.0, sq[1], data.X.row(1));
  return pair.packed_bytes();
}

double probe_collective_us(std::size_t bcast_bytes, double seconds) {
  constexpr int kRanks = 4;
  constexpr int kIterations = 500;
  return median_cost(seconds, kIterations * 1e-6, [&] {
    (void)svmmpi::run_spmd(kRanks, [&](svmmpi::Comm& comm) {
      std::vector<std::byte> payload(bcast_bytes);
      for (int i = 0; i < kIterations; ++i) {
        const auto value = static_cast<double>((comm.rank() * 7 + i) % 11);
        (void)comm.allreduce_minloc({value, comm.rank()});
        (void)comm.allreduce_maxloc({value, comm.rank()});
        payload.resize(bcast_bytes);
        comm.bcast(payload, 0);
      }
    });
  });
}

double probe_pair_ns(const svmdata::Dataset& data, const svmkernel::KernelParams& params,
                     double seconds) {
  const svmkernel::Kernel kernel(params);
  svmkernel::KernelEngine engine(kernel, data.X, svmcore::SolverParams{}.engine_backend);
  std::vector<std::uint32_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<double> out_up(rows.size());
  std::vector<double> out_low(rows.size());
  const std::size_t up = 0;
  const std::size_t low = data.size() / 2;
  return median_cost(seconds, static_cast<double>(rows.size()) * 1e-9, [&] {
    engine.eval_pair_rows(data.X.row(up), engine.sq_norm(up), data.X.row(low),
                          engine.sq_norm(low), rows, 0, out_up, out_low);
  });
}

double probe_block_ns(const svmcore::SvmModel& model, const svmdata::CsrMatrix& queries,
                      std::size_t batch, double seconds) {
  svmkernel::KernelEngine engine = model.make_engine();
  const std::vector<double> query_sq = queries.row_squared_norms();
  const std::size_t rows = std::min(batch, queries.rows());
  std::vector<std::span<const svmdata::Feature>> block;
  std::vector<double> block_sq;
  for (std::size_t q = 0; q < rows; ++q) {
    block.push_back(queries.row(q));
    block_sq.push_back(query_sq[q]);
  }
  std::vector<double> out(rows);
  return median_cost(seconds, 1e-9, [&] {
    engine.eval_block_rows(block, block_sq, model.coefficients(), out);
  });
}

namespace {

svmcore::RankCheckpoint checkpoint_of(std::size_t local_samples) {
  svmcore::RankCheckpoint c;
  c.iterations = 64;
  c.alpha.assign(local_samples, 0.5);
  c.gamma.assign(local_samples, -1.0);
  c.shrunk.assign(local_samples, 0);
  c.active.resize(local_samples);
  std::iota(c.active.begin(), c.active.end(), 0u);
  return c;
}

}  // namespace

std::size_t checkpoint_bytes(std::size_t local_samples) {
  return checkpoint_of(local_samples).serialize().size();
}

double probe_checkpoint_save_us(std::size_t local_samples, double seconds) {
  constexpr int kRanks = 4;
  constexpr int kSaves = 64;
  const svmcore::RankCheckpoint state = checkpoint_of(local_samples);
  svmcore::CheckpointStore store(kRanks);
  std::uint64_t epoch = 0;
  return median_cost(seconds, kSaves * 1e-6, [&] {
    for (int i = 0; i < kSaves; ++i) {
      ++epoch;
      for (int rank = 0; rank < kRanks; ++rank) store.save(rank, epoch, state);
    }
  }) / kRanks;
}

}  // namespace perfbench
