// Per-layer measurements that do not come from a workload's own calls:
// direct probes that time one layer in isolation on the workload's data,
// and the reduction of the svmobs trace recorded around a traced call.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "core/model.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel.hpp"
#include "obs/analyze.hpp"

namespace perfbench {

/// A recorded svmobs trace, reduced: the causal round attribution from
/// svmobs::analyze_trace, plus per-span-name durations (summed per rank,
/// then averaged over the ranks that emitted the span) and the last sample
/// of the kernel-cache hit-rate counter track.
struct TraceSummary {
  svmobs::TraceAnalysis analysis;
  std::map<std::string, double> span_seconds;
  double cache_hit_rate = 0.0;  ///< 0 when no engine kept a row cache
  std::size_t events = 0;

  [[nodiscard]] double span(const std::string& name) const {
    const auto it = span_seconds.find(name);
    return it == span_seconds.end() ? 0.0 : it->second;
  }
};

/// Starts a fresh svmobs recording (events per thread bounded).
void begin_trace(std::size_t events_per_thread);
/// Stops the recording and drops it.
void discard_trace();
/// Stops the recording and reduces it. Throws std::runtime_error when the
/// analysis reports errors.
[[nodiscard]] TraceSummary end_trace();

/// Microseconds per SMO-iteration collective triple (allreduce_minloc +
/// allreduce_maxloc + a bcast of `bcast_bytes`) at 4 ranks, median over
/// batches run for about `seconds`.
[[nodiscard]] double probe_collective_us(std::size_t bcast_bytes, double seconds);

/// Bytes of the bcast that ships one SMO working pair drawn from `data`
/// (the packed up/low samples).
[[nodiscard]] std::size_t working_pair_bytes(const svmdata::Dataset& data);

/// Nanoseconds per row of KernelEngine::eval_pair_rows (the fused up/low
/// gamma-update kernel) over every row of `data`, median over batches.
[[nodiscard]] double probe_pair_ns(const svmdata::Dataset& data,
                                   const svmkernel::KernelParams& kernel, double seconds);

/// Nanoseconds per KernelEngine::eval_block_rows call scoring one serving
/// batch of `batch` rows of `queries` against all of `model`'s support
/// vectors, median over batches.
[[nodiscard]] double probe_block_ns(const svmcore::SvmModel& model,
                                    const svmdata::CsrMatrix& queries, std::size_t batch,
                                    double seconds);

/// Serialized size of one rank's checkpoint holding `local_samples` samples.
[[nodiscard]] std::size_t checkpoint_bytes(std::size_t local_samples);

/// Microseconds per CheckpointStore::save of such a checkpoint into a
/// 4-rank in-memory store (buddy replication on, as training uses it).
[[nodiscard]] double probe_checkpoint_save_us(std::size_t local_samples, double seconds);

}  // namespace perfbench
