// svmserve: fault-tolerant prediction serving with graceful overload
// degradation.
//
// Topology (one svmmpi world per service run):
//
//   rank 0                      frontend: request queue, admission control,
//                               micro-batcher, dispatch/retry/hedge logic,
//                               replica health tracking
//   rank 1 + r*shards + s       worker: replica r of shard s — a
//                               KernelEngine over the shard's contiguous
//                               slice of the model's support vectors
//
// Every replica of a shard holds the identical support-vector slice, so the
// per-shard partial sums it returns are bitwise equal across replicas — a
// failover mid-run changes WHICH rank answered, never the answer. The
// frontend combines partials in ascending shard order and subtracts beta,
// so a served decision value at shards == 1 is bit-identical to
// SvmModel::decision_value.
//
// Client threads (synthetic load, see client_load.hpp) call into the bounded
// request queue; the frontend forms micro-batches (up to batch_max, with a
// short linger), ships one serialized batch per shard, and each worker
// answers it with a single KernelEngine::eval_block_rows call.
//
// Graceful degradation, in escalation order:
//   - deadline-aware admission: a request is shed at submit time when the
//     queue is full or the predicted queue wait (queue depth / observed
//     service rate) exceeds its deadline — the queue is bounded by
//     construction and p99 of ACCEPTED requests stays bounded at any
//     offered load;
//   - optional precision shedding: when the queue crosses
//     degrade_queue_frac of capacity, batches are marked degraded and
//     workers score them against a reduced-precision (simd/f32 by default)
//     RowStore instead of the exact engine;
//   - per-dispatch timeout with capped-backoff retry, rotating across the
//     shard's replicas; a retry after a suspected-slow first attempt is
//     hedged to both replicas and the first answer wins (the loser's reply
//     is drained later — replies are tagged per batch, so a stale answer
//     can never be mistaken for a fresh one);
//   - replica failover: a dead rank (FaultPlan crash/die mid-query) wakes
//     the frontend's deadline wait via the failure registry, and the
//     shard's traffic moves to the surviving replica — zero failed
//     responses as long as one replica per shard lives;
//   - health/quarantine: per-worker EWMA service latency; a worker whose
//     EWMA exceeds quarantine_latency_factor x the fleet baseline (an
//     injected-slow rank) is ejected from the dispatch set for a cooldown,
//     then re-admitted through a hedged probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel_engine.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/netmodel.hpp"
#include "obs/metrics.hpp"
#include "serve/client_load.hpp"

namespace svmserve {

struct ServeOptions {
  int shards = 2;    ///< support-vector shards (contiguous slices)
  int replicas = 2;  ///< copies of each shard (1 = no failover)

  std::size_t queue_capacity = 64;  ///< bounded request queue
  std::size_t batch_max = 8;        ///< micro-batch size cap
  double batch_linger_s = 0.0005;   ///< wait this long to top up a short batch

  double deadline_s = 0.1;        ///< per-request latency deadline
  double admission_margin = 0.8;  ///< shed when predicted wait > margin*deadline

  double dispatch_timeout_s = 0.05;  ///< per-attempt shard-reply deadline
  int max_retries = 2;               ///< re-dispatches per shard per batch
  double retry_backoff_s = 0.002;    ///< first backoff; doubles, capped below
  double retry_backoff_cap_s = 0.01;
  double hedge_poll_s = 0.002;  ///< poll slice alternating replicas when hedged

  double quarantine_latency_factor = 8.0;   ///< EWMA > factor*baseline ejects
  double quarantine_min_baseline_s = 5e-4;  ///< floor so tiny baselines don't trip
  double quarantine_cooldown_s = 0.05;      ///< ejection duration, then probe

  bool degrade_enabled = false;      ///< precision shedding under queue pressure
  double degrade_queue_frac = 0.5;   ///< degrade when depth > frac*capacity
  svmkernel::RowFlavor degrade_flavor = svmkernel::RowFlavor::f32;

  svmkernel::RowFlavor flavor = svmkernel::RowFlavor::f64;

  /// timeout_s doubles as the workers' idle-receive backstop; must be > 0
  /// (deadline-driven failure detection, as everywhere in svmmpi).
  svmmpi::NetModel net_model{0.0, 0.0, 5.0};
  /// Injected faults for chaos runs (kept alive by the caller). Never target
  /// rank 0: the frontend is the measurement harness, not the system under
  /// fault. nullptr = fault-free.
  const svmmpi::FaultPlan* fault_plan = nullptr;

  double worker_ready_timeout_s = 5.0;  ///< startup barrier per worker

  std::string trace_path;    ///< Chrome trace out (empty = off)
  std::string metrics_path;  ///< RunReport out (empty = off)
};

/// World size a ServeOptions implies: 1 frontend + shards*replicas workers.
[[nodiscard]] int serving_world_size(const ServeOptions& options);

enum class RequestStatus : std::uint8_t {
  pending,    ///< never terminal after run_serving returns
  completed,  ///< answered within the service's lifetime
  shed,       ///< refused at admission (queue full or predicted-wait breach)
  expired,    ///< accepted but its deadline passed while queued
  failed,     ///< accepted but every replica of some shard was lost/timed out
};

struct RequestRecord {
  std::uint32_t query_row = 0;  ///< row of the query matrix this request scored
  RequestStatus status = RequestStatus::pending;
  double arrival_s = 0.0;  ///< submit time (service clock)
  double done_s = 0.0;     ///< terminal-state time (service clock)
  double latency_s = 0.0;  ///< done - arrival, completed requests only
  double decision = 0.0;   ///< signed decision value, completed only
  bool degraded = false;   ///< answered by the reduced-precision path
};

struct ServeReport {
  std::vector<RequestRecord> requests;  ///< indexed by request id (submit order)

  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_predicted_wait = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;

  std::uint64_t batches = 0;
  std::uint64_t retries = 0;    ///< per-shard dispatch re-sends after a timeout
  std::uint64_t hedges = 0;     ///< duplicate dispatches to the sibling replica
  std::uint64_t failovers = 0;  ///< dispatches redirected off a dead rank
  std::uint64_t quarantines = 0;
  std::uint64_t degraded_batches = 0;

  std::size_t max_queue_depth = 0;  ///< high-water mark; <= queue_capacity
  std::vector<int> ranks_lost;      ///< world ranks that died, ascending

  double wall_s = 0.0;
  double accepted_qps = 0.0;
  double completed_qps = 0.0;
  double latency_p50_s = 0.0;   ///< over completed requests
  double latency_p99_s = 0.0;
  double latency_p999_s = 0.0;

  svmobs::MetricsRegistry metrics;  ///< the serve.* counter/gauge set
};

/// Runs one serving session: spins up the frontend + worker world over
/// `model`, replays `load` against rows of `queries`, and tears the world
/// down once every request reached a terminal state. Blocks until done.
[[nodiscard]] ServeReport run_serving(const svmcore::SvmModel& model,
                                      const svmdata::CsrMatrix& queries, const LoadSpec& load,
                                      const ServeOptions& options);

}  // namespace svmserve
