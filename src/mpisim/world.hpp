// World: owns the shared state for one SPMD execution — a mailbox per rank,
// the registry of collective contexts (one per communicator), the network
// cost model and per-rank traffic statistics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "mpisim/collective.hpp"
#include "mpisim/mailbox.hpp"
#include "mpisim/netmodel.hpp"

namespace svmmpi {

class Comm;
class FaultInjector;

/// Next trace flow-correlation id: process-globally monotone, starting at 1
/// (0 means "untraced" in a Message envelope). Deliberately NOT per-World so
/// ids stay unique across restarts, shrink generations and retried sends —
/// a re-sent message gets a fresh id, never a duplicate. Ids only feed trace
/// flow events; they never influence computation, so traced runs stay
/// bit-identical.
[[nodiscard]] std::uint64_t acquire_flow_id() noexcept;

class World {
 public:
  /// `injector`, when non-null, is consulted by every communication op (see
  /// fault.hpp); it must outlive the World. The model's timeout_s is applied
  /// to every mailbox pop and collective rendezvous.
  explicit World(int size, NetModel model = {}, FaultInjector* injector = nullptr);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] const NetModel& model() const noexcept { return model_; }

  /// Communicator handle spanning all ranks, bound to `rank`. Each rank's
  /// thread obtains its own handle.
  [[nodiscard]] Comm world_comm(int rank);

  /// Tears down all blocking operations; used when a rank throws so siblings
  /// do not deadlock. Idempotent.
  void abort();
  [[nodiscard]] bool aborted() const noexcept { return aborted_.load(); }

  // --- failure registry (elastic recovery) ------------------------------
  /// Records `world_rank` as dead, then wakes every blocked mailbox pop and
  /// collective rendezvous so interrupt predicates are re-evaluated. Unlike
  /// abort(), survivors keep running: their blocked ops surface RankLost (via
  /// Comm) instead of WorldAborted. `permanent` records whether the rank's
  /// process memory is unrecoverable (RankFailed::permanent). Idempotent.
  void mark_failed(int world_rank, bool permanent = true);
  [[nodiscard]] bool is_failed(int world_rank) const;
  [[nodiscard]] bool any_failed() const;
  /// True when `world_rank` was marked failed with permanent = true.
  [[nodiscard]] bool failure_is_permanent(int world_rank) const;
  /// Sorted snapshot of the dead set.
  [[nodiscard]] std::vector<int> failed_ranks() const;

  /// Memoized context allocation keyed by the (sorted) surviving group:
  /// every survivor calling with the same group gets the same context id
  /// without communicating — the shrink protocol's "communicator creation".
  /// `salt` disambiguates otherwise-identical groups across independent
  /// lifetimes: the scheduler keys each job attempt's shrink generations
  /// with a unique salt so a group that recurs (job C shrinking onto the
  /// rank set an earlier job once used) never reuses a context another
  /// tenant may have abandoned mid-collective.
  [[nodiscard]] int context_for_group(const std::vector<int>& group, std::uint64_t salt = 0);

  // --- context cancellation (scheduler watchdog) -------------------------
  /// Marks a communicator context cancelled, then wakes every blocked
  /// mailbox pop and collective rendezvous so members observe
  /// ContextCancelled instead of staying wedged. Members mid-compute pick
  /// the verdict up at their next communication op. Idempotent; a cancelled
  /// context stays cancelled for the World's lifetime (the scheduler never
  /// reuses a cancelled job attempt's context).
  void cancel_context(int id);
  [[nodiscard]] bool context_cancelled(int id) const;

  /// Per-rank statistics. Only rank `r`'s thread writes stats(r), so reads
  /// are race-free after the SPMD region joins.
  [[nodiscard]] const TrafficStats& stats(int rank) const { return stats_[rank]; }
  [[nodiscard]] TrafficStats& mutable_stats(int rank) { return stats_[rank]; }
  [[nodiscard]] TrafficStats total_stats() const;

  // --- internals used by Comm -------------------------------------------
  [[nodiscard]] Mailbox& mailbox(int world_rank) { return *mailboxes_[world_rank]; }
  [[nodiscard]] FaultInjector* injector() const noexcept { return injector_; }
  /// Contexts are never erased, so a reference stays valid for the World's
  /// lifetime (Comm resolves its context once, at construction).
  [[nodiscard]] CollectiveContext& context(int id);
  /// Allocates a new collective context for a sub-communicator of `size`
  /// ranks and returns its id. Thread-safe; called once per new group.
  [[nodiscard]] int create_context(int size);

 private:
  int size_;
  NetModel model_;
  FaultInjector* injector_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<TrafficStats> stats_;
  std::atomic<bool> aborted_{false};

  std::mutex registry_mutex_;
  std::map<int, std::unique_ptr<CollectiveContext>> contexts_;
  std::map<std::pair<std::vector<int>, std::uint64_t>, int> group_contexts_;
  int next_context_id_ = 0;

  // Fast-path flags: set (before the poke) by the first cancel/failure, so
  // the fault-free path answers context_cancelled / is_failed / any_failed
  // with one atomic load instead of taking the registry mutex.
  std::atomic<bool> any_cancelled_{false};
  std::atomic<bool> any_failed_{false};

  mutable std::mutex cancelled_mutex_;
  std::vector<int> cancelled_;  ///< sorted cancelled context ids

  mutable std::mutex failed_mutex_;
  std::vector<int> failed_;            ///< sorted world ranks marked dead
  std::vector<int> failed_permanent_;  ///< sorted subset with permanent loss
};

}  // namespace svmmpi
