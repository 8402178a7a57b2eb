// Rendezvous engine for collective operations. All ranks of a communicator
// enter run() with a byte contribution; the last arriver applies `combine`
// over the contributions *in rank order* (making reductions bitwise
// deterministic regardless of thread scheduling), then every rank copies the
// result out.
//
// Rounds are lock-free on the fault-free path. Each rank counts its own
// rounds; round k uses slot k % 2, so a rank can enter round k+2 (reusing
// round k's slot) only after every rank has arrived at round k+1, i.e. after
// every rank has left round k. Arrival is one atomic fetch_add; the last
// arriver combines and publishes the round number with release semantics.
// Waiters spin for a bounded time (spin.hpp) and then park on a condition
// variable, where abort, poke() and the deadline are observed exactly as on
// the spin path.
//
// Executing collectives through shared memory is a property of the simulation
// substrate; their *modeled* cost is charged separately using the NetModel
// formulas for the tree/ring algorithms a real MPI would run (see comm.cpp).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace svmmpi {

class CollectiveContext {
 public:
  using Combine =
      std::function<std::vector<std::byte>(const std::vector<std::vector<std::byte>>&)>;

  /// `timeout_s` > 0 bounds each rendezvous wait, counted from entry to
  /// run(): if the other ranks fail to arrive within the deadline, run()
  /// throws TimeoutError instead of deadlocking. 0 = wait forever.
  explicit CollectiveContext(int size, double timeout_s = 0.0);

  /// Collective rendezvous; every rank must call with the same combine
  /// semantics. Returns the combined result. Throws WorldAborted on abort
  /// and TimeoutError when the rendezvous deadline elapses. When `interrupt`
  /// is provided and becomes true while waiting (evaluated on entry to the
  /// wait and again after every poke()), run throws RendezvousInterrupted —
  /// the elastic path wakes a rendezvous whose member has been marked failed
  /// without waiting out the deadline. The abandoned round's state is not
  /// recycled; after a failure the surviving ranks continue on a fresh
  /// context (Comm::shrink), never this one.
  [[nodiscard]] std::vector<std::byte> run(int rank, std::vector<std::byte> contribution,
                                           const Combine& combine,
                                           const std::function<bool()>& interrupt = {});

  /// ULFM-style fault-tolerant agreement (MPI_Comm_agree): completes when
  /// every rank has either contributed or is reported dead by `dead_local`
  /// (group-local ranks; re-evaluated as failures are marked — see poke()).
  /// Returns the sorted union of every contributor's `values`. Callers fold
  /// the currently-known dead set into their own contribution, and the
  /// finalizer adds `late_values()` (the dead set as of completion) so a rank
  /// marked failed after the last survivor contributed is still agreed on.
  /// Unlike run(), this never consults the fault injector — agreement is a
  /// recovery operation, not a fault site. Runs entirely under the mutex.
  [[nodiscard]] std::vector<int> agree(int rank, const std::vector<int>& values,
                                       const std::function<std::vector<int>()>& dead_local,
                                       const std::function<std::vector<int>()>& late_values);

  void abort();

  /// Wakes all waiters, spinning or parked, so interrupt/dead-set predicates
  /// are re-evaluated.
  void poke();

  [[nodiscard]] int size() const noexcept { return size_; }

 private:
  using Clock = std::chrono::steady_clock;
  enum class Phase { collecting, distributing };

  /// One round's shared state; round k lives in slots_[k % 2].
  struct alignas(64) Slot {
    std::vector<std::vector<std::byte>> contributions;
    std::vector<std::byte> result;
    std::atomic<int> arrived{0};
    std::atomic<int> departed{0};
    std::uint64_t flow_id = 0;  ///< trace flow id of the round (traced runs)
  };

  /// A rank's own round counter; only that rank's thread touches it.
  struct alignas(64) RankCursor {
    std::uint64_t round = 0;
  };

  /// Blocks until round `round` completes: spins, then parks. Throws
  /// WorldAborted, RendezvousInterrupted or TimeoutError.
  void await_round(int rank, std::uint64_t round, Clock::time_point entry,
                   const std::function<bool()>& interrupt);

  /// Waits on `turnstile_` until `ready` holds; honours the deadline counted
  /// from `start`. The caller checks abort.
  template <typename Predicate>
  void wait_or_timeout(std::unique_lock<std::mutex>& lock, int rank, Predicate ready,
                       const char* what_op, Clock::time_point start);

  std::mutex mutex_;
  std::condition_variable turnstile_;
  int size_;
  double timeout_s_ = 0.0;
  std::array<Slot, 2> slots_;
  std::vector<RankCursor> cursors_;
  alignas(64) std::atomic<std::uint64_t> completed_{0};  ///< rounds completed so far
  std::atomic<std::uint64_t> wakes_{0};  ///< bumped by poke() and abort()
  std::atomic<int> parked_{0};           ///< waiters blocked on turnstile_
  std::atomic<bool> aborted_{false};

  // agree() rounds keep separate state so a dirty, abandoned run() round
  // (survivors threw out of it when a member died) cannot wedge the
  // agreement that follows it on the same context.
  std::vector<std::uint8_t> agree_arrived_;
  std::vector<std::vector<int>> agree_values_;
  std::vector<int> agree_result_;
  int agree_departed_ = 0;
  Phase agree_phase_ = Phase::collecting;
};

}  // namespace svmmpi
