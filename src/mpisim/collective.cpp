#include "mpisim/collective.hpp"

#include <algorithm>
#include <chrono>

#include "mpisim/fault.hpp"
#include "mpisim/mailbox.hpp"
#include "mpisim/spin.hpp"
#include "mpisim/world.hpp"
#include "obs/trace.hpp"

namespace svmmpi {

namespace {
/// Collectives have no (source, tag); TimeoutError carries this sentinel.
constexpr int kCollectivePeer = -2;
}  // namespace

CollectiveContext::CollectiveContext(int size, double timeout_s)
    : size_(size),
      timeout_s_(timeout_s),
      cursors_(size),
      agree_arrived_(size, 0),
      agree_values_(size) {
  for (Slot& slot : slots_) slot.contributions.resize(size);
}

template <typename Predicate>
void CollectiveContext::wait_or_timeout(std::unique_lock<std::mutex>& lock, int rank,
                                        Predicate ready, const char* what_op,
                                        Clock::time_point start) {
  if (timeout_s_ <= 0.0) {
    turnstile_.wait(lock, ready);
    return;
  }
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(timeout_s_));
  if (!turnstile_.wait_until(lock, deadline, ready))
    throw TimeoutError(rank, kCollectivePeer, kCollectivePeer, timeout_s_, what_op);
}

std::vector<std::byte> CollectiveContext::run(int rank, std::vector<std::byte> contribution,
                                              const Combine& combine,
                                              const std::function<bool()>& interrupt) {
  const Clock::time_point entry = Clock::now();
  if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
  const std::uint64_t round = cursors_[rank].round++;
  Slot& slot = slots_[round & 1];
  // Round k-2 left this slot before any rank could finish round k-1, and
  // this rank has finished round k-1, so the slot is ours to fill.
  slot.contributions[rank] = std::move(contribution);

  std::unique_lock<std::mutex> flow_lock;
  if (size_ > 1 && svmobs::trace_enabled()) {
    // Causal flow for the round, emitted at the deposit point inside the
    // caller's open collective span (so the events bind to it). The FIRST
    // arriver starts the flow; every later arriver finishes it at its own
    // arrival time — the analyzer recovers each member's arrival, and the
    // max-timestamp member is the round's straggler. Traced arrivals take the
    // mutex so arrival order and flow order agree; untraced ones never do.
    // Size-1 communicators skip the flow: a start could never match a finish
    // on another rank.
    flow_lock = std::unique_lock(mutex_);
    if (slot.arrived.load(std::memory_order_relaxed) == 0) {
      slot.flow_id = acquire_flow_id();
      svmobs::trace_flow_start("collective_round", "flow", slot.flow_id);
    } else {
      svmobs::trace_flow_finish("collective_round", "flow", slot.flow_id);
    }
  }
  const int arrived_before = slot.arrived.fetch_add(1, std::memory_order_acq_rel);
  if (flow_lock) flow_lock.unlock();

  if (arrived_before == size_ - 1) {
    // Last arriver: every contribution happens-before this point through
    // the arrival counter's release sequence.
    slot.arrived.store(0, std::memory_order_relaxed);
    slot.result = combine(slot.contributions);
    for (auto& c : slot.contributions) c = std::vector<std::byte>();
    completed_.store(round + 1);
    // Pairs with the parked waiter's increment-then-check under the mutex:
    // either it sees the new round, or we see it parked and wake it.
    if (parked_.load() > 0) {
      { std::lock_guard lock(mutex_); }
      turnstile_.notify_all();
    }
  } else {
    await_round(rank, round, entry, interrupt);
  }

  std::vector<std::byte> out = slot.result;
  // The last rank out frees the result, so a large allgatherv payload does
  // not outlive its round.
  if (slot.departed.fetch_add(1, std::memory_order_acq_rel) == size_ - 1) {
    slot.departed.store(0, std::memory_order_relaxed);
    slot.result = std::vector<std::byte>();
  }
  return out;
}

void CollectiveContext::await_round(int rank, std::uint64_t round, Clock::time_point entry,
                                    const std::function<bool()>& interrupt) {
  // The interrupt predicate is evaluated once on entry and then only after a
  // poke()/abort() bumps wakes_: every event that can flip it (a member
  // marked failed, the context cancelled) pokes every context.
  bool interrupted = false;
  bool first_probe = true;
  std::uint64_t seen_wakes = 0;
  const auto ready = [&] {
    if (completed_.load() > round || aborted_.load(std::memory_order_acquire)) return true;
    const std::uint64_t wakes = wakes_.load(std::memory_order_acquire);
    if (!first_probe && wakes == seen_wakes) return false;
    first_probe = false;
    seen_wakes = wakes;
    interrupted = interrupt && interrupt();
    return interrupted;
  };
  if (!detail::spin_until(ready, entry)) {
    std::unique_lock lock(mutex_);
    parked_.fetch_add(1);
    try {
      wait_or_timeout(lock, rank, ready, "collective rendezvous", entry);
    } catch (...) {
      parked_.fetch_sub(1);
      throw;
    }
    parked_.fetch_sub(1);
  }
  if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
  // A completed round always wins over the interrupt: if the member died
  // after contributing, this round's result is still well-defined.
  if (interrupted && completed_.load() <= round) throw RendezvousInterrupted{};
}

std::vector<int> CollectiveContext::agree(int rank, const std::vector<int>& values,
                                          const std::function<std::vector<int>()>& dead_local,
                                          const std::function<std::vector<int>()>& late_values) {
  std::unique_lock lock(mutex_);
  wait_or_timeout(
      lock, rank, [&] { return aborted_.load() || agree_phase_ == Phase::collecting; },
      "agreement (previous round drain)", Clock::now());
  if (aborted_) throw WorldAborted{};

  agree_arrived_[rank] = 1;
  agree_values_[rank] = values;

  // Complete once every rank has contributed or is known dead. The dead set
  // is re-evaluated on every wake (World::mark_failed pokes this context), so
  // a second failure during the agreement cannot wedge it.
  const auto complete = [&] {
    if (aborted_.load() || agree_phase_ == Phase::distributing) return true;
    const std::vector<int> dead = dead_local();
    for (int r = 0; r < size_; ++r) {
      if (agree_arrived_[r]) continue;
      if (std::find(dead.begin(), dead.end(), r) == dead.end()) return false;
    }
    return true;
  };
  wait_or_timeout(lock, rank, complete, "agreement rendezvous", Clock::now());
  if (aborted_) throw WorldAborted{};

  if (agree_phase_ != Phase::distributing) {
    // First waker that observes completion finalizes the round for everyone.
    std::vector<int> united;
    for (int r = 0; r < size_; ++r)
      united.insert(united.end(), agree_values_[r].begin(), agree_values_[r].end());
    const std::vector<int> late = late_values();
    united.insert(united.end(), late.begin(), late.end());
    std::sort(united.begin(), united.end());
    united.erase(std::unique(united.begin(), united.end()), united.end());
    agree_result_ = std::move(united);
    agree_phase_ = Phase::distributing;
    turnstile_.notify_all();
  }

  std::vector<int> out = agree_result_;
  ++agree_departed_;
  int contributed = 0;
  for (int r = 0; r < size_; ++r) contributed += agree_arrived_[r] ? 1 : 0;
  if (agree_departed_ == contributed) {
    std::fill(agree_arrived_.begin(), agree_arrived_.end(), 0);
    for (auto& v : agree_values_) v.clear();
    agree_result_.clear();
    agree_departed_ = 0;
    agree_phase_ = Phase::collecting;
    turnstile_.notify_all();
  }
  return out;
}

void CollectiveContext::abort() {
  aborted_.store(true);
  poke();
}

void CollectiveContext::poke() {
  wakes_.fetch_add(1);
  // Taking the mutex orders the bump before any parked waiter's predicate
  // check, so the wake-up cannot be lost between check and wait.
  { std::lock_guard lock(mutex_); }
  turnstile_.notify_all();
}

}  // namespace svmmpi
