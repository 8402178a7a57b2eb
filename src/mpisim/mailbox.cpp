#include "mpisim/mailbox.hpp"

#include <algorithm>
#include <chrono>

#include "mpisim/fault.hpp"
#include "mpisim/spin.hpp"

namespace svmmpi {

void Mailbox::push(Message message) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(message));
  }
  events_.fetch_add(1, std::memory_order_release);
  available_.notify_all();
}

bool Mailbox::find_match_locked(int context, int source, int tag, std::size_t& index) const {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    const bool context_ok = m.context == context;
    const bool source_ok = source == kAnySource || m.source == source;
    const bool tag_ok = tag == kAnyTag || m.tag == tag;
    if (context_ok && source_ok && tag_ok) {
      index = i;
      return true;
    }
  }
  return false;
}

Message Mailbox::pop(int context, int source, int tag, const std::function<bool()>& interrupt) {
  const auto entry = std::chrono::steady_clock::now();
  std::unique_lock lock(mutex_);
  std::size_t index = 0;
  bool interrupted = false;
  // A queued matching message always wins over an interrupt: the peer's
  // message was delivered before it died, exactly as on a real network.
  const auto ready = [&] {
    if (aborted_ || find_match_locked(context, source, tag, index)) return true;
    interrupted = interrupt && interrupt();
    return interrupted;
  };
  // Spin (unlocked) on the event counter for a bounded time before parking:
  // the owner->root hop of a working-pair fetch usually lands within
  // microseconds. Every push, poke and abort bumps the counter, so the
  // predicate is re-evaluated exactly when it could have changed.
  while (!ready()) {
    const std::uint64_t seen = events_.load(std::memory_order_relaxed);
    lock.unlock();
    const bool moved = detail::spin_until(
        [&] { return events_.load(std::memory_order_acquire) != seen; }, entry);
    lock.lock();
    if (!moved) break;
  }
  if (timeout_s_ <= 0.0) {
    available_.wait(lock, ready);
  } else {
    const auto deadline = entry + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                      std::chrono::duration<double>(timeout_s_));
    if (!available_.wait_until(lock, deadline, ready))
      throw TimeoutError(owner_rank_, source, tag, timeout_s_, "blocking receive");
  }
  if (aborted_) throw WorldAborted{};
  if (interrupted && !find_match_locked(context, source, tag, index))
    throw RendezvousInterrupted{};
  Message result = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  return result;
}

bool Mailbox::pop_for(int context, int source, int tag, double deadline_s,
                      const std::function<bool()>& interrupt, Message& out) {
  std::unique_lock lock(mutex_);
  std::size_t index = 0;
  bool interrupted = false;
  // Same precedence as pop(): a queued matching message beats an interrupt —
  // the peer's message was delivered before it died.
  const auto ready = [&] {
    if (aborted_ || find_match_locked(context, source, tag, index)) return true;
    interrupted = interrupt && interrupt();
    return interrupted;
  };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(std::max(deadline_s, 0.0)));
  if (!available_.wait_until(lock, deadline, ready)) return false;
  if (aborted_) throw WorldAborted{};
  if (interrupted && !find_match_locked(context, source, tag, index))
    throw RendezvousInterrupted{};
  out = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  return true;
}

bool Mailbox::try_pop(int context, int source, int tag, Message& out) {
  std::lock_guard lock(mutex_);
  if (aborted_) throw WorldAborted{};
  std::size_t index = 0;
  if (!find_match_locked(context, source, tag, index)) return false;
  out = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  return true;
}

void Mailbox::abort() {
  {
    std::lock_guard lock(mutex_);
    aborted_ = true;
  }
  events_.fetch_add(1, std::memory_order_release);
  available_.notify_all();
}

void Mailbox::poke() {
  // Take the lock so a poke cannot slip between a waiter's predicate check
  // and its wait, which would lose the wakeup.
  { std::lock_guard lock(mutex_); }
  events_.fetch_add(1, std::memory_order_release);
  available_.notify_all();
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace svmmpi
