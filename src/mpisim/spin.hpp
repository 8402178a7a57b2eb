// Bounded spin-wait shared by the collective rounds and the mailbox pops.
// Ranks are threads of one process, so a waiter whose peer is a few
// microseconds behind is cheaper to keep on-CPU than to park on a condition
// variable (a futex sleep/wake pair costs ~10 µs). The spin is bounded in
// time; once the budget is spent the caller parks on its condition variable.
//
// Spinning only pays while every rank has a core of its own. When the cores
// are oversubscribed — more ranks than cores, or other processes competing
// for them — a spinning waiter keeps a core the straggler it waits for needs,
// and the scheduler then treats every rank as CPU-bound, so a straggler sits
// out whole time slices. SpinGovernor watches how often spins miss and turns
// spinning off while they mostly do; waits then park at once.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace svmmpi {

/// How long a blocked rank spins before it parks. Long enough to cover one
/// SMO iteration's imbalance at container scale, short enough that a waiter
/// stalled on a genuinely slow peer gives its core back quickly.
inline constexpr std::chrono::microseconds kSpinBudget{50};

namespace detail {

/// Probes issued with `pause` between two clock reads.
inline constexpr int kPauseProbes = 64;
/// A gap this long between two clock reads of a spin means the waiter was
/// descheduled: its core is contended.
inline constexpr std::chrono::microseconds kPreemptGap{20};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Process-wide decision whether waits spin. Spins are judged in windows of
/// kWindow attempts; a spin that ran out of budget or was descheduled is a
/// miss. A window with more than a quarter misses means the cores are
/// contended, and spinning stops for a cool-down that doubles with every
/// further bad window (kMinCoolDown up to kMaxCoolDown) and halves with every
/// good one. Process-wide, because contention is a property of the machine
/// and rank threads live only as long as one SPMD region.
class SpinGovernor {
 public:
  static constexpr std::uint64_t kWindow = 128;
  static constexpr std::chrono::milliseconds kMinCoolDown{10};
  static constexpr std::chrono::milliseconds kMaxCoolDown{1000};

  [[nodiscard]] bool allowed(std::chrono::steady_clock::time_point now) const noexcept {
    return now.time_since_epoch().count() >= resume_at_.load(std::memory_order_relaxed);
  }

  void record(bool hit, std::chrono::steady_clock::time_point now) noexcept {
    if (!hit) misses_.fetch_add(1, std::memory_order_relaxed);
    if (attempts_.fetch_add(1, std::memory_order_relaxed) % kWindow != kWindow - 1) return;
    const std::uint64_t misses = misses_.exchange(0, std::memory_order_relaxed);
    auto cool_down = std::chrono::milliseconds(cool_down_ms_.load(std::memory_order_relaxed));
    if (misses * 4 > kWindow) {
      resume_at_.store((now + cool_down).time_since_epoch().count(), std::memory_order_relaxed);
      cool_down = std::min(cool_down * 2, kMaxCoolDown);
    } else {
      cool_down = std::max(cool_down / 2, kMinCoolDown);
    }
    cool_down_ms_.store(cool_down.count(), std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> attempts_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::int64_t> resume_at_{0};  ///< steady_clock ticks
  std::atomic<std::int64_t> cool_down_ms_{kMinCoolDown.count()};
};

inline SpinGovernor& spin_governor() noexcept {
  static SpinGovernor governor;
  return governor;
}

/// Polls `ready` until it returns true (returns true) or `kSpinBudget` has
/// elapsed since `start` or the spin was descheduled (returns ready()).
/// Returns ready() at once, without spinning, while the governor says the
/// cores are contended.
template <typename Ready>
[[nodiscard]] bool spin_until(Ready&& ready, std::chrono::steady_clock::time_point start) {
  SpinGovernor& governor = spin_governor();
  if (!governor.allowed(start)) return ready();
  const auto end = start + kSpinBudget;
  auto last = std::chrono::steady_clock::now();
  for (int probe = 1;; ++probe) {
    if (ready()) {
      governor.record(true, last);
      return true;
    }
    cpu_relax();
    if (probe % kPauseProbes != 0) continue;
    const auto now = std::chrono::steady_clock::now();
    if (now - last > kPreemptGap || now >= end) {
      governor.record(false, now);
      return ready();
    }
    last = now;
  }
}

}  // namespace detail
}  // namespace svmmpi
