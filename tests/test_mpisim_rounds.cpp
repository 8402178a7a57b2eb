// Lock-free collective rounds: randomized-skew stress against a serial
// oracle (parity-slot reuse, mixed payloads, p up to 16 on fewer cores), and
// the fault semantics of a waiter caught in its spin phase — interrupt via
// poke(), abort, context cancellation and the rendezvous deadline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "mpisim/spmd.hpp"

namespace {

using svmmpi::CollectiveContext;
using svmmpi::Comm;
using svmmpi::DoubleInt;
using svmmpi::NetModel;
using svmmpi::ReduceOp;
using svmmpi::World;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// --- serial oracles ----------------------------------------------------------

/// Rank q's allreduce operand in round r: magnitudes chosen so that the
/// summation order changes the rounding.
double sum_operand(int q, int r, std::size_t i) {
  return 1.0 / (3.0 + q + static_cast<double>(i)) * ((q + r) % 2 ? 1e-13 : 1.0);
}

double sum_oracle(int p, int r, std::size_t i) {
  double acc = sum_operand(0, r, i);
  for (int q = 1; q < p; ++q) acc += sum_operand(q, r, i);
  return acc;
}

std::vector<int> gather_part(int q, int r) {
  std::vector<int> part(static_cast<std::size_t>((q + r) % 5) * 3);
  for (std::size_t i = 0; i < part.size(); ++i) part[i] = q * 1000 + r + static_cast<int>(i);
  return part;
}

/// Few distinct values so value ties (broken toward the smaller index) are
/// common.
DoubleInt loc_candidate(int q, int r, int which) {
  return DoubleInt{static_cast<double>((q * 13 + r * (which + 1)) % 5), (q * 7 + r) % 11};
}

DoubleInt loc_oracle(int p, int r, int which) {
  DoubleInt best = loc_candidate(0, r, which);
  for (int q = 1; q < p; ++q) {
    const DoubleInt c = loc_candidate(q, r, which);
    const bool wins = which == 0 ? c.value < best.value : c.value > best.value;
    if (wins || (c.value == best.value && c.index < best.index)) best = c;
  }
  return best;
}

/// Arrival skew: most rounds enter back-to-back; some yield, a few sleep
/// long enough to push the peers past their spin budget into the park path.
void skew(std::mt19937_64& rng) {
  const std::uint64_t roll = rng() % 64;
  if (roll < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(20 + rng() % 120));
  } else if (roll < 8) {
    std::this_thread::yield();
  }
}

// --- stress --------------------------------------------------------------------

class RoundStressP : public ::testing::TestWithParam<int> {};

TEST_P(RoundStressP, MixedRoundsMatchTheSerialOracle) {
  const int p = GetParam();
  const int rounds = p <= 4 ? 3000 : 1200;
  std::atomic<int> mismatches{0};
  svmmpi::run_spmd(p, [&](Comm& comm) {
    const int me = comm.rank();
    std::mt19937_64 rng(0x5eed + static_cast<std::uint64_t>(me) * 7919 +
                        static_cast<std::uint64_t>(p));
    const auto check = [&](bool ok) {
      if (!ok) mismatches.fetch_add(1);
    };
    for (int r = 0; r < rounds; ++r) {
      skew(rng);
      switch (r % 4) {
        case 0: {
          const std::size_t len = 1 + static_cast<std::size_t>(r * 7 % 33);
          std::vector<double> mine(len);
          for (std::size_t i = 0; i < len; ++i) mine[i] = sum_operand(me, r, i);
          const std::vector<double> got =
              comm.allreduce(std::span<const double>(mine), ReduceOp::sum);
          check(got.size() == len);
          for (std::size_t i = 0; i < got.size(); ++i) check(got[i] == sum_oracle(p, r, i));
          break;
        }
        case 1: {
          const std::vector<int> mine = gather_part(me, r);
          const auto all = comm.allgatherv(std::span<const int>(mine));
          check(all.size() == static_cast<std::size_t>(p));
          for (int q = 0; q < p && q < static_cast<int>(all.size()); ++q)
            check(all[q] == gather_part(q, r));
          break;
        }
        case 2: {
          const int root = r % p;
          const std::size_t bytes = static_cast<std::size_t>(r % 17) * 8 + 1;
          std::vector<std::uint8_t> data;
          if (me == root) {
            data.resize(bytes);
            for (std::size_t i = 0; i < bytes; ++i) data[i] = static_cast<std::uint8_t>(r + i);
          }
          comm.bcast(data, root);
          check(data.size() == bytes);
          for (std::size_t i = 0; i < data.size(); ++i)
            check(data[i] == static_cast<std::uint8_t>(r + i));
          break;
        }
        default: {
          const svmmpi::MinMaxLoc got =
              comm.allreduce_minmaxloc(loc_candidate(me, r, 0), loc_candidate(me, r, 1));
          const DoubleInt lo = loc_oracle(p, r, 0);
          const DoubleInt hi = loc_oracle(p, r, 1);
          check(got.min.value == lo.value && got.min.index == lo.index);
          check(got.max.value == hi.value && got.max.index == hi.index);
          // The separate calls must agree with the fused one.
          const DoubleInt min_only = comm.allreduce_minloc(loc_candidate(me, r, 0));
          check(min_only.value == lo.value && min_only.index == lo.index);
          break;
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RoundStressP, ::testing::Values(2, 3, 4, 8, 16));

TEST(RoundStress, SlowCopyOutStillReadsItsOwnRound) {
  // Rank 0 stalls between its arrival and its copy-out (inside the wait, via
  // the interrupt predicate), while the others finish the round and move on
  // into the next one, which uses the other parity slot. Rank 0 must still
  // read the result of the round it arrived at.
  constexpr int kRanks = 4;
  constexpr int kRounds = 400;
  CollectiveContext context(kRanks);
  const CollectiveContext::Combine stamp = [](const std::vector<std::vector<std::byte>>& parts) {
    std::vector<std::byte> out;
    for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
    return out;
  };
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      for (int r = 0; r < kRounds; ++r) {
        const std::function<bool()> stall = [&] {
          if (rank == 0 && r % 3 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          return false;
        };
        std::vector<std::byte> mine(sizeof(int));
        const int value = r * kRanks + rank;
        std::memcpy(mine.data(), &value, sizeof(int));
        const std::vector<std::byte> got = context.run(rank, std::move(mine), stamp, stall);
        if (got.size() != kRanks * sizeof(int)) {
          mismatches.fetch_add(1);
          continue;
        }
        for (int q = 0; q < kRanks; ++q) {
          int seen = 0;
          std::memcpy(&seen, got.data() + q * sizeof(int), sizeof(int));
          if (seen != r * kRanks + q) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- faults observed while spinning ----------------------------------------------

NetModel with_timeout(double timeout_s) {
  NetModel model;
  model.timeout_s = timeout_s;
  return model;
}

/// Runs rank 0 of a 2-rank world into a barrier its peer never joins, fires
/// `fault` a moment after rank 0 entered (well inside its spin budget), and
/// returns how long rank 0 took to throw E.
template <typename E, typename Fault>
double time_to_throw(double timeout_s, Fault fault) {
  World world(2, with_timeout(timeout_s));
  std::atomic<bool> entering{false};
  std::atomic<bool> threw_expected{false};
  double elapsed = -1.0;
  std::thread rank0([&] {
    Comm comm = world.world_comm(0);
    const auto start = std::chrono::steady_clock::now();
    try {
      entering.store(true);
      comm.barrier();
    } catch (const E&) {
      threw_expected.store(true);
    } catch (...) {
    }
    elapsed = seconds_since(start);
  });
  while (!entering.load()) {
  }
  fault(world);
  rank0.join();
  EXPECT_TRUE(threw_expected.load());
  return elapsed;
}

TEST(RoundFaults, MarkFailedWakesASpinningWaiterWithRankLost) {
  const double elapsed = time_to_throw<svmmpi::RankLost>(
      10.0, [](World& world) { world.mark_failed(1, /*permanent=*/true); });
  EXPECT_LT(elapsed, 1.0);  // the interrupt, not the 10 s deadline
}

TEST(RoundFaults, AbortWakesASpinningWaiterWithWorldAborted) {
  const double elapsed =
      time_to_throw<svmmpi::WorldAborted>(10.0, [](World& world) { world.abort(); });
  EXPECT_LT(elapsed, 1.0);
}

TEST(RoundFaults, CancelContextWakesASpinningWaiterWithContextCancelled) {
  const double elapsed = time_to_throw<svmmpi::ContextCancelled>(
      10.0, [](World& world) { world.cancel_context(0); });
  EXPECT_LT(elapsed, 1.0);
}

TEST(RoundFaults, DeadlineCountsFromEntryAndFiresOnTime) {
  // Deadline 0.2 s, then Comm's grace poll (40 x 5 ms) before rethrowing.
  constexpr double kDeadline = 0.2;
  constexpr double kGracePoll = 0.2;
  const double elapsed =
      time_to_throw<svmmpi::TimeoutError>(kDeadline, [](World&) {});
  EXPECT_GE(elapsed, kDeadline);
  EXPECT_LT(elapsed, kDeadline + kGracePoll + 0.15);
}

TEST(RoundFaults, MailboxPopIsWokenByMarkFailedWhileSpinning) {
  World world(2, with_timeout(10.0));
  std::atomic<bool> entering{false};
  std::atomic<bool> lost{false};
  std::thread rank0([&] {
    Comm comm = world.world_comm(0);
    try {
      entering.store(true);
      (void)comm.recv_value<int>(1);
    } catch (const svmmpi::RankLost&) {
      lost.store(true);
    } catch (...) {
    }
  });
  while (!entering.load()) {
  }
  const auto start = std::chrono::steady_clock::now();
  world.mark_failed(1);
  rank0.join();
  EXPECT_TRUE(lost.load());
  EXPECT_LT(seconds_since(start), 1.0);
}

}  // namespace
