#include "mpisim/world.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "mpisim/comm.hpp"

namespace svmmpi {

std::uint64_t acquire_flow_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

World::World(int size, NetModel model, FaultInjector* injector)
    : size_(size), model_(model), injector_(injector), stats_(size) {
  if (size <= 0) throw std::invalid_argument("svmmpi: world size must be positive");
  mailboxes_.reserve(size);
  for (int r = 0; r < size; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>(r, model_.timeout_s));
  // Context 0 is the world communicator's.
  (void)create_context(size);
}

Comm World::world_comm(int rank) {
  if (rank < 0 || rank >= size_) throw std::out_of_range("svmmpi: rank out of range");
  auto group = std::make_shared<std::vector<int>>(size_);
  std::iota(group->begin(), group->end(), 0);
  return Comm(this, std::move(group), rank, /*context_id=*/0);
}

void World::abort() {
  if (aborted_.exchange(true)) return;
  for (auto& box : mailboxes_) box->abort();
  std::lock_guard lock(registry_mutex_);
  for (auto& [id, ctx] : contexts_) ctx->abort();
}

void World::mark_failed(int world_rank, bool permanent) {
  if (world_rank < 0 || world_rank >= size_)
    throw std::out_of_range("svmmpi: rank out of range");
  {
    std::lock_guard lock(failed_mutex_);
    if (permanent) {
      const auto pit =
          std::lower_bound(failed_permanent_.begin(), failed_permanent_.end(), world_rank);
      if (pit == failed_permanent_.end() || *pit != world_rank)
        failed_permanent_.insert(pit, world_rank);
    }
    const auto it = std::lower_bound(failed_.begin(), failed_.end(), world_rank);
    if (it != failed_.end() && *it == world_rank) return;
    failed_.insert(it, world_rank);
    any_failed_.store(true);
  }
  // Poke OUTSIDE failed_mutex_: agree()'s dead_local predicate runs under a
  // context mutex and calls failed_ranks(); holding failed_mutex_ here while
  // taking the context mutex inside poke() would invert that order.
  for (auto& box : mailboxes_) box->poke();
  std::lock_guard lock(registry_mutex_);
  for (auto& [id, ctx] : contexts_) ctx->poke();
}

bool World::is_failed(int world_rank) const {
  if (!any_failed_.load()) return false;
  std::lock_guard lock(failed_mutex_);
  return std::binary_search(failed_.begin(), failed_.end(), world_rank);
}

bool World::any_failed() const { return any_failed_.load(); }

bool World::failure_is_permanent(int world_rank) const {
  std::lock_guard lock(failed_mutex_);
  return std::binary_search(failed_permanent_.begin(), failed_permanent_.end(), world_rank);
}

std::vector<int> World::failed_ranks() const {
  std::lock_guard lock(failed_mutex_);
  return failed_;
}

int World::context_for_group(const std::vector<int>& group, std::uint64_t salt) {
  std::lock_guard lock(registry_mutex_);
  const auto key = std::make_pair(group, salt);
  const auto it = group_contexts_.find(key);
  if (it != group_contexts_.end()) return it->second;
  const int id = next_context_id_++;
  contexts_.emplace(id, std::make_unique<CollectiveContext>(
                            static_cast<int>(group.size()), model_.timeout_s));
  group_contexts_.emplace(key, id);
  return id;
}

void World::cancel_context(int id) {
  {
    std::lock_guard lock(cancelled_mutex_);
    const auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id);
    if (it != cancelled_.end() && *it == id) return;
    cancelled_.insert(it, id);
    any_cancelled_.store(true);
  }
  // Same lock-order discipline as mark_failed: poke outside the registry of
  // cancelled ids, since waiters' predicates call context_cancelled().
  for (auto& box : mailboxes_) box->poke();
  std::lock_guard lock(registry_mutex_);
  for (auto& [ctx_id, ctx] : contexts_) ctx->poke();
}

bool World::context_cancelled(int id) const {
  if (!any_cancelled_.load()) return false;
  std::lock_guard lock(cancelled_mutex_);
  return std::binary_search(cancelled_.begin(), cancelled_.end(), id);
}

TrafficStats World::total_stats() const {
  TrafficStats total;
  for (const TrafficStats& s : stats_) total += s;
  return total;
}

CollectiveContext& World::context(int id) {
  std::lock_guard lock(registry_mutex_);
  const auto it = contexts_.find(id);
  if (it == contexts_.end()) throw std::out_of_range("svmmpi: unknown collective context");
  return *it->second;
}

int World::create_context(int size) {
  std::lock_guard lock(registry_mutex_);
  const int id = next_context_id_++;
  contexts_.emplace(id, std::make_unique<CollectiveContext>(size, model_.timeout_s));
  return id;
}

}  // namespace svmmpi
