// Sharded insert-only concurrent hash map: Key -> TaskGraphNode*.
//
// Backs Nabbit's on-demand node creation: the exploration step atomically
// "create or get" a node for a predecessor key; exactly one thread wins
// creation. Sharding bounds contention; open addressing with linear probing
// keeps lookups allocation-free. The map owns the nodes it stores: they are
// placement-constructed into per-shard slabs (node_pool.h) and destroyed in
// place when the map dies.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nabbit/node_pool.h"
#include "nabbit/types.h"
#include "support/align.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/spin.h"

namespace nabbitc::nabbit {

class TaskGraphNode;

class ConcurrentNodeMap {
 public:
  explicit ConcurrentNodeMap(std::size_t expected_nodes = 1024);
  ~ConcurrentNodeMap();

  ConcurrentNodeMap(const ConcurrentNodeMap&) = delete;
  ConcurrentNodeMap& operator=(const ConcurrentNodeMap&) = delete;

  /// Returns (node, created). The slot is reserved under the shard lock, so
  /// exactly one thread runs `make(arena, key)` — the loser of a creation
  /// race probes once and returns the winner's node; it never constructs a
  /// speculative node (the original two-probe scheme built a full node
  /// outside the lock and destroyed it on losing). `make` must construct
  /// the node through the provided NodeArena, stay cheap (it runs under the
  /// shard spinlock), and must not reenter the map.
  template <typename Make>
  std::pair<TaskGraphNode*, bool> insert_or_get(Key key, Make&& make) {
    Shard& sh = shard_for(key);
    std::lock_guard<SpinLock> lk(sh.mu);
    if (TaskGraphNode* n = probe(sh, key)) return {n, false};
    NodeArena arena(sh.slab);
    TaskGraphNode* raw = make(arena, key);
    NABBITC_CHECK_MSG(raw != nullptr, "node factory returned null");
    insert_locked(sh, key, raw);
    return {raw, true};
  }

  /// Lookup; nullptr if absent.
  TaskGraphNode* find(Key key) const;

  /// Total node count (sums shard counts; exact when quiescent).
  std::size_t size() const;

  /// Applies fn(key, node) to every entry. Not concurrent-safe with inserts.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& shp : shards_) {
      for (const auto& e : shp->slots) {
        if (e.value != nullptr) fn(e.key, e.value);
      }
    }
  }

  static constexpr std::size_t kShards = 64;

 private:
  struct Entry {
    Key key = 0;
    TaskGraphNode* value = nullptr;  // nullptr == empty slot
  };
  struct Shard {
    mutable SpinLock mu;
    std::vector<Entry> slots;
    std::size_t count = 0;
    /// Node storage for this shard; touched only under `mu`.
    NodeSlab slab;
  };

  static std::size_t shard_index(Key key) noexcept {
    return splitmix64(key) & (kShards - 1);
  }
  Shard& shard_for(Key key) noexcept { return *shards_[shard_index(key)]; }
  const Shard& shard_for(Key key) const noexcept { return *shards_[shard_index(key)]; }

  static TaskGraphNode* probe(const Shard& sh, Key key) noexcept;
  void insert_locked(Shard& sh, Key key, TaskGraphNode* value);
  static void grow_locked(Shard& sh);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nabbitc::nabbit
