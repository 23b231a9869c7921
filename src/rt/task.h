// Task frames and task groups.
//
// The runtime is *child-stealing*: `cilk_spawn f()` from the paper maps to
// pushing a stealable frame for the continuation work and running the
// preferred half inline (see nabbitc/spawn_colors.h for the mapping). A Task
// carries the color mask the paper would have pushed onto the Cilk color
// deque via cilkrts_set_next_colors().
//
// Frames are allocated from job-lifetime arenas (rt/arena.h) and therefore
// must be trivially destructible.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "rt/color_mask.h"
#include "support/align.h"

namespace nabbitc::rt {

class Worker;

/// Abstract task frame. Subclasses are arena-allocated; the base class is
/// never deleted polymorphically.
class Task {
 public:
  virtual void run(Worker& worker) = 0;

  /// Colors available in this stealable frame (the paper's color-deque
  /// entry). Written once before the frame is pushed.
  ColorMask colors;

  /// Frame epoch of the job this task belongs to (the scheduler's per-
  /// submission number). Stamped at spawn from the spawning worker's arena
  /// epoch; whoever runs the task — owner or thief — adopts it so frames
  /// allocated while the task runs are attributed to the right job segment
  /// (see rt/arena.h).
  std::uint64_t epoch = 0;

 protected:
  ~Task() = default;
};

/// Join counter shared by a tree of spawned tasks. `wait` keeps the caller
/// productive: it executes local then stolen tasks until the group drains
/// (work-first helping, as a Cilk worker would at a sync).
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Spawns `fn(Worker&)` as a stealable frame advertising `colors`.
  /// Defined in scheduler.h (needs Worker).
  template <typename F>
  void spawn(Worker& worker, const ColorMask& colors, F&& fn);

  /// Runs tasks until every spawn in this group has finished.
  /// Defined in scheduler.h (needs Worker).
  void wait(Worker& worker);

  bool done() const noexcept { return pending_.load(std::memory_order_acquire) == 0; }

  /// Manual accounting for frames that complete asynchronously.
  void add(std::int64_t n = 1) noexcept {
    pending_.fetch_add(n, std::memory_order_relaxed);
  }
  void finish() noexcept { pending_.fetch_sub(1, std::memory_order_acq_rel); }
  /// finish() for a frame that ran on `worker` (GroupTask's uniform call).
  void finish(Worker&) noexcept { finish(); }

 private:
  std::atomic<std::int64_t> pending_{0};
};

/// A join counter split by worker, for frames that are waited on once, as a
/// whole. Each worker counts the frames it spawned and the frames it finished
/// on its own cache line, so no line is written by every spawn; the waiter
/// sums the lines. A TaskGroup's single counter is right for a sync that
/// each spawner performs itself; this is for one wait over a whole execution.
class ShardedGroup {
 public:
  /// `num_workers` bounds the worker ids that spawn or run its frames.
  explicit ShardedGroup(std::uint32_t num_workers)
      : shards_(std::make_unique<Shard[]>(num_workers)), num_shards_(num_workers) {}
  ShardedGroup(const ShardedGroup&) = delete;
  ShardedGroup& operator=(const ShardedGroup&) = delete;

  /// Spawns `fn(Worker&)` as a stealable frame advertising `colors`.
  /// Defined in scheduler.h (needs Worker).
  template <typename F>
  void spawn(Worker& worker, const ColorMask& colors, F&& fn);

  /// True iff every frame spawned so far has finished. Sound when frames
  /// are spawned only by this group's own frames, or by the caller before it
  /// asks: finish counts are read before spawn counts, and a frame's spawn
  /// happens-before its finish, so every finish seen has its spawn seen;
  /// equal sums then mean no frame seen is still running, and only a running
  /// frame could have spawned one that was missed.
  bool quiescent() const noexcept {
    std::uint64_t finished = 0, spawned = 0;
    for (std::uint32_t i = 0; i < num_shards_; ++i) {
      finished += shards_[i].finished.load(std::memory_order_acquire);
    }
    for (std::uint32_t i = 0; i < num_shards_; ++i) {
      spawned += shards_[i].spawned.load(std::memory_order_acquire);
    }
    return finished == spawned;
  }

  /// Counts one finished frame on `worker`'s line. Defined in scheduler.h.
  void finish(Worker& worker) noexcept;

 private:
  struct alignas(kCacheLine) Shard {
    std::atomic<std::uint64_t> spawned{0};
    std::atomic<std::uint64_t> finished{0};
  };
  /// Only the owning worker writes its shard: load + store, not an RMW.
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  std::unique_ptr<Shard[]> shards_;
  std::uint32_t num_shards_;
};

/// A closure bound to a group; counts itself finished in the group after it
/// ran. The frame is not touched after that: the group's waiter may return
/// and free what the closure captured.
template <typename Group, typename F>
class GroupTask final : public Task {
 public:
  GroupTask(Group* group, F fn) : group_(group), fn_(std::move(fn)) {
    static_assert(std::is_trivially_destructible_v<F>,
                  "task closures live in arenas; capture only trivially "
                  "destructible state (pointers, spans, scalars)");
  }

  void run(Worker& worker) override {
    fn_(worker);
    group_->finish(worker);
  }

 private:
  Group* group_;
  F fn_;
};

}  // namespace nabbitc::rt
