// Dynamic (on-demand) task graph execution — the Nabbit algorithm.
//
// The executor walks the graph backwards from the sink key, creating nodes
// on demand through a concurrent map, exploring predecessors in parallel,
// and notifying successors as nodes complete (SectionII of the paper;
// protocol from Agrawal, Leiserson, Sukha, IPDPS'10).
//
// No protocol step blocks. A node's join counts the predecessor
// explorations still to report (holds) plus the predecessors still to
// compute (edges), and whoever drops it to zero computes the node: the last
// finisher continues, whichever worker that is. Only the root waits, once.
// See executor.cpp for the protocol.
//
// Locality-aware spawning is a set of virtual hooks (spawn_preds /
// spawn_ready / lone_mask) so that NabbitC (nabbitc/colored_executor.h) can
// override the spawn *order* and advertised color masks without touching
// the dependence protocol. The base class implements vanilla Nabbit:
// list-order spawning with no color advertisement.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "nabbit/concurrent_map.h"
#include "nabbit/graph_spec.h"
#include "nabbit/node.h"
#include "rt/scheduler.h"

namespace nabbitc::nabbit {

class DynamicExecutor : public NodeLookup {
 public:
  struct Options {
    /// Record the paper's SectionV-B locality metric while executing.
    bool count_locality = true;
    /// Cooperative-cancellation token — the owning RootJob's cancel word
    /// (rt::Scheduler::RootJob::cancel); null = never cancelled. Polled
    /// once per node dispatch (one atomic load, no clock). Once set,
    /// not-yet-started nodes are skipped: their compute() never runs, but
    /// successor notification still drains so every node retires and the
    /// root returns promptly.
    const std::atomic<std::uint8_t>* cancel = nullptr;
  };

  /// One predecessor to explore, with its color precomputed from the spec.
  struct PredItem {
    Key key;
    numa::Color color;
  };

  /// One protocol step. A step runs to its end without waiting and yields
  /// at most one step to continue with, so drive() runs a chain of steps as
  /// a loop, whatever the graph's depth.
  struct Step {
    enum class Kind : std::uint8_t { kNone, kInit, kExplore, kCompute };
    Kind kind = Kind::kNone;
    /// kInit / kCompute: the node; kExplore: the dependent whose hold the
    /// exploration carries.
    TaskGraphNode* node = nullptr;
    /// kExplore: the predecessor's key.
    Key key = 0;

    static Step init(TaskGraphNode* u) { return {Kind::kInit, u, 0}; }
    static Step explore(TaskGraphNode* parent, Key pred) {
      return {Kind::kExplore, parent, pred};
    }
    static Step compute(TaskGraphNode* u) { return {Kind::kCompute, u, 0}; }
  };

  DynamicExecutor(rt::Scheduler& sched, GraphSpec& spec, Options opts);
  DynamicExecutor(rt::Scheduler& sched, GraphSpec& spec);
  virtual ~DynamicExecutor() = default;

  DynamicExecutor(const DynamicExecutor&) = delete;
  DynamicExecutor& operator=(const DynamicExecutor&) = delete;

  /// Executes the task graph rooted (sunk) at `sink_key`; returns when the
  /// sink and therefore all its transitive predecessors have been computed.
  /// Synchronous convenience over run_root: must not be called from a
  /// worker thread.
  void run(Key sink_key);

  /// The body of run() for a root already adopted by a worker: inserts the
  /// sink and drives the dependence protocol to completion. This is what
  /// api::Runtime submits, so that many executions — each with its own
  /// executor, node map and arenas — can share one scheduler concurrently.
  /// Returns once every frame of the execution has finished, so on return
  /// the sink (and all transitive predecessors) are retired; aborts if the
  /// sink is not (cycle).
  void run_root(rt::Worker& w, Key sink_key);

  TaskGraphNode* find(Key key) const override { return map_.find(key); }
  rt::Scheduler& scheduler() noexcept { return sched_; }
  GraphSpec& spec() noexcept { return spec_; }

  std::uint64_t nodes_created() const noexcept {
    return nodes_created_.load(std::memory_order_relaxed);
  }
  std::uint64_t nodes_computed() const noexcept {
    return nodes_computed_.load(std::memory_order_relaxed);
  }
  /// Nodes whose compute() was skipped by cooperative cancellation. Nodes
  /// never even created (discovery cut short) are not counted — they were
  /// skipped before they existed.
  std::uint64_t nodes_skipped() const noexcept {
    return nodes_skipped_.load(std::memory_order_relaxed);
  }

  /// True once this execution's cancellation token fired. Monotone for the
  /// duration of one run, which is what makes the skip protocol safe: a
  /// non-skipped node can never observe a skipped predecessor (the
  /// predecessor's skip happened-before our dispatch check).
  bool cancel_requested() const noexcept {
    return opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_acquire) != 0;
  }

  /// Runs `s` and every step it continues into, on this worker. What a
  /// published frame runs; exposed for the colored subclass's spawn leaves.
  void drive(rt::Worker& w, Step s);

 protected:
  // --- Locality-aware hooks (overridden by ColoredDynamicExecutor) ------
  // The spawn hooks publish all but one of n >= 2 items as stealable frames
  // joining frames(), each running drive() on what it keeps, and return the
  // index of the item the caller continues with.
  /// Explorations of `parent`'s predecessors.
  virtual std::size_t spawn_preds(rt::Worker& w, TaskGraphNode* parent,
                                  PredItem* items, std::size_t n);
  /// Newly ready successors.
  virtual std::size_t spawn_ready(rt::Worker& w, TaskGraphNode** ready,
                                  std::size_t n);
  /// Colors advertised by a frame publishing the lone ready `node`.
  virtual rt::ColorMask lone_mask(const TaskGraphNode& node) const;

  /// Every frame this execution publishes; run_root waits for all of them.
  rt::ShardedGroup& frames() noexcept { return frames_; }

 private:
  /// Per-drive node counts, published once when the drive ends: one shared
  /// RMW per counter per drive instead of one per node.
  struct Tally {
    std::uint64_t created = 0;
    std::uint64_t computed = 0;
    std::uint64_t skipped = 0;
  };

  TaskGraphNode* create_node(NodeArena& arena, Key key);
  Step init_node(rt::Worker& w, TaskGraphNode* u, Tally& t);
  Step explore(rt::Worker& w, TaskGraphNode* parent, Key pred_key);
  Step compute_and_notify(rt::Worker& w, TaskGraphNode* u, Tally& t);

  rt::Scheduler& sched_;
  GraphSpec& spec_;
  Options opts_;
  ConcurrentNodeMap map_;
  rt::ShardedGroup frames_;
  std::atomic<std::uint64_t> nodes_created_{0};
  std::atomic<std::uint64_t> nodes_computed_{0};
  std::atomic<std::uint64_t> nodes_skipped_{0};
};

}  // namespace nabbitc::nabbit
