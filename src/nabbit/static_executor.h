// Static task graph execution.
//
// The companion to the dynamic executor for graphs that are fully known up
// front (original Nabbit supports both). All nodes are added before run();
// prepare() wires successor lists and join counters once, and the graph can
// be re-run cheaply with reset() — useful for iterative algorithms that
// reuse one graph shape.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nabbit/node.h"
#include "rt/scheduler.h"

namespace nabbitc::nabbit {

class StaticExecutor : public NodeLookup {
 public:
  explicit StaticExecutor(rt::Scheduler& sched);
  virtual ~StaticExecutor() = default;

  StaticExecutor(const StaticExecutor&) = delete;
  StaticExecutor& operator=(const StaticExecutor&) = delete;

  /// Registers a node under `key` with locality hint `color`. Must happen
  /// before prepare().
  void add_node(Key key, numa::Color color, std::unique_ptr<TaskGraphNode> node);

  /// Calls init() on every node, wires the dependence structure, and finds
  /// the roots. Call once, after all add_node calls.
  void prepare();

  /// Executes the whole graph; requires prepare(). Re-runnable after
  /// reset().
  void run();

  /// Rearms join counters and statuses for another run().
  void reset();

  TaskGraphNode* find(Key key) const override;
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_roots() const noexcept { return roots_.size(); }
  rt::Scheduler& scheduler() noexcept { return sched_; }

  /// compute() + successor notification; exposed for the colored subclass's
  /// spawn leaves (protocol building block, not a user entry point).
  void compute_and_notify(rt::Worker& w, TaskGraphNode* u);

 protected:
  /// Locality-aware hook: runs compute_and_notify over ready[0, n), the
  /// spawned frames joining `g`.
  virtual void spawn_ready(rt::Worker& w, rt::TaskGroup& g, TaskGraphNode** ready,
                           std::size_t n);

 private:
  friend struct StaticReadyFrame;

  rt::Scheduler& sched_;
  std::vector<std::unique_ptr<TaskGraphNode>> nodes_;
  std::unordered_map<Key, std::uint32_t> index_of_;
  /// Static adjacency: successors_of_[i] lists nodes depending on nodes_[i].
  std::vector<std::vector<TaskGraphNode*>> successors_of_;
  std::vector<TaskGraphNode*> roots_;
  bool prepared_ = false;
};

}  // namespace nabbitc::nabbit
