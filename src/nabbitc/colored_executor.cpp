#include "nabbitc/colored_executor.h"

namespace nabbitc::nabbit {

namespace {

/// Leaves bind the executor and (for predecessors) the dependent node; a
/// published frame drives the protocol from the item it keeps.
struct PredLeaf {
  DynamicExecutor* ex;
  TaskGraphNode* parent;
  void operator()(rt::Worker& w, const DynamicExecutor::PredItem& item) const {
    ex->drive(w, DynamicExecutor::Step::explore(parent, item.key));
  }
};

struct ReadyLeafDynamic {
  DynamicExecutor* ex;
  void operator()(rt::Worker& w, TaskGraphNode* node) const {
    ex->drive(w, DynamicExecutor::Step::compute(node));
  }
};

struct ReadyLeafStatic {
  StaticExecutor* ex;
  void operator()(rt::Worker& w, TaskGraphNode* node) const {
    ex->compute_and_notify(w, node);
  }
};

}  // namespace

std::size_t ColoredDynamicExecutor::spawn_preds(rt::Worker& w, TaskGraphNode* parent,
                                                PredItem* items, std::size_t n) {
  return spread_colored(
      w, frames(), items, n, [](const PredItem& it) { return it.color; },
      PredLeaf{this, parent});
}

std::size_t ColoredDynamicExecutor::spawn_ready(rt::Worker& w, TaskGraphNode** ready,
                                                std::size_t n) {
  return spread_colored(
      w, frames(), ready, n, [](TaskGraphNode* node) { return node->color(); },
      ReadyLeafDynamic{this});
}

rt::ColorMask ColoredDynamicExecutor::lone_mask(const TaskGraphNode& node) const {
  return rt::ColorMask::single(node.color());
}

void ColoredStaticExecutor::spawn_ready(rt::Worker& w, rt::TaskGroup& g,
                                        TaskGraphNode** ready, std::size_t n) {
  spawn_colored(
      w, g, ready, n, [](TaskGraphNode* node) { return node->color(); },
      ReadyLeafStatic{this});
}

}  // namespace nabbitc::nabbit
