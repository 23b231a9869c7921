// The Nabbit dependence protocol without blocking steps.
//
// A node u is born with join = 1 and moves through three steps:
//
//   * init: u->init() declares u's k predecessors. u's join becomes k, one
//     HOLD per predecessor exploration (the birth count is the first), all
//     added before any exploration is spawned. With no predecessors, or once
//     cancelled, nothing else can touch u's join and u is computed at once.
//   * explore (u, p): create-or-get p in the node map. A created p cannot
//     have computed yet, so u registers on p's successor list; a found p
//     gets u registered unless it already computed (its list is closed).
//     Either way a registration turns the hold into the EDGE p -> u that
//     p's notification releases; otherwise the exploration releases its
//     hold itself. A created p then continues into its own init.
//   * compute: run u->compute() (or skip it once cancelled), close u's
//     successor list and release every edge on it.
//
// Whoever drops a join to zero (the last exploration, or the last
// predecessor's notification) computes that node: the last finisher
// continues, so no step ever waits for another.
//
// Each step yields at most one step to continue with: the first of several
// explorations or ready successors (the rest are published as frames in the
// variant's spawn shape: spawn_preds / spawn_ready), the lone ready
// successor, or a created predecessor's init. drive() runs that chain as a
// loop, so a deep graph never deepens the C++ stack. A node with several
// successors of which one is ready publishes it when some worker is idle
// (Worker::peers_idle), which may steal it; otherwise the frame would cost a
// push and a pop for nothing. The successor of a chain link (a node with
// one successor) always continues inline.
//
// Published frames join one ShardedGroup per execution, counted per worker.
// run_root drives the sink's init, then helps (runs tasks) until every
// frame has finished: that is the one wait of an execution, and frames
// reference the executor and its arenas, so none may outlive it.
#include "nabbit/executor.h"

#include "nabbit/spawn_halved.h"
#include "support/check.h"

namespace nabbitc::nabbit {

DynamicExecutor::DynamicExecutor(rt::Scheduler& sched, GraphSpec& spec, Options opts)
    : sched_(sched),
      spec_(spec),
      opts_(opts),
      map_(spec.expected_nodes()),
      frames_(sched.num_workers()) {}

DynamicExecutor::DynamicExecutor(rt::Scheduler& sched, GraphSpec& spec)
    : DynamicExecutor(sched, spec, Options{}) {}

TaskGraphNode* DynamicExecutor::create_node(NodeArena& arena, Key key) {
  TaskGraphNode* n = spec_.create(arena, key);
  n->key_ = key;
  n->color_ = spec_.color_of(key);
  n->status_.store(NodeStatus::kVisited, std::memory_order_relaxed);
  return n;
}

void DynamicExecutor::run(Key sink_key) {
  sched_.execute([this, sink_key](rt::Worker& w) { run_root(w, sink_key); });
}

void DynamicExecutor::run_root(rt::Worker& w, Key sink_key) {
  auto [node, created] = map_.insert_or_get(
      sink_key, [this](NodeArena& a, Key k) { return create_node(a, k); });
  if (created) {
    drive(w, Step::init(node));
    w.help_until([this] { return frames_.quiescent(); });
  }
  NABBITC_CHECK_MSG(node->computed() || cancel_requested(),
                    "sink did not complete — task graph has a cycle or a "
                    "predecessor threw");
}

void DynamicExecutor::drive(rt::Worker& w, Step s) {
  Tally t;
  for (;;) {
    switch (s.kind) {
      case Step::Kind::kInit:
        s = init_node(w, s.node, t);
        continue;
      case Step::Kind::kExplore:
        s = explore(w, s.node, s.key);
        continue;
      case Step::Kind::kCompute:
        s = compute_and_notify(w, s.node, t);
        continue;
      case Step::Kind::kNone:
        break;
    }
    break;
  }
  if (t.created != 0) nodes_created_.fetch_add(t.created, std::memory_order_relaxed);
  if (t.computed != 0) nodes_computed_.fetch_add(t.computed, std::memory_order_relaxed);
  if (t.skipped != 0) nodes_skipped_.fetch_add(t.skipped, std::memory_order_relaxed);
}

DynamicExecutor::Step DynamicExecutor::init_node(rt::Worker& w, TaskGraphNode* u,
                                                 Tally& t) {
  ++t.created;
  ExecContext ctx(&w, *this);
  u->init(ctx);

  // Cancellation cuts discovery short: u's predecessors are never created
  // (they are "skipped before existing") and u retires as a skip.
  const auto& preds = u->preds_;
  const std::size_t k = preds.size();
  if (k == 0 || cancel_requested()) return Step::compute(u);
  if (k == 1) return Step::explore(u, preds[0]);

  u->join_.fetch_add(static_cast<std::int64_t>(k) - 1, std::memory_order_relaxed);
  auto* items = w.arena().create_array<PredItem>(k);
  for (std::size_t i = 0; i < k; ++i) {
    items[i] = PredItem{preds[i], spec_.color_of(preds[i])};
  }
  return Step::explore(u, items[spawn_preds(w, u, items, k)].key);
}

DynamicExecutor::Step DynamicExecutor::explore(rt::Worker& w, TaskGraphNode* parent,
                                               Key pred_key) {
  auto [pred, created] = map_.insert_or_get(
      pred_key, [this](NodeArena& a, Key k) { return create_node(a, k); });
  // The edge cell comes from parent's inline pool (arena overflow), so this
  // path never locks and never heap-allocates.
  if (created) {
    // pred cannot compute before its own init step below, so its list is
    // still open. (Registering first matters: pred may stay pending long
    // after its init step, while another worker computes one of its
    // predecessors.)
    [[maybe_unused]] const bool added = pred->successors_.try_add(
        parent, parent->acquire_successor_cell(w.arena()));
    NABBITC_DCHECK(added);
    return Step::init(pred);
  }
  if (!pred->computed() &&
      pred->successors_.try_add(parent, parent->acquire_successor_cell(w.arena()))) {
    return {};  // the hold is now the edge: pred's notification releases it
  }
  // Dependence already satisfied (a failed add means pred closed its list):
  // release the hold. The acquire half sees every other predecessor's
  // writes before parent runs.
  if (parent->join_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    return Step::compute(parent);
  }
  return {};
}

DynamicExecutor::Step DynamicExecutor::compute_and_notify(rt::Worker& w,
                                                          TaskGraphNode* u,
                                                          Tally& t) {
  // One cancellation check per node dispatch. Skipped nodes keep status
  // kVisited (they were never computed) but still notify successors below,
  // so joins drain, every node retires and the root returns — the skip
  // cascades through the rest of the graph.
  const bool skip = cancel_requested();
#ifndef NDEBUG
  // Protocol invariant: a node computes only after all predecessors have.
  // (A skipped predecessor implies the cancel word was set before its
  // dispatch check, which happened-before ours — so a non-skipped node
  // cannot see one.)
  if (!skip) {
    for (Key pk : u->preds_) {
      TaskGraphNode* p = map_.find(pk);
      NABBITC_CHECK_MSG(p != nullptr && p->computed(),
                        "dependence violation: node computed before predecessor");
    }
  }
#endif
  if (skip) {
    ++t.skipped;
  } else {
    if (opts_.count_locality) {
      // The metric counts against true data placement (data_color_of), not
      // the scheduling hint — a bad hint must *show up* as remote accesses.
      std::uint64_t remote_preds = 0;
      for (Key pk : u->preds_) {
        if (!w.color_is_local(spec_.data_color_of(pk))) ++remote_preds;
      }
      w.record_node_execution(spec_.data_color_of(u->key_), u->preds_.size(),
                              remote_preds);
    }

    ExecContext ctx(&w, *this);
    u->compute(ctx);
    u->status_.store(NodeStatus::kComputed, std::memory_order_release);
    ++t.computed;
  }

  // Notify successors (SectionII action 3 / Figure 1c). Closing the list
  // makes later try_add calls fail, so no successor is ever lost. The chain
  // of cells is walked in place; with several cells, the ready ones are
  // gathered into arena storage for the spawn hook.
  SuccessorCell* chain = u->successors_.close_and_take();
  if (chain == nullptr) return {};
  if (chain->next == nullptr) {
    // u has one successor (a chain link): this worker runs it next.
    // Publishing it exposed no parallelism and kept one frame per link in
    // the arena until the job ended.
    if (chain->node->join_.fetch_sub(1, std::memory_order_acq_rel) != 1) return {};
    return Step::compute(chain->node);
  }
  std::size_t len = 0;
  for (SuccessorCell* c = chain; c != nullptr; c = c->next) ++len;
  std::size_t nready = 0;
  auto* ready = w.arena().create_array<TaskGraphNode*>(len);
  for (SuccessorCell* c = chain; c != nullptr; c = c->next) {
    if (c->node->join_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ready[nready++] = c->node;
    }
  }
  if (nready == 0) return {};
  if (nready > 1) return Step::compute(ready[spawn_ready(w, ready, nready)]);
  // One of several successors is ready; the rest wait on predecessors that
  // may be running elsewhere. An idle worker may take this one.
  TaskGraphNode* lone = ready[0];
  if (!w.peers_idle()) return Step::compute(lone);
  frames_.spawn(w, lone_mask(*lone), [this, lone](rt::Worker& ww) {
    drive(ww, Step::compute(lone));
  });
  return {};
}

// ---------------------------------------------------------------------------
// Vanilla Nabbit spawning: list order, no color advertisement — the shared
// recursive-halving shape of nabbit/spawn_halved.h with per-path leaves.

namespace {

struct PredLeaf {
  DynamicExecutor* ex;
  TaskGraphNode* parent;
  void operator()(rt::Worker& w, const DynamicExecutor::PredItem& item) const {
    ex->drive(w, DynamicExecutor::Step::explore(parent, item.key));
  }
};

struct ReadyLeaf {
  DynamicExecutor* ex;
  void operator()(rt::Worker& w, TaskGraphNode* node) const {
    ex->drive(w, DynamicExecutor::Step::compute(node));
  }
};

}  // namespace

std::size_t DynamicExecutor::spawn_preds(rt::Worker& w, TaskGraphNode* parent,
                                         PredItem* items, std::size_t n) {
  return spread_halved(w, frames_, items, n, PredLeaf{this, parent});
}

std::size_t DynamicExecutor::spawn_ready(rt::Worker& w, TaskGraphNode** ready,
                                         std::size_t n) {
  return spread_halved(w, frames_, ready, n, ReadyLeaf{this});
}

rt::ColorMask DynamicExecutor::lone_mask(const TaskGraphNode&) const { return {}; }

}  // namespace nabbitc::nabbit
