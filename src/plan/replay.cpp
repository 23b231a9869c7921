// Plan replay: the dependence protocol over frozen CSR arrays.
//
// The executor the replay path runs instead of DynamicExecutor: no node map
// (slots are plan indices), no successor-list CAS traffic (successor sets
// are frozen CSR rows), no graph construction. It moves fused UNITS (see
// plan.h); a unit's nodes run serially in execute_unit().
//
// One loop, run_units(), drives every replay: pop a ready unit from a
// PRIVATE stack (an array on the worker's own C++ stack), run it, count down
// its successors' joins, push the ones that became ready. Other workers
// cannot see that stack, so a busy pool pays no spawn, deque traffic or
// TaskGroup sync per unit. Work becomes public only on demand, as in Acar,
// Charguéraud & Rainey's private-deque work stealing (PPoPP'13):
//
//   * a worker is idle when parked, or when it just failed to find a task
//     in its service loop or a helping TaskGroup::wait (Worker::mark_idle);
//   * before each unit, with >= 2 units stacked, an idle peer and nothing
//     stealable in its own deque, a worker moves half its stack into ONE
//     frame — other colors' units first under NabbitC, advertising their
//     union, so their owners' colored steals find it. Whoever runs the frame
//     spreads it with the paper's spawn shape (spawn_colored / spawn_halved)
//     into one run_units per unit. A full stack spills the same way.
//
// Those frames are all that is ever stealable; each run_units ends with one
// group.wait for what it promoted, and only promotion touches the arena.
// Tiny serial-lowered plans run the same loop without promotion, inline on
// the submitting thread (w == nullptr) or on a worker that adopted them.
#include "api/metrics.h"
#include "nabbit/spawn_halved.h"
#include "nabbitc/spawn_colors.h"
#include "plan/plan.h"
#include "support/check.h"
#include "support/timing.h"

namespace nabbitc::plan {

namespace {

/// Private ready-stack capacity. Wider ready sets spill half the stack
/// into a stealable frame; serial-lowered plans (whose inline path has no
/// worker to spill through) always fit.
constexpr std::uint32_t kStackCap = 64;
static_assert(kStackCap >= kTinyGraphMaxNodes,
              "a serial-lowered replay must never spill");

}  // namespace

void PlanInstance::run_root(rt::Worker& w) {
  const FrozenPlan& f = plan_->frozen();
  run_units(&w, f.unit_roots.data(), f.unit_roots.size());
  // Every node is retired exactly once per replay: computed, or skipped by
  // cooperative cancellation (the skip cascade still walks the CSR rows so
  // join counters drain and this sync returns).
  NABBITC_CHECK_MSG(
      computed_.load(std::memory_order_acquire) +
              skipped_.load(std::memory_order_acquire) ==
          plan_->num_nodes(),
      "plan replay did not retire every node — instance resubmitted while "
      "in flight, or graph mutated since compile");
}

void PlanInstance::run_units(rt::Worker* w, const std::uint32_t* seeds,
                             std::size_t n) {
  const FrozenPlan& f = plan_->frozen();
  const bool may_promote =
      w != nullptr && !f.serial_lower && w->scheduler().num_workers() > 1;
  rt::TaskGroup group;
  std::uint32_t stack[kStackCap];
  std::uint32_t top = 0;
  const auto push = [&](std::uint32_t u) {
    if (top == kStackCap) promote(*w, group, stack, top);
    stack[top++] = u;
  };
  for (std::size_t i = 0; i < n; ++i) push(seeds[i]);
  // Retirement counts stay local until the stack drains: one shared RMW per
  // run_units instead of one per unit on a line every worker writes.
  std::uint64_t computed = 0;
  std::uint64_t retired = 0;
  while (top != 0) {
    if (may_promote && top >= 2 && w->peers_idle() && w->deque().empty()) {
      promote(*w, group, stack, top);
    }
    const std::uint32_t u = stack[--top];
    computed += execute_unit(w, u);
    retired += f.unit_off[u + 1] - f.unit_off[u];
    // The CSR row replaces the successor list — every dependent is known up
    // front, so the last-arriving predecessor (the fetch_sub observing 1)
    // owns the successor.
    for (std::uint32_t e = f.unit_succ_off[u]; e < f.unit_succ_off[u + 1];
         ++e) {
      const std::uint32_t s = f.unit_succ_idx[e];
      if (join_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) push(s);
    }
  }
  if (computed != 0) computed_.fetch_add(computed, std::memory_order_relaxed);
  if (retired != computed) {
    skipped_.fetch_add(retired - computed, std::memory_order_relaxed);
  }
  if (w != nullptr) group.wait(*w);
}

void PlanInstance::promote(rt::Worker& w, rt::TaskGroup& g,
                           std::uint32_t* stack, std::uint32_t& top) {
  const GraphPlan& p = *plan_;
  const numa::Color* colors = p.frozen().unit_colors.data();
  const std::uint32_t k = top / 2;
  auto* give = w.arena().create_array<std::uint32_t>(k);
  // Oldest entries first, compacting what stays: NabbitC hands out other
  // colors' units before its own; both variants then top up from the bottom.
  std::uint32_t ng = 0;
  for (int pass = p.colored() ? 0 : 1; pass < 2 && ng < k; ++pass) {
    std::uint32_t keep = 0;
    for (std::uint32_t i = 0; i < top; ++i) {
      const std::uint32_t u = stack[i];
      if (ng < k && (pass == 1 || colors[u] != w.color())) {
        give[ng++] = u;
      } else {
        stack[keep++] = u;
      }
    }
    top = keep;
  }
  rt::ColorMask mask;
  if (p.colored()) {
    for (std::uint32_t i = 0; i < k; ++i) mask.set(colors[give[i]]);
  }
  // One push now; whoever runs the frame spreads it with the paper's spawn
  // shape (a unit's color is its entry node's), every spread frame joining
  // `g` — which outlives them: the promoting run_units waits on it.
  g.spawn(w, mask, [this, gp = &g, give, k, colors](rt::Worker& ww) {
    const auto leaf = [this](rt::Worker& lw, std::uint32_t u) {
      run_units(&lw, &u, 1);
    };
    if (plan_->colored()) {
      const auto color_of = [colors](std::uint32_t u) { return colors[u]; };
      nabbit::spawn_colored(ww, *gp, give, k, color_of, leaf);
    } else {
      nabbit::spawn_halved(ww, *gp, give, k, leaf);
    }
  });
}

std::uint32_t PlanInstance::execute_unit(rt::Worker* w, std::uint32_t unit) {
  const GraphPlan& p = *plan_;
  const FrozenPlan& f = p.frozen();
  nabbit::ExecContext ctx(w, *this);
  std::uint32_t n_computed = 0;
  for (std::uint32_t e = f.unit_off[unit]; e < f.unit_off[unit + 1]; ++e) {
    const std::uint32_t index = f.unit_nodes[e];
    TaskGraphNode* u = nodes_[index];
    // One cancellation check per node (the embedded RootJob's cancel word;
    // no clock) — fused units stay as responsive as singleton dispatch.
    // Skipped nodes never run compute() and keep status kVisited, but the
    // unit still notifies successors so the replay drains.
    const bool skip = state_.job.cancel_requested();
#ifndef NDEBUG
    // Protocol invariant: a node computes only after all predecessors have.
    // A skipped predecessor implies cancellation was visible before our own
    // check above, so a non-skipped node cannot observe one.
    if (!skip) {
      for (const std::uint32_t pi : p.predecessors(index)) {
        NABBITC_CHECK_MSG(nodes_[pi]->computed(),
                          "dependence violation: plan node computed before "
                          "predecessor");
      }
    }
#endif
    if (skip) continue;
    if (w != nullptr && p.count_locality()) {
      // Counted against true data placement, exactly like the dynamic path
      // (see DynamicExecutor::compute_and_notify) — but the colors come from
      // the plan's frozen arrays, not spec virtual calls.
      const auto preds = p.predecessors(index);
      std::uint64_t remote_preds = 0;
      for (const std::uint32_t pi : preds) {
        if (!w->color_is_local(p.data_color_of(pi))) ++remote_preds;
      }
      w->record_node_execution(p.data_color_of(index), preds.size(),
                               remote_preds);
    }
    u->compute(ctx);
    u->status_.store(nabbit::NodeStatus::kComputed, std::memory_order_release);
    ++n_computed;
  }
  return n_computed;
}

void PlanInstance::run_inline() {
  // Serial-lowered submission on the submitting thread: mirror the fields
  // submit_batch() would have reset, run the replay loop, then complete the
  // job. Nobody can observe the handle before the caller's submit()
  // returns, so plain stores + one release on `done` suffice (and no waiter
  // can be parked on the scheduler for this job).
  rt::Scheduler::RootJob& job = state_.job;
  job.t_enqueue_ns = 0;
  job.t_adopt_ns = 0;
  job.done.store(false, std::memory_order_relaxed);
  job.cancel.store(0, std::memory_order_relaxed);
  job.batch = nullptr;
  if (job.deadline_ns != 0 && now_ns() >= job.deadline_ns) {
    // Born expired: same cooperative skip cascade the scheduler applies at
    // adoption — every node retires as skipped, status_of reports
    // kDeadlineExceeded.
    job.try_cancel(rt::CancelReason::kDeadline);
  }
  const FrozenPlan& f = plan_->frozen();
  run_units(nullptr, f.unit_roots.data(), f.unit_roots.size());
  NABBITC_CHECK_MSG(
      computed_.load(std::memory_order_relaxed) +
              skipped_.load(std::memory_order_relaxed) ==
          plan_->num_nodes(),
      "serial plan replay did not retire every node");
  state_.t_done_ns = now_ns();
  api::record_completion(state_, plan_->bound_metrics());
  job.done.store(true, std::memory_order_release);
  // Same order as Scheduler::finish_root: `done` first, then the hook.
  job.on_complete.fire();
}

}  // namespace nabbitc::plan
