// Plan replay: the dependence protocol over frozen CSR arrays.
//
// The executor the replay path runs instead of DynamicExecutor: no node map
// (slots are plan indices), no successor-list CAS traffic (successor sets
// are frozen CSR rows), no graph construction. It moves fused UNITS (see
// plan.h); a unit's nodes run serially in execute_unit().
//
// One loop, run_units(), drives every scheduled replay: pop a ready unit
// from a PRIVATE stack (an array on the worker's own C++ stack), run it,
// count down its successors' joins, push the ones that became ready. Other
// workers cannot see that stack, so a busy pool pays no spawn, deque
// traffic or TaskGroup sync per unit. Work becomes public only on demand,
// as in Acar, Charguéraud & Rainey's private-deque work stealing (PPoPP'13):
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
// Serial-lowered plans (the tiny-graph prior) never promote.
//
// An inline replay needs none of that protocol: units are numbered in a
// topological order (a FrozenPlan invariant), so run_inline() runs units
// 0..fused_n-1 in turn, with no join counter and no ready stack.
//
// Replay tiering (GraphPlan::take_inline_tier) picks the inline or the
// scheduled tier per singleton submission by measurement, in the manner of
// Acar, Charguéraud & Rainey's oracle scheduling (OOPSLA'11): both tiers'
// submit-to-complete spans are measured, and a replay runs inline only when
// its serial time is under half its scheduled residency (scheduling
// overhead would be most of it), the losing tier being re-sampled at
// doubling intervals. A scheduled sample also times its units: the inline
// tier is re-sampled only while their summed time is under the residency
// and the longest under half of it (see GraphPlan::take_inline_tier), so a
// work-heavy plan never blocks its caller for a serial probe.
#include <algorithm>

#include "api/metrics.h"
#include "nabbit/spawn_halved.h"
#include "nabbitc/spawn_colors.h"
#include "plan/plan.h"
#include "support/check.h"
#include "support/timing.h"

namespace nabbitc::plan {

namespace {

/// Private ready-stack capacity on a worker. Wider ready sets spill half
/// the stack into a stealable frame.
constexpr std::uint32_t kStackCap = 64;

/// The winning tier's estimate is a running mean with weight
/// 1/2^kTierEwmaShift for the newest sample.
constexpr unsigned kTierEwmaShift = 3;

/// Folds `sample` into `est`: a running mean when `mean`, else a
/// replacement. A sample within 1/2^kTierEwmaShift of the mean is dropped
/// (it would move the mean by under 1/64), so steady replays of a shared
/// plan do not keep writing the line every submitter reads. Returns
/// whether it stored.
bool fold_sample(std::atomic<std::uint64_t>& est, std::uint64_t sample,
                 bool mean) noexcept {
  const std::uint64_t old = est.load(std::memory_order_relaxed);
  std::uint64_t next = sample != 0 ? sample : 1;
  if (mean && old != 0) {
    const auto delta = static_cast<std::int64_t>(next - old);
    const std::uint64_t dist = delta < 0 ? 0 - static_cast<std::uint64_t>(delta)
                                         : static_cast<std::uint64_t>(delta);
    if (dist < (old >> kTierEwmaShift)) return false;
    next = old + static_cast<std::uint64_t>(delta >> kTierEwmaShift);
  }
  est.store(next, std::memory_order_relaxed);
  return true;
}

}  // namespace

bool GraphPlan::inline_wins() const noexcept {
  const std::uint64_t w = tier_.inline_ns.load(std::memory_order_relaxed);
  const std::uint64_t r = tier_.scheduled_ns.load(std::memory_order_relaxed);
  return w != 0 && r != 0 ? 2 * w < r : f_.serial_lower;
}

bool GraphPlan::take_inline_tier(PlanInstance& inst) const noexcept {
  if ((f_.passes & kPassTinyLower) == 0) return false;
  const bool prefer = inline_wins();
  // The caller owns `inst`, so the re-sample schedule costs no shared write.
  if (--inst.tier_countdown_ != 0) return prefer;
  inst.tier_countdown_ = tier_.probe_every.load(std::memory_order_relaxed);
  if (prefer) return false;
  // Re-sample the inline tier only if it can win and the sample cannot cost
  // much: a serial run takes at least the longest unit, so inline loses
  // once that is half the residency (a long chain, fused into one unit);
  // and it takes about the summed unit work, so with that under the
  // residency the probe blocks its caller no longer than the scheduled
  // replay it replaces would have taken (a parallel plan with enough work
  // never probes).
  const std::uint64_t r = tier_.scheduled_ns.load(std::memory_order_relaxed);
  const std::uint64_t work =
      tier_.scheduled_work_ns.load(std::memory_order_relaxed);
  const std::uint64_t longest =
      tier_.scheduled_unit_max_ns.load(std::memory_order_relaxed);
  return r != 0 && work != 0 && work < r && 2 * longest < r;
}

void GraphPlan::record_tier_sample(
    bool inline_tier, std::uint64_t ns, std::uint64_t work_ns,
    std::uint64_t unit_max_ns) const noexcept {
  const bool before = inline_wins();
  // The winning tier is sampled on every replay and keeps a running mean.
  // A re-sample of the losing tier replaces its estimate: such samples are
  // too far apart for a mean to track anything, and one preempted sample
  // averaged in would keep the plan off that tier for many re-samples.
  const bool mean = inline_tier == before;
  if (inline_tier) {
    if (!fold_sample(tier_.inline_ns, ns, mean)) return;
  } else {
    fold_sample(tier_.scheduled_work_ns, work_ns, mean);
    fold_sample(tier_.scheduled_unit_max_ns, unit_max_ns, mean);
    if (!fold_sample(tier_.scheduled_ns, ns, mean)) return;
  }
  const bool after = inline_wins();
  std::atomic<std::uint32_t>& every = tier_.probe_every;
  if (after != before) {
    if (every.load(std::memory_order_relaxed) != kTierFirstProbeInterval) {
      every.store(kTierFirstProbeInterval, std::memory_order_relaxed);
    }
  } else if (inline_tier != after) {
    // A sample of the losing tier that left it losing: re-sample it half as
    // often, so a plan that clearly belongs on one tier stops paying probes.
    const std::uint32_t e = every.load(std::memory_order_relaxed);
    every.store(std::min(e * 2, kTierMaxProbeInterval),
                std::memory_order_relaxed);
  }
}

void PlanInstance::run_root(rt::Worker& w) {
  const FrozenPlan& f = plan_->frozen();
  rearm();
  run_units(w, f.unit_roots.data(), f.unit_roots.size());
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

void PlanInstance::run_units(rt::Worker& w, const std::uint32_t* seeds,
                             std::size_t n) {
  const FrozenPlan& f = plan_->frozen();
  const bool may_promote = !f.serial_lower && w.scheduler().num_workers() > 1;
  rt::TaskGroup group;
  // The stack lives on the worker's own C++ stack and spills when full.
  std::uint32_t stack[kStackCap];
  std::uint32_t top = 0;
  const auto push = [&](std::uint32_t u) {
    if (top == kStackCap) promote(w, group, stack, top);
    stack[top++] = u;
  };
  for (std::size_t i = 0; i < n; ++i) push(seeds[i]);
  // Retirement counts stay local until the stack drains: one shared RMW per
  // run_units instead of one per unit on a line every worker writes.
  std::uint64_t computed = 0;
  std::uint64_t retired = 0;
  const bool stamp = sample_residency_;
  std::uint64_t work = 0;
  std::uint64_t longest = 0;
  while (top != 0) {
    if (may_promote && top >= 2 && w.peers_idle() && w.deque().empty()) {
      promote(w, group, stack, top);
    }
    const std::uint32_t u = stack[--top];
    const std::uint64_t t0 = stamp ? now_ns() : 0;
    computed += execute_unit(&w, u);
    if (stamp) {
      const std::uint64_t t = now_ns() - t0;
      work += t;
      longest = std::max(longest, t);
    }
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
  if (work != 0) {
    work_ns_.fetch_add(work, std::memory_order_relaxed);
    std::uint64_t seen = unit_max_ns_.load(std::memory_order_relaxed);
    while (longest > seen &&
           !unit_max_ns_.compare_exchange_weak(seen, longest,
                                               std::memory_order_relaxed)) {
    }
  }
  group.wait(w);
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
      run_units(lw, &u, 1);
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
    // Skipped nodes never run compute() and get status kVisited, but the
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
    if (skip) {
      u->status_.store(nabbit::NodeStatus::kVisited, std::memory_order_relaxed);
      continue;
    }
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
  // Inline submission on the submitting thread: mirror the fields
  // submit_batch() would have reset, run the units in order, then complete
  // the job. Nobody can observe the handle before the caller's submit()
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
  rearm();
  std::uint64_t computed = 0;
  std::uint64_t skipped = 0;
  for (std::uint32_t u = 0; u < f.fused_n; ++u) {
    const std::uint32_t c = execute_unit(nullptr, u);
    computed += c;
    skipped += f.unit_off[u + 1] - f.unit_off[u] - c;
  }
  NABBITC_CHECK_MSG(computed + skipped == plan_->num_nodes(),
                    "serial plan replay did not retire every node");
  computed_.store(computed, std::memory_order_relaxed);
  skipped_.store(skipped, std::memory_order_relaxed);
  state_.t_done_ns = now_ns();
  api::record_completion(state_, plan_->bound_metrics());
  if (skipped == 0) {
    plan_->record_tier_sample(true, state_.t_done_ns - state_.t_submit_ns, 0,
                              0);
  }
  job.done.store(true, std::memory_order_release);
  // Same order as Scheduler::finish_root: `done` first, then the hook.
  job.on_complete.fire();
}

}  // namespace nabbitc::plan
