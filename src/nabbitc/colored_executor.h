// NabbitC: the locality-aware executors.
//
// ColoredDynamicExecutor / ColoredStaticExecutor override the spawn hooks of
// their Nabbit base classes with the morphing-continuation mechanism of
// spawn_colors.h, and advertise color masks on every stealable frame so the
// runtime's colored steals (rt/steal_policy.h) can find same-colored work.
// The dependence protocol — and therefore correctness — is entirely
// inherited; NabbitC only changes *order* and *steal visibility*, exactly as
// the paper prescribes.
#pragma once

#include "nabbit/executor.h"
#include "nabbit/static_executor.h"
#include "nabbitc/coloring.h"
#include "nabbitc/spawn_colors.h"

namespace nabbitc::nabbit {

class ColoredDynamicExecutor final : public DynamicExecutor {
 public:
  using DynamicExecutor::DynamicExecutor;

 protected:
  std::size_t spawn_preds(rt::Worker& w, TaskGraphNode* parent, PredItem* items,
                          std::size_t n) override;
  std::size_t spawn_ready(rt::Worker& w, TaskGraphNode** ready,
                          std::size_t n) override;
  /// A lone published successor advertises its own color.
  rt::ColorMask lone_mask(const TaskGraphNode& node) const override;
};

class ColoredStaticExecutor final : public StaticExecutor {
 public:
  using StaticExecutor::StaticExecutor;

 protected:
  void spawn_ready(rt::Worker& w, rt::TaskGroup& g, TaskGraphNode** ready,
                   std::size_t n) override;
};

// Variant selection lives one layer up: api::Runtime derives both the
// steal policy and the executor class (these or their Nabbit bases) from
// the single api::Variant, so a policy/executor mismatch cannot be wired.

}  // namespace nabbitc::nabbit
