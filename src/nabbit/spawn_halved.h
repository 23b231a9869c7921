// List-order recursive-halving spawn — the vanilla-Nabbit spawn shape.
//
// Pushes the upper half of an item range as a stealable frame (no color
// advertisement) and descends into the lower half, exactly like the paper's
// recursive parallel-for minus the cilkrts_set_next_colors calls. The
// uncolored sibling of nabbitc/spawn_colors.h's spawn_colored, generic over
// the group, the item type and the leaf action for the same reason: the
// shape is shared by predecessor exploration, successor notification, and
// the compiled-plan replay path (src/plan/), and must stay identical across
// them so steal behaviour matches the fresh-execution path.
#pragma once

#include <cstddef>
#include <type_traits>

#include "rt/scheduler.h"
#include "support/check.h"

namespace nabbitc::nabbit {

namespace detail {

template <typename Group, typename Item, typename Leaf>
struct HalvedFrame {
  Group* group;
  const Item* items;
  Leaf leaf;

  /// Publishes the upper halves of [lo, hi) and returns lo, the one item
  /// left for the caller. A published frame spreads its range the same way
  /// and runs the leaf on what it kept.
  std::size_t spread(rt::Worker& w, std::size_t lo, std::size_t hi) const {
    while (hi - lo > 1) {
      std::size_t mid = lo + (hi - lo) / 2;
      const auto* self = this;
      group->spawn(w, rt::ColorMask{}, [self, mid, hi](rt::Worker& ww) {
        self->leaf(ww, self->items[self->spread(ww, mid, hi)]);
      });
      hi = mid;
    }
    return lo;
  }
};

}  // namespace detail

/// Publishes `leaf(worker, item)` over all but one of items[0, n) (n >= 1)
/// in list order with halving frames, and returns the index of the item
/// the caller runs itself. Frames join `g`; the frame lives in the worker's
/// arena, so the spawn performs no heap allocation.
template <typename Group, typename Item, typename Leaf>
std::size_t spread_halved(rt::Worker& w, Group& g, const Item* items,
                          std::size_t n, Leaf leaf) {
  static_assert(std::is_trivially_destructible_v<Leaf>);
  NABBITC_DCHECK(n >= 1);
  if (n == 1) return 0;
  using Frame = detail::HalvedFrame<Group, Item, Leaf>;
  return w.arena().create<Frame>(Frame{&g, items, leaf})->spread(w, 0, n);
}

/// spread_halved, then the leaf on the kept item: every item runs, the
/// caller must g.wait().
template <typename Group, typename Item, typename Leaf>
void spawn_halved(rt::Worker& w, Group& g, const Item* items, std::size_t n,
                  Leaf leaf) {
  if (n == 0) return;
  leaf(w, items[spread_halved(w, g, items, n, leaf)]);
}

}  // namespace nabbitc::nabbit
