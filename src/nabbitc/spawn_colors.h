// Color-aware spawning with morphing continuations (paper Figure 3).
//
// spawn_colored() reproduces the paper's spawn_colors / spawn_nodes pair:
//
//   * items are grouped by color (gather_colors, Figure 4);
//   * the color-group list is split recursively in halves; the half that
//     contains the executing worker's color is executed *inline* while the
//     other half becomes a stealable frame whose color mask advertises
//     exactly its colors (the cilkrts_set_next_colors call before each
//     cilk_spawn) — this is the "morphing continuation": which half is the
//     continuation depends on who is executing;
//   * within a single color, nodes are spawned recursively parallel-for
//     style with that color's mask on every stealable frame;
//   * when the worker's color is absent, the original order is kept, so a
//     worker never stalls looking for work of its own color.
//
// The same mechanism serves predecessor exploration, successor notification
// and plan replay, so it is generic over the group, the item type and the
// leaf action. spread_colored leaves the morphing continuation's last item
// to its caller (the dynamic executor runs it from its own loop);
// spawn_colored runs it on the spot.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "numa/topology.h"
#include "rt/scheduler.h"
#include "support/check.h"

namespace nabbitc::nabbit {

/// A run of same-colored items inside the sorted item array.
struct ColorGroup {
  numa::Color color;
  std::uint32_t begin;
  std::uint32_t end;
};

namespace detail {

template <typename Group, typename Item, typename Leaf>
struct ColoredFrame {
  Group* group;
  const Item* items;
  const ColorGroup* groups;
  Leaf leaf;

  /// Does any group in [lo, hi) carry color c? Groups are sorted by color.
  bool contains_color(std::uint32_t lo, std::uint32_t hi, numa::Color c) const {
    const ColorGroup* first = groups + lo;
    const ColorGroup* last = groups + hi;
    const ColorGroup* it = std::lower_bound(
        first, last, c,
        [](const ColorGroup& g, numa::Color v) { return g.color < v; });
    return it != last && it->color == c;
  }

  rt::ColorMask mask_of(std::uint32_t lo, std::uint32_t hi) const {
    rt::ColorMask m;
    for (std::uint32_t i = lo; i < hi; ++i) m.set(groups[i].color);
    return m;
  }

  /// The paper's spawn_colors over color-group range [lo, hi): publishes
  /// all but one item and returns the index of the one left for the caller.
  std::uint32_t run_groups(rt::Worker& w, std::uint32_t lo, std::uint32_t hi) const {
    while (hi - lo > 1) {
      std::uint32_t mid = lo + (hi - lo) / 2;
      // Morph: keep the half with our color for inline execution ("if c_p
      // in second_half: swap(first_half, second_half)").
      std::uint32_t inline_lo = lo, inline_hi = mid;
      std::uint32_t steal_lo = mid, steal_hi = hi;
      if (contains_color(mid, hi, w.color())) {
        inline_lo = mid;
        inline_hi = hi;
        steal_lo = lo;
        steal_hi = mid;
      }
      const auto* self = this;
      group->spawn(w, mask_of(steal_lo, steal_hi),
                   [self, steal_lo, steal_hi](rt::Worker& ww) {
                     self->leaf(ww, self->items[self->run_groups(ww, steal_lo, steal_hi)]);
                   });
      lo = inline_lo;
      hi = inline_hi;
    }
    const ColorGroup& g = groups[lo];
    return run_nodes(w, g.begin, g.end, rt::ColorMask::single(g.color));
  }

  /// The paper's spawn_nodes over item range [lo, hi), all of one color;
  /// returns lo, the item left for the caller.
  std::uint32_t run_nodes(rt::Worker& w, std::uint32_t lo, std::uint32_t hi,
                          rt::ColorMask mask) const {
    while (hi - lo > 1) {
      std::uint32_t mid = lo + (hi - lo) / 2;
      const auto* self = this;
      group->spawn(w, mask, [self, mid, hi, mask](rt::Worker& ww) {
        self->leaf(ww, self->items[self->run_nodes(ww, mid, hi, mask)]);
      });
      hi = mid;
    }
    return lo;
  }
};

}  // namespace detail

/// Sorts `items` (n >= 1) by color (gather_colors), builds the group table
/// in the worker's arena, runs the morphing-continuation spawn, and returns
/// the index of the one item the caller runs itself. `get_color` maps an
/// Item to its numa::Color; `leaf(worker, item)` is what a published frame
/// runs on the item it keeps. All published frames join `g`.
template <typename Group, typename Item, typename GetColor, typename Leaf>
std::size_t spread_colored(rt::Worker& w, Group& g, Item* items, std::size_t n,
                           GetColor get_color, Leaf leaf) {
  static_assert(std::is_trivially_destructible_v<Leaf>);
  NABBITC_DCHECK(n >= 1);
  if (n == 1) return 0;
  std::sort(items, items + n, [&](const Item& a, const Item& b) {
    return get_color(a) < get_color(b);
  });
  // Build the color-group table (the keys of the paper's gather_colors map).
  auto* groups = w.arena().create_array<ColorGroup>(n);
  std::uint32_t ngroups = 0;
  std::uint32_t start = 0;
  for (std::uint32_t i = 1; i <= n; ++i) {
    if (i == n || get_color(items[i]) != get_color(items[start])) {
      groups[ngroups++] = ColorGroup{get_color(items[start]), start, i};
      start = i;
    }
  }
  using Frame = detail::ColoredFrame<Group, Item, Leaf>;
  auto* frame = w.arena().create<Frame>(Frame{&g, items, groups, leaf});
  return frame->run_groups(w, 0, ngroups);
}

/// spread_colored, then the leaf on the kept item: every item runs, the
/// caller must g.wait().
template <typename Group, typename Item, typename GetColor, typename Leaf>
void spawn_colored(rt::Worker& w, Group& g, Item* items, std::size_t n,
                   GetColor get_color, Leaf leaf) {
  if (n == 0) return;
  leaf(w, items[spread_colored(w, g, items, n, get_color, leaf)]);
}

}  // namespace nabbitc::nabbit
