// Fixed-size color bitmask.
//
// The paper (SectionIII, "Color-aware GCC Cilk Plus runtime") makes each
// color-deque entry "a fixed length array of boolean flags indicating colors
// contained in the corresponding continuation", so a thief's color check is
// O(1). ColorMask is that array: one bit per color, capacity kMaxColors.
// Invalid colors (numa::kInvalidColor) are representable as "no bit set",
// which makes every colored steal against them fail — exactly the paper's
// Table III configuration.
#pragma once

#include <array>
#include <cstdint>

#include "numa/topology.h"
#include "support/check.h"

namespace nabbitc::rt {

class ColorMask {
 public:
  static constexpr std::uint32_t kMaxColors = 128;
  static constexpr std::uint32_t kWords = kMaxColors / 64;

  constexpr ColorMask() noexcept : words_{} {}

  static ColorMask single(numa::Color c) noexcept {
    ColorMask m;
    m.set(c);
    return m;
  }

  /// Sets the bit for color c; invalid colors are ignored (stay unset).
  void set(numa::Color c) noexcept {
    if (c < 0) return;
    NABBITC_DCHECK(static_cast<std::uint32_t>(c) < kMaxColors);
    words_[static_cast<std::uint32_t>(c) >> 6] |= 1ULL << (c & 63);
  }

  bool test(numa::Color c) const noexcept {
    if (c < 0 || static_cast<std::uint32_t>(c) >= kMaxColors) return false;
    return (words_[static_cast<std::uint32_t>(c) >> 6] >> (c & 63)) & 1ULL;
  }

  bool any() const noexcept {
    for (auto w : words_)
      if (w != 0) return true;
    return false;
  }
  bool none() const noexcept { return !any(); }

  std::uint32_t count() const noexcept {
    std::uint32_t n = 0;
    for (auto w : words_) n += static_cast<std::uint32_t>(__builtin_popcountll(w));
    return n;
  }

  ColorMask operator|(const ColorMask& o) const noexcept {
    ColorMask m;
    for (std::uint32_t i = 0; i < kWords; ++i) m.words_[i] = words_[i] | o.words_[i];
    return m;
  }
  ColorMask& operator|=(const ColorMask& o) noexcept {
    for (std::uint32_t i = 0; i < kWords; ++i) words_[i] |= o.words_[i];
    return *this;
  }
  bool operator==(const ColorMask& o) const noexcept { return words_ == o.words_; }

  /// True iff this mask and `o` share any color.
  bool intersects(const ColorMask& o) const noexcept {
    for (std::uint32_t i = 0; i < kWords; ++i)
      if (words_[i] & o.words_[i]) return true;
    return false;
  }

 private:
  std::array<std::uint64_t, kWords> words_;
};

/// The colors below kMaxColors that `topo` places in worker `w`'s NUMA
/// domain: the precomputed, bit-test form of topo.is_local(c, w).
inline ColorMask local_color_mask(const numa::Topology& topo, std::uint32_t w) {
  ColorMask m;
  for (std::uint32_t c = 0; c < ColorMask::kMaxColors; ++c) {
    if (topo.is_local(static_cast<numa::Color>(c), w)) {
      m.set(static_cast<numa::Color>(c));
    }
  }
  return m;
}

}  // namespace nabbitc::rt
