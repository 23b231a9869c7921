// Per-worker bump allocator for task frames, segmented by submission epoch.
//
// Task objects must stay mapped for the whole job even after execution:
// thieves *peek* at a victim's top deque entry (pointer + color mask) before
// committing a colored steal, and that peek may race with the owner popping
// and recycling the slot. All frames therefore come from block-granular
// arenas whose blocks are never unmapped — a stale peek reads stale-but-
// mapped bytes: it can only mis-predict a steal's color match (benign: the
// claiming CAS decides ownership), never fault.
//
// Lifetime accounting is *epoch-segmented*: every block carries a stamp, the
// maximum frame epoch (the scheduler's per-RootJob submission number) that
// ever allocated into it. A frame is only referenced while its job runs, so
// once every job with epoch <= stamp has finished, every frame in the block
// is garbage and the block can be recycled — even while OTHER jobs are still
// in flight. This is what keeps continuous overlapping submission patterns
// (a server that never lets the pool drain) at bounded memory; the old
// design only rewound at full pool quiescence, which such clients never
// reach (the since-closed ROADMAP item). reset() remains the cheap
// everything-at-once rewind for the quiescent moment.
//
// A request larger than one block gets a dedicated block of its own size,
// which is stamped, recycled and reused like any other: a later oversized
// request takes the tightest free block that fits, and ordinary requests
// prefer ordinary blocks, so dedicated ones stay free for their next use.
//
// The watermark ("every job with epoch <= E finished") is conservative: one
// long-running submission defers reclamation of every younger job's frames
// until it completes, so memory during such a stall is bounded by the
// stall-window churn rather than the live-frame footprint. That still
// strictly improves on the old contract, where ANY sustained overlap
// deferred reclamation forever.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "support/align.h"

namespace nabbitc::rt {

class JobArena {
 public:
  /// Maps the first block, with the index lists sized for it, up front: a
  /// worker's first frame never heap-allocates, however late it comes.
  explicit JobArena(std::size_t block_bytes = 1 << 16) : block_bytes_(block_bytes) {
    advance_block(block_bytes_);
    reset();
  }

  JobArena(const JobArena&) = delete;
  JobArena& operator=(const JobArena&) = delete;

  /// Allocates raw storage; never freed individually. Stamps the current
  /// block with the arena's frame epoch (see set_epoch). Requests larger
  /// than a block get a dedicated block (see the file comment).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    std::size_t off = round_up(offset_, align);
    if (current_ == nullptr || off + bytes > current_bytes_) {
      advance_block(bytes);
      off = 0;
    }
    Block& b = blocks_[live_.back()];
    if (epoch_ > b.stamp) b.stamp = epoch_;
    void* p = current_ + off;
    offset_ = off + bytes;
    return p;
  }

  /// Constructs a trivially destructible T in the arena.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed; only trivially "
                  "destructible types are allowed");
    return ::new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Constructs an uninitialized array of trivially destructible T.
  template <typename T>
  T* create_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(allocate(sizeof(T) * n, alignof(T)));
  }

  // --- epoch segmentation ---------------------------------------------------

  /// Frame epoch subsequent allocations belong to: the submission number of
  /// the job whose task is currently executing. The scheduler sets this
  /// before running every task (and restores it around nested helping).
  void set_epoch(std::uint64_t e) noexcept { epoch_ = e; }
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Binds the scheduler's reclamation watermark: the largest epoch E such
  /// that every job with epoch <= E has finished. Blocks whose stamp is at
  /// or below the watermark hold only dead frames and are recycled by
  /// advance_block instead of growing the arena.
  void bind_reclaim(const std::atomic<std::uint64_t>* completed_upto) noexcept {
    completed_upto_ = completed_upto;
  }

  /// Rewinds the whole arena, keeping blocks mapped for reuse. Only call
  /// when no live frame can exist anywhere (pool quiescence).
  void reset() noexcept {
    for (std::uint32_t idx : live_) {
      blocks_[idx].stamp = 0;
      free_.push_back(idx);
    }
    live_.clear();
    current_ = nullptr;
    current_bytes_ = 0;
    offset_ = 0;
  }

  std::size_t blocks_allocated() const noexcept { return blocks_.size(); }

  /// Bytes of block storage this arena holds (mapped high-watermark, not
  /// live-frame bytes). Safe to read from any thread.
  std::size_t bytes_held() const noexcept {
    return bytes_held_.load(std::memory_order_relaxed);
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t bytes = 0;
    /// Max frame epoch that allocated into this block; 0 = untouched.
    std::uint64_t stamp = 0;
  };

  /// Opens a block with room for `need` bytes.
  void advance_block(std::size_t need) {
    // First recycle: any opened block whose every allocating job has
    // finished (stamp <= watermark) is garbage, including a full current
    // block. This is the step that bounds memory under continuous overlap.
    if (completed_upto_ != nullptr && !live_.empty()) {
      const std::uint64_t done = completed_upto_->load(std::memory_order_acquire);
      std::size_t keep = 0;
      for (std::size_t i = 0; i < live_.size(); ++i) {
        Block& b = blocks_[live_[i]];
        if (b.stamp <= done) {
          b.stamp = 0;
          free_.push_back(live_[i]);  // capacity reserved; never allocates
        } else {
          live_[keep++] = live_[i];
        }
      }
      live_.resize(keep);
    }
    // The tightest free block that fits; every block fits an ordinary
    // request, so the scan only runs past the back for oversized ones or
    // when a dedicated block sits at the back.
    std::size_t pick = free_.size();
    for (std::size_t i = free_.size(); i-- > 0;) {
      const std::size_t b = blocks_[free_[i]].bytes;
      if (b >= need && (pick == free_.size() || b < blocks_[free_[pick]].bytes)) {
        pick = i;
        if (b == std::max(need, block_bytes_)) break;
      }
    }
    std::uint32_t idx;
    if (pick != free_.size()) {
      idx = free_[pick];
      free_[pick] = free_.back();
      free_.pop_back();
    } else {
      const std::size_t bytes = std::max(need, block_bytes_);
      // Not zeroed: its pages stay out of the resident set until used.
      blocks_.push_back(
          Block{std::make_unique_for_overwrite<std::byte[]>(bytes), bytes, 0});
      held_ += bytes;
      bytes_held_.store(held_, std::memory_order_relaxed);
      idx = static_cast<std::uint32_t>(blocks_.size() - 1);
      // Keep the index lists' capacity >= block count so the hot-path moves
      // between live_ and free_ never heap-allocate.
      live_.reserve(blocks_.size());
      free_.reserve(blocks_.size());
    }
    live_.push_back(idx);
    current_ = blocks_[idx].mem.get();
    current_bytes_ = blocks_[idx].bytes;
    offset_ = 0;
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;          // all blocks ever mapped (stable indices)
  std::vector<std::uint32_t> live_;    // opened blocks, in open order; back() is current
  std::vector<std::uint32_t> free_;    // recyclable blocks
  std::byte* current_ = nullptr;
  std::size_t current_bytes_ = 0;  // size of the current block
  std::size_t offset_ = 0;
  std::size_t held_ = 0;           // sum of block sizes (owner's copy)
  std::uint64_t epoch_ = 0;
  const std::atomic<std::uint64_t>* completed_upto_ = nullptr;
  std::atomic<std::size_t> bytes_held_{0};
};

}  // namespace nabbitc::rt
