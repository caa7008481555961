// arena.h — a monotonic bump arena for per-shard scratch vectors.
//
// The pipeline add-loops build short-lived working memory for every record
// batch (the sanitizer's observation and run lists, the CDN analyzer's
// one slab of flattened tuples, radix ping-pong buffer and histograms).
// With the default allocator each call pays a malloc/free round trip per
// buffer; with an arena the shard reuses one contiguous slab: reset() at
// the top of each call rewinds the bump pointer and the buffers land in
// already-hot memory. Blocks are not zero-filled, so the pages of a block
// that a call never reaches are never touched.
//
// Usage pattern (single-threaded per shard, like all analyzer state):
//
//   arena_.reset();
//   ArenaVector<Tuple> tuples{ArenaAllocator<Tuple>(arena_)};
//   tuples.reserve(n);
//
// reset() keeps the largest block, so steady state does no allocation at
// all. Deallocation is a no-op; memory is reclaimed only by reset() or
// destruction, which is exactly right for scratch and wrong for anything
// that outlives the call — never store arena-backed containers in merged
// or checkpointed state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dynamips::core {

class MonotonicArena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = std::size_t(1) << 16;

  explicit MonotonicArena(std::size_t first_block_bytes = kDefaultBlockBytes)
      : first_block_bytes_(first_block_bytes ? first_block_bytes
                                             : kDefaultBlockBytes) {}

  // Arenas are per-shard scratch: copying an analyzer copies its
  // configuration, not its working memory, so copies start empty.
  MonotonicArena(const MonotonicArena& other)
      : first_block_bytes_(other.first_block_bytes_) {}
  MonotonicArena& operator=(const MonotonicArena&) { return *this; }
  MonotonicArena(MonotonicArena&&) = default;
  MonotonicArena& operator=(MonotonicArena&&) = default;

  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    for (;;) {
      if (cur_ < blocks_.size()) {
        Block& b = blocks_[cur_];
        std::uintptr_t base = reinterpret_cast<std::uintptr_t>(b.data.get());
        std::uintptr_t aligned =
            (base + offset_ + align - 1) & ~(std::uintptr_t(align) - 1);
        std::size_t off = std::size_t(aligned - base);
        if (off + bytes <= b.size) {
          offset_ = off + bytes;
          return b.data.get() + off;
        }
        ++cur_;
        offset_ = 0;
        continue;
      }
      std::size_t want = blocks_.empty() ? first_block_bytes_
                                         : blocks_.back().size * 2;
      if (want < bytes + align) want = bytes + align;
      blocks_.push_back(
          {std::make_unique_for_overwrite<std::byte[]>(want), want});
    }
  }

  /// Rewind the bump pointer, keeping only the largest block so repeated
  /// same-shaped calls stabilize into a single allocation-free slab.
  void reset() {
    if (blocks_.size() > 1) {
      std::size_t largest = 0;
      for (std::size_t i = 1; i < blocks_.size(); ++i)
        if (blocks_[i].size > blocks_[largest].size) largest = i;
      Block keep = std::move(blocks_[largest]);
      blocks_.clear();
      blocks_.push_back(std::move(keep));
    }
    cur_ = 0;
    offset_ = 0;
  }

  /// Free every block. The next allocate() starts over from the first
  /// block size; for owners whose scratch would otherwise outlive its use.
  void release() {
    blocks_.clear();
    cur_ = 0;
    offset_ = 0;
  }

  /// Total bytes owned across blocks (tests / diagnostics).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::size_t first_block_bytes_;
  std::vector<Block> blocks_;
  std::size_t cur_ = 0;
  std::size_t offset_ = 0;
};

/// Minimal std allocator over a MonotonicArena. deallocate is a no-op;
/// reclamation happens at MonotonicArena::reset().
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(MonotonicArena& arena) : arena_(&arena) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}

  MonotonicArena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }

 private:
  MonotonicArena* arena_;
};

template <class T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace dynamips::core
