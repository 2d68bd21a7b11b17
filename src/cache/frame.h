// Frames: the page-aligned buffers block payloads live in.
//
// A cold block is read straight into a frame — by one preadv over a run's
// frames for the disk tier, O_DIRECT included — and the frame then moves,
// never copied, into the BlockCache entry that serves its pins. Frames
// come from a FramePool the cache owns: mapped with mmap on first use
// (never pre-touched), recycled through a free list when a block is
// evicted or its last transient pin drops, and unmapped on release only
// when the pool would otherwise keep more than its bound mapped. So the
// fault path performs no heap allocation, no zero-fill and no split copy,
// and a process serving spilled tables holds about the pool budget plus
// the staging pad, not an allocator arena grown by payload churn.

#ifndef DBTOUCH_CACHE_FRAME_H_
#define DBTOUCH_CACHE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace dbtouch::cache {

/// Frame capacities are multiples of this, and frames start on it: covers
/// the page size and the O_DIRECT alignment of common devices.
inline constexpr std::size_t kFrameAlignment = 4096;

constexpr std::size_t AlignUpFrame(std::size_t n) {
  return (n + kFrameAlignment - 1) & ~(kFrameAlignment - 1);
}

class FramePool;

/// Move-only handle on one pooled frame: `capacity()` mapped bytes of
/// which the first `size()` hold a payload. Destroying (or assigning over)
/// a frame hands it back to its pool, which must outlive it.
class Frame {
 public:
  Frame() = default;
  Frame(Frame&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  Frame& operator=(Frame&& other) noexcept;
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
  ~Frame() { Release(); }

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  /// Sets the payload length; must not exceed capacity().
  void set_size(std::size_t size);

 private:
  friend class FramePool;
  Frame(FramePool* pool, std::byte* data, std::size_t capacity)
      : pool_(pool), data_(data), capacity_(capacity) {}
  void Release();

  FramePool* pool_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

struct FramePoolStats {
  /// Bytes mapped now (frames in use plus spares) and the high-water mark.
  std::int64_t mapped_bytes = 0;
  std::int64_t peak_mapped_bytes = 0;
  /// Bytes of frames handed out and not yet released.
  std::int64_t in_use_bytes = 0;
  /// Frames mapped over the pool's lifetime (free-list misses).
  std::int64_t maps = 0;
};

/// Thread-safe source of frames. Spares are kept per capacity for reuse
/// while the pool maps at most `keep_bytes`; a frame released beyond that
/// is unmapped, and a miss that would cross it first unmaps spares of
/// other capacities (they cannot serve it).
class FramePool {
 public:
  explicit FramePool(std::int64_t keep_bytes) : keep_bytes_(keep_bytes) {}
  /// Unmaps the spares. Every frame must have been released.
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// A frame with capacity AlignUpFrame(bytes) (at least one unit) and
  /// size() 0: a recycled spare of that capacity, else a fresh mapping.
  /// Its contents are unspecified. Dies if the mapping fails, as any
  /// other allocation would.
  Frame Acquire(std::size_t bytes);

  FramePoolStats stats() const;

 private:
  friend class Frame;
  void Release(std::byte* data, std::size_t capacity);

  const std::int64_t keep_bytes_;
  mutable std::mutex mu_;
  /// (capacity, address) of released frames; reused newest first.
  std::vector<std::pair<std::size_t, std::byte*>> spares_;
  FramePoolStats stats_;
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_FRAME_H_
