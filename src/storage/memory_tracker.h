// MemoryTracker: the resident-bytes accounting seam for raw column
// storage. Every byte buffer that can hold base data — a Table's Matrix
// and every standalone Column (generator outputs, sample-hierarchy level
// copies) — reports its allocation size here, so "how much raw column
// data is actually resident" is one number the server can surface and
// tests can assert against.
//
// The point of the seam is the spill tier: after
// core::SharedState::SpillTable releases a spilled table's matrix, the
// tracked matrix bytes for that table drop to ~0 and the BufferManager's
// byte budget becomes the only bound on base-data residency. What stays
// in column_bytes is the sample levels the level policy can reach —
// about twice the finest such level, KBs per column — not a copy of the
// column. Without the tracker those claims are unfalsifiable; with it,
// CI asserts them (tests/reclaim_test.cc, bench_cache's
// ABL-CACHE-RECLAIM report).
//
// Thread-safety: counters are relaxed atomics — buffers grow and free on
// whatever thread owns them; readers want a cheap, monotonic-enough
// snapshot, not a fence.

#ifndef DBTOUCH_STORAGE_MEMORY_TRACKER_H_
#define DBTOUCH_STORAGE_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dbtouch::storage {

/// What kind of raw storage a buffer holds. Matrices are table cell
/// storage (what SpillTable reclaims); columns are standalone copies
/// (sample levels, extracted columns) that stay resident by design.
enum class MemoryCategory : std::uint8_t { kMatrix = 0, kColumn = 1 };

class MemoryTracker {
 public:
  /// The process-wide tracker every buffer reports to.
  static MemoryTracker& Instance();

  void OnAlloc(MemoryCategory category, std::int64_t bytes);
  void OnFree(MemoryCategory category, std::int64_t bytes);

  /// Bytes currently held by table matrices / standalone columns.
  std::int64_t matrix_bytes() const {
    return matrix_bytes_.load(std::memory_order_relaxed);
  }
  std::int64_t column_bytes() const {
    return column_bytes_.load(std::memory_order_relaxed);
  }
  std::int64_t resident_bytes() const {
    return matrix_bytes() + column_bytes();
  }
  /// High-water mark of resident_bytes() since process start.
  std::int64_t peak_resident_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

 private:
  MemoryTracker() = default;

  std::atomic<std::int64_t> matrix_bytes_{0};
  std::atomic<std::int64_t> column_bytes_{0};
  std::atomic<std::int64_t> peak_bytes_{0};
};

/// Accounting token owned by one byte buffer: Update(n) reports the delta
/// between n and whatever was last reported; destruction reports the
/// buffer gone. Copying a token re-reports the copied size (a copied
/// buffer holds its own bytes); moving transfers the report.
class TrackedBytes {
 public:
  explicit TrackedBytes(MemoryCategory category) : category_(category) {}
  ~TrackedBytes() { Update(0); }

  TrackedBytes(const TrackedBytes& other) : category_(other.category_) {
    Update(other.reported_);
  }
  TrackedBytes& operator=(const TrackedBytes& other) {
    if (this != &other) {
      Update(0);
      category_ = other.category_;
      Update(other.reported_);
    }
    return *this;
  }
  TrackedBytes(TrackedBytes&& other) noexcept
      : category_(other.category_), reported_(other.reported_) {
    other.reported_ = 0;
  }
  TrackedBytes& operator=(TrackedBytes&& other) noexcept {
    if (this != &other) {
      Update(0);
      category_ = other.category_;
      reported_ = other.reported_;
      other.reported_ = 0;
    }
    return *this;
  }

  /// Reports that the owning buffer now holds `bytes` bytes.
  void Update(std::size_t bytes);

  std::size_t reported() const { return reported_; }

 private:
  MemoryCategory category_;
  std::size_t reported_ = 0;
};

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_MEMORY_TRACKER_H_
