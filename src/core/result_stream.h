// ResultStream: dbTouch's result presentation model (paper Section 2.3,
// "Inspecting Results"): "results appear in place, i.e., as if every
// single result value pops up from the position in the data object where
// the raw value responsible for this result lies ... Soon after a result
// value becomes visible, it subsequently fades away."
//
// The stream records every produced result with its on-screen position and
// timestamp; VisibleAt() reconstructs what the user sees at any instant
// (bold for fresh results, faded out after the fade window).
//
// Storage: a session keeps every result for its whole life, so results
// live in fixed-size chunks the stream owns (ResultItems). Appending
// allocates a new chunk every kChunkItems results and never reallocates
// or moves an existing item: no doubling step holds the old and new
// buffers at once or copies megabytes inside one quantum, and references
// (back(), VisibleResult::item) stay valid until Clear(). bytes() reports
// what the stream holds, chunk slack included.

#ifndef DBTOUCH_CORE_RESULT_STREAM_H_
#define DBTOUCH_CORE_RESULT_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/touch_event.h"
#include "sim/virtual_clock.h"
#include "storage/types.h"
#include "storage/value.h"

namespace dbtouch::core {

using ObjectId = std::int64_t;

enum class ResultKind : std::uint8_t {
  kValue = 0,        // Plain scan: one data entry.
  kTuple = 1,        // Table tap: one attribute of a revealed tuple.
  kAggregate = 2,    // Running aggregate update.
  kSummary = 3,      // Interactive summary of a row band.
  kFilterMatch = 4,  // Entry passing the where-restriction.
  kJoinMatch = 5,    // Pair produced by a slide-driven join.
  kGroupUpdate = 6,  // Group-by bucket update.
};

const char* ResultKindName(ResultKind kind);

struct ResultItem {
  ObjectId object = 0;
  sim::Micros timestamp_us = 0;
  /// Where the value pops up (screen cm; shifted sideways from the touch
  /// so the finger does not hide it).
  sim::PointCm screen_position;
  /// Base row responsible for the result (band centre for summaries).
  storage::RowId row = 0;
  storage::Value value;
  /// Summary extras: the base-row band aggregated and how many entries
  /// were actually read to produce it.
  storage::RowId band_first = 0;
  storage::RowId band_last = 0;
  std::int64_t rows_aggregated = 0;
  /// Partial-answer protocol (paper Section 4): a deadline-pressed quantum
  /// answers from the resident sample level with partial = true, then
  /// refinement quanta re-execute at full fidelity as blocks land; each
  /// refinement carries the sequence number of the attempt that produced
  /// it (0 = the initial coarse answer).
  std::int64_t refine_seq = 0;
  /// The small fields share the last word.
  std::uint32_t attribute = 0;
  ResultKind kind = ResultKind::kValue;
  /// True when produced from a sample rather than base data.
  bool approximate = false;
  /// See refine_seq.
  bool partial = false;
};

static_assert(sizeof(ResultItem) <= 120,
              "a session keeps every result: keep ResultItem packed");

/// Append-only sequence of ResultItems stored in fixed-size chunks.
/// Indexing and iteration read like a vector's; appending never moves an
/// existing item, so references into the sequence stay valid until
/// clear().
class ResultItems {
 public:
  /// Results per chunk: 64 x 120 B = 7.5 KiB, measured on touchbench's
  /// flood_summary (see src/server/README.md, "Per-session memory").
  /// A power of two, so indexing is a shift and a mask.
  static constexpr std::size_t kChunkItems = 64;
  /// One chunk's storage plus its slot in the chunk index.
  static constexpr std::size_t kChunkBytes =
      kChunkItems * sizeof(ResultItem) + sizeof(void*);

  /// Just enough for range-for.
  class const_iterator {
   public:
    const_iterator(const ResultItems* items, std::size_t index)
        : items_(items), index_(index) {}
    const ResultItem& operator*() const { return (*items_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const ResultItems* items_;
    std::size_t index_;
  };

  ResultItems() = default;
  ResultItems(const ResultItems&) = delete;
  ResultItems& operator=(const ResultItems&) = delete;
  ~ResultItems() { clear(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const ResultItem& operator[](std::size_t i) const {
    return chunks_[i / kChunkItems]->items[i % kChunkItems];
  }
  ResultItem& operator[](std::size_t i) {
    return chunks_[i / kChunkItems]->items[i % kChunkItems];
  }
  const ResultItem& front() const { return (*this)[0]; }
  const ResultItem& back() const { return (*this)[size_ - 1]; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  void push_back(ResultItem item);
  /// Destroys every item and frees every chunk but the first, which the
  /// next appends reuse.
  void clear();

  /// Bytes held: every allocated chunk (its unused tail included) and the
  /// chunk index.
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(chunks_.size() * sizeof(Chunk) +
                                     chunks_.capacity() *
                                         sizeof(std::unique_ptr<Chunk>));
  }

 private:
  /// Raw storage: items are constructed on append, not with the chunk.
  struct Chunk {
    Chunk() {}
    ~Chunk() {}
    union {
      ResultItem items[kChunkItems];
    };
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

struct VisibleResult {
  const ResultItem* item;
  /// 1.0 = just appeared (bold), decaying linearly to 0.0 at the fade
  /// deadline.
  double opacity;
};

class ResultStream {
 public:
  /// `fade_us`: how long a result stays visible after appearing.
  explicit ResultStream(sim::Micros fade_us = 1'500'000)
      : fade_us_(fade_us) {}

  void Append(ResultItem item) { items_.push_back(std::move(item)); }

  const ResultItems& items() const { return items_; }
  /// Mutable access for refinement tagging: the kernel stamps refine_seq
  /// onto items appended by a just-executed refinement quantum.
  ResultItems& mutable_items() { return items_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(items_.size());
  }
  const ResultItem& back() const { return items_.back(); }
  /// Bytes the stream holds, chunk slack included.
  std::int64_t bytes() const { return items_.bytes(); }

  /// Results still on screen at `now`, most recent last, with opacities.
  std::vector<VisibleResult> VisibleAt(sim::Micros now) const;

  /// Count of items of the given kind.
  std::int64_t CountKind(ResultKind kind) const;

  void Clear() { items_.clear(); }

  sim::Micros fade_us() const { return fade_us_; }

 private:
  sim::Micros fade_us_;
  ResultItems items_;
};

}  // namespace dbtouch::core

#endif  // DBTOUCH_CORE_RESULT_STREAM_H_
