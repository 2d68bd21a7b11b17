// Running aggregates. In dbTouch an aggregation never sees its whole input
// up front: the user feeds it values one touch at a time, in any order,
// possibly revisiting rows ("a slide gesture ... computes a running
// aggregate and continuously updates this result", Section 2.3). The
// accumulator therefore supports out-of-order and repeated feeding, with
// optional row-dedup so revisits don't skew results.

#ifndef DBTOUCH_EXEC_AGGREGATE_H_
#define DBTOUCH_EXEC_AGGREGATE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::exec {

enum class AggKind : std::uint8_t {
  kCount = 0,
  kSum = 1,
  kAvg = 2,
  kMin = 3,
  kMax = 4,
  kVariance = 5,
  kStdDev = 6,
};

std::string_view AggKindName(AggKind kind);

/// Numerically stable (Welford) streaming accumulator.
class RunningAggregate {
 public:
  explicit RunningAggregate(AggKind kind) : kind_(kind) {}

  // Inline (and kept in one canonical spot): the span kernels replay this
  // exact operation order over whole blocks, and bit-identical results
  // across the scalar and vectorized paths depend on every caller
  // compiling the same sequence of double ops.
  void Add(double v) {
    ++count_;
    sum_ += v;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
    if (v < min_) {
      min_ = v;
    }
    if (v > max_) {
      max_ = v;
    }
  }

  /// Current aggregate value; NaN when empty (except count, which is 0).
  double value() const;

  std::int64_t count() const { return count_; }
  AggKind kind() const { return kind_; }

  void Reset();

 private:
  AggKind kind_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A running aggregate fed by touched rows of one column. Deduplicates
/// rows (a back-and-forth slide revisits data; the aggregate must not
/// count it twice), tracking coverage for progress reporting.
class TouchedAggregateOp {
 public:
  /// Reads go through a paged cursor either way: the ColumnView form wraps
  /// an unpaged (zero-copy) source; the source form lets the kernel feed
  /// the op through the shared BufferManager's block cache.
  TouchedAggregateOp(storage::ColumnView column, AggKind kind)
      : cursor_(column), agg_(kind) {}
  TouchedAggregateOp(std::shared_ptr<storage::PagedColumnSource> source,
                     AggKind kind)
      : cursor_(std::move(source)), agg_(kind) {}

  /// Feeds row `row` if within range and unseen. Returns true when the row
  /// contributed (i.e. it was new).
  bool Feed(storage::RowId row);

  /// Feeds every in-range, unseen row of [first, last] in ascending order:
  /// the same contributions per-row Feed would make, but reading whole
  /// pinned block slices instead of re-probing the cursor per row (the
  /// dedup set is still consulted per row — revisits must not count
  /// twice). Returns how many rows contributed.
  std::int64_t FeedRange(storage::RowId first, storage::RowId last);

  double value() const { return agg_.value(); }
  std::int64_t rows_seen() const { return agg_.count(); }

  /// Fraction of the column's rows fed so far, in [0, 1].
  double coverage() const;

  /// Drops the cursor's working pin (gesture ended — an idle op must not
  /// hold buffer-pool blocks pinned). No-op for unpaged sources.
  void ReleasePin() { cursor_.ReleasePin(); }

  /// Reads on through `source`, which must hold the same values (the
  /// column moved tiers, e.g. after a spill reclaim); state carries over.
  void Rebind(std::shared_ptr<storage::PagedColumnSource> source) {
    cursor_ = storage::PagedColumnCursor(std::move(source));
  }

  void Reset();

 private:
  storage::PagedColumnCursor cursor_;
  RunningAggregate agg_;
  std::unordered_set<storage::RowId> seen_;
};

}  // namespace dbtouch::exec

#endif  // DBTOUCH_EXEC_AGGREGATE_H_
