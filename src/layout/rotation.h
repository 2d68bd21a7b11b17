// Incremental layout rotation (paper Section 2.8): "Rotating a
// row-oriented table changes its physical layout to a column-store
// structure ... Changing the layout can be done in steps as it is in
// general an expensive operation, requiring a full copy of the data."
//
// IncrementalRotator builds the target-order matrix chunk by chunk; each
// Step() converts a bounded number of rows so the per-touch latency budget
// holds. Reads keep hitting the old layout until Finish() swaps storage —
// the conversion is invisible except for its progress.

#ifndef DBTOUCH_LAYOUT_ROTATION_H_
#define DBTOUCH_LAYOUT_ROTATION_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "storage/matrix.h"
#include "storage/table.h"

namespace dbtouch::layout {

class IncrementalRotator {
 public:
  /// Prepares rotation of `table` to `target` order, converting at most
  /// `rows_per_step` rows per Step() call. The table must outlive the
  /// rotator, and its row count must not change while rotating.
  IncrementalRotator(storage::Table* table, storage::MajorOrder target,
                     std::int64_t rows_per_step);

  /// True when the table is already in the target order (nothing to do).
  bool IsNoop() const;

  /// Converts the next chunk. Returns true when conversion has finished
  /// (call Finish() to swap). Safe to call after completion.
  bool Step();

  /// Rows converted so far.
  std::int64_t rows_converted() const { return rows_converted_; }
  double progress() const;
  bool done() const { return rows_converted_ >= total_rows_; }

  /// Swaps the rotated matrix into the table. FailedPrecondition unless
  /// done(), or while readers hold zero-copy pins into the old matrix
  /// (the converted matrix is kept; retry once gestures pause). After a
  /// successful Finish() the rotator is spent.
  Status Finish();

 private:
  storage::Table* table_;  // Not owned.
  storage::MajorOrder target_;
  std::int64_t rows_per_step_;
  std::int64_t total_rows_;
  std::int64_t rows_converted_ = 0;
  std::unique_ptr<storage::Matrix> scratch_;
  bool finished_ = false;
};

/// Monolithic rotation (the baseline the incremental path is measured
/// against): one full-copy transpose, blocking.
Status RotateMonolithic(storage::Table* table, storage::MajorOrder target);

}  // namespace dbtouch::layout

#endif  // DBTOUCH_LAYOUT_ROTATION_H_
