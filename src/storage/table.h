// Table: a named relation backed by a fixed-width Matrix plus the
// dictionaries of its string attributes. The table owns its layout
// (row-store or column-store); the rotate gesture swaps it.
//
// Out-of-core state: after a verified spill (storage::TableSpiller +
// core::SharedState::SpillTable with reclamation), ReleaseRaw() frees the
// matrix's cell storage and rebinds every remaining reader to per-column
// PagedColumnSource handles — GetValue pins the covering block, the raw
// ColumnView accessors become programmer errors, and the table's resident
// footprint drops to schema + dictionaries. That is what makes "base
// tables exceed RAM" literal: the BufferManager's byte budget bounds the
// only copies of base data left in memory.

#ifndef DBTOUCH_STORAGE_TABLE_H_
#define DBTOUCH_STORAGE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/matrix.h"
#include "storage/paged_column.h"
#include "storage/schema.h"

namespace dbtouch::storage {

class Table {
 public:
  Table(std::string name, Schema schema,
        MajorOrder order = MajorOrder::kColumnMajor);

  /// Bulk-builds a table from equal-length columns (the generator path).
  /// Dictionaries are taken over from the string columns.
  static Result<std::shared_ptr<Table>> FromColumns(
      std::string name, std::vector<Column> columns,
      MajorOrder order = MajorOrder::kColumnMajor);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::int64_t row_count() const { return storage_.row_count(); }
  MajorOrder layout() const { return storage_.order(); }

  /// Appends one tuple; string Values are interned into the column's
  /// dictionary. Returns InvalidArgument on arity/type mismatch and
  /// FailedPrecondition after ReleaseRaw (spilled tables are frozen).
  Status AppendRow(const std::vector<Value>& row);

  /// Cell with string decoding. Released tables serve this through the
  /// paged tier (one block pin per read); a paged read that fails past its
  /// bounded retries CHECK-fails — gesture paths that can shed pre-pin
  /// their blocks via the kernel's residency probe instead.
  Value GetValue(RowId row, std::size_t col) const;

  /// Strided view over column `col` with its dictionary attached.
  /// CHECK-fails on a released table — raw views cannot outlive the
  /// matrix; converted readers go through PagedColumnAt.
  ColumnView ColumnViewAt(std::size_t col) const;
  Result<ColumnView> ColumnViewByName(const std::string& name) const;

  /// Runs `fn` over column `col`'s raw view while holding the release
  /// lock shared, so ReleaseRaw cannot free the matrix mid-read. Returns
  /// FailedPrecondition once the raw storage is gone — the caller's cue
  /// to fail the read cleanly (cache::TableBlockProvider turns it into a
  /// permanent fetch error that sheds one gesture, not a session).
  Status WithRawColumn(
      std::size_t col, const std::function<Status(const ColumnView&)>& fn) const;

  /// Paged (block-at-a-time) access to column `col`: zero-copy slices of
  /// the in-memory storage, `rows_per_block` rows each (0 = one block).
  /// cache::BufferManager provides the bounded-memory equivalent backed by
  /// a block cache; both satisfy the same PagedColumnSource interface.
  /// On a released table this returns the column's rebind source (its
  /// fixed block geometry wins over `rows_per_block`). Resident-table
  /// sources are release-gated: live pins make a concurrent ReleaseRaw
  /// fail cleanly, and pins attempted after a release fail instead of
  /// slicing a freed matrix. The source borrows this table — callers
  /// (kernel object state, operators) hold the owning shared_ptr.
  std::shared_ptr<PagedColumnSource> PagedColumnAt(
      std::size_t col, std::int64_t rows_per_block = 0) const;

  const std::shared_ptr<Dictionary>& dictionary(std::size_t col) const {
    return dictionaries_[col];
  }

  /// Deep-copies column `col` out of the table (the paper's "drag a column
  /// out of a fat table" gesture produces one of these). Reads through the
  /// paged tier on a released table.
  Column ExtractColumn(std::size_t col) const;

  /// Read access for the layout manager; swaps go through ReplaceStorage.
  const Matrix& storage() const { return storage_; }

  /// Swaps in a replacement matrix (must have the same schema and row
  /// count); used when a layout rotation completes. FailedPrecondition on
  /// a released table (its data lives in the spill files; there is no
  /// matrix to rotate) and while zero-copy pins are live (moving the
  /// matrix would dangle their views; `replacement` is left intact for a
  /// retry once gestures pause).
  Status ReplaceStorage(Matrix&& replacement);

  // ---- Spill reclamation ---------------------------------------------------

  /// Frees the matrix's cell storage and rebinds point reads to `paged`
  /// (one source per column, same order as the schema; geometries must
  /// match the table). Raw readers racing the release either drain first
  /// (transient reads — GetValue's matrix branch, WithRawColumn — hold
  /// the gate shared, which this takes exclusively) or make the release
  /// fail cleanly (a zero-copy PagedColumnAt pin still live: freeing
  /// under it would dangle the pinned view, so the caller retries once
  /// gestures pause). After the flip, raw reads and pins fail cleanly
  /// and GetValue pins pool blocks. A second call is FailedPrecondition.
  Status ReleaseRaw(std::vector<std::shared_ptr<PagedColumnSource>> paged);

  /// True once ReleaseRaw has run.
  bool raw_released() const {
    return raw_released_.load(std::memory_order_acquire);
  }

  /// Bytes of raw cell storage still resident (0 after ReleaseRaw) — the
  /// number tests assert drops when a spill reclaims.
  std::int64_t resident_raw_bytes() const {
    return static_cast<std::int64_t>(storage_.byte_size());
  }

 private:
  friend class GatedTableColumnSource;

  std::string name_;
  Schema schema_;
  Matrix storage_;
  std::vector<std::shared_ptr<Dictionary>> dictionaries_;

  /// Release gate: raw readers (GetValue's matrix branch, WithRawColumn)
  /// hold it shared for the duration of each access; ReleaseRaw holds it
  /// exclusive while freeing, so reclamation waits for active readers
  /// instead of freeing under them.
  mutable std::shared_mutex raw_mu_;
  std::atomic<bool> raw_released_{false};
  /// Live zero-copy pins into the matrix (GatedTableColumnSource),
  /// registered under raw_mu_ held shared. ReleaseRaw and ReplaceStorage
  /// refuse to free or move the matrix while any exist.
  mutable std::atomic<std::int64_t> zero_copy_pins_{0};
  /// Per-column paged rebinds, set once by ReleaseRaw and immutable after
  /// (readers see them only behind the acquire-load of raw_released_).
  std::vector<std::shared_ptr<PagedColumnSource>> paged_rebind_;
};

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_TABLE_H_
