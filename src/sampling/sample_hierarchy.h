// SampleHierarchy: "store separately various different samples of the base
// data and depending on the object size and gesture speed feed from the
// proper copy, minimizing the auxiliary data reads" (paper Section 2.6,
// citing Sciborg's hierarchies of samples).
//
// Level 0 is the base data (never copied). Level l >= 1 materialises every
// 2^l-th tuple densely, so sample row s at level l is base row s << l. The
// power-of-two strides make levels nested: every tuple present at level l
// is also present at all levels below it.
//
// Only the levels the level policy can select are built up front. No
// object is taller than the zoom clamp, so no touch reads below
// FinestReachableLevel (level_policy.h): level 11 for a 4M-row column on
// the default device, while levels 1-10 would hold >99.9% of the sample
// bytes. Given a LevelReach, an eager hierarchy builds [eager_floor(),
// num_levels); a finer level is built on its first LevelView/EnsureLevel,
// from the nearest finer level already built, else from the base. Builds
// run under a per-hierarchy mutex and publish a per-level flag (release);
// readers take an acquire load and no lock, and a built level never
// changes, so sessions share a hierarchy while one of them builds.
//
// The base can live in two places:
//   - a raw ColumnView into the owning table's matrix (LevelView(0)
//     returns it). Builds read it through a PagedColumnSource: a table's
//     release-gated source when the owner's matrix can move (rotation)
//     or be freed (reclaim), else a wrapper over the view itself.
//   - a PagedColumnSource (a spilled/cold column): level builds pin
//     blocks instead of dereferencing the matrix, and LevelView(0) is a
//     programmer error — base-fidelity reads go through the paged source
//     the kernel already holds. RebindBase flips an in-memory hierarchy
//     to this mode before its matrix is reclaimed; later builds stream
//     the base through the buffer pool, within its byte budget.

#ifndef DBTOUCH_SAMPLING_SAMPLE_HIERARCHY_H_
#define DBTOUCH_SAMPLING_SAMPLE_HIERARCHY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sampling/level_policy.h"
#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::sampling {

struct SampleHierarchyConfig {
  /// Highest materialisable level (stride 2^max_level).
  int max_level = 16;
  /// Levels whose sample would fall below this row count are not built;
  /// tiny samples cost more in bookkeeping than they save in reads.
  std::int64_t min_level_rows = 256;
  /// If true, the constructor materialises every reachable level (see
  /// LevelReach); otherwise levels are built on first use (EnsureLevel),
  /// modelling the paper's "incrementally create a new copy ... to answer
  /// future queries".
  bool eager = true;
};

/// What a level policy can select from a hierarchy: no object over it
/// offers more than `max_positions` touchable positions, and levels are
/// chosen by `policy`. Levels finer than FinestReachableLevel are left to
/// a build on first use. `max_positions` <= 0 makes every level reachable.
struct LevelReach {
  std::int64_t max_positions = 0;
  LevelPolicyConfig policy;
};

class SampleHierarchy {
 public:
  /// Builds over `base`. The view must outlive the hierarchy: every level
  /// build reads it.
  SampleHierarchy(storage::ColumnView base,
                  const SampleHierarchyConfig& config = {},
                  const LevelReach& reach = {});

  /// Builds over `base`, reading it only through `reads` — a source over
  /// the same column whose pins stay valid when the view does not (a
  /// table's release-gated source: layout rotation and spill reclaim
  /// wait for, or fail cleanly against, a build's pin). LevelView(0)
  /// still returns `base`.
  SampleHierarchy(storage::ColumnView base,
                  std::shared_ptr<storage::PagedColumnSource> reads,
                  const SampleHierarchyConfig& config,
                  const LevelReach& reach);

  /// Builds over a paged base — the out-of-core rebuild path: level copies
  /// are filled by pinning blocks of `base` (streamed through whatever
  /// cache backs it), never by dereferencing a raw matrix pointer.
  SampleHierarchy(std::shared_ptr<storage::PagedColumnSource> base,
                  const SampleHierarchyConfig& config = {},
                  const LevelReach& reach = {});

  /// Number of addressable levels (level 0 always exists).
  int num_levels() const { return num_levels_; }

  /// First level the level policy can select, built up front by an eager
  /// hierarchy and before a reclaim; finer levels are built on first use.
  /// 1 when every level is reachable.
  int eager_floor() const { return eager_floor_; }

  /// True once level `level`'s sample copy is materialised (level 0 always
  /// is, being the base itself).
  bool IsMaterialized(int level) const;

  /// Materialises `level` alone if needed, from the nearest finer level
  /// already built (else the base). Safe from any thread.
  void EnsureLevel(int level);

  /// View of the rows at `level`. Materialises lazily if needed.
  /// CHECK-fails for level 0 of a paged-base hierarchy (there is no raw
  /// whole-column view to return); use base_source() there.
  storage::ColumnView LevelView(int level);

  /// Rows at `level` without materialising it.
  std::int64_t LevelRows(int level) const;

  /// Stride in base rows between consecutive sample rows at `level`.
  std::int64_t LevelStride(int level) const { return std::int64_t{1} << level; }

  /// Base row backing sample row `sample_row` of `level`.
  storage::RowId ToBaseRow(int level, storage::RowId sample_row) const;

  /// Sample row at `level` nearest to (at or before) `base_row`.
  storage::RowId FromBaseRow(int level, storage::RowId base_row) const;

  /// Bytes held by materialised sample copies (excludes the base).
  std::size_t sample_bytes() const;

  /// True when level 0 lives behind a PagedColumnSource (spilled base).
  bool base_is_paged() const { return paged_base_ != nullptr; }

  /// The base as level builds read it (see the file comment). Base-level
  /// indexes scan it too, so they never read a view a layout rotation or
  /// a reclaim has freed.
  std::shared_ptr<storage::PagedColumnSource> base_source();

  /// Switches level 0 from the raw base view to `base` — the spill
  /// reclamation step. The reachable levels [eager_floor(), num_levels)
  /// are materialised first, while the raw base is still resident (the
  /// caller runs this BEFORE releasing the matrix); a build in flight
  /// finishes before the switch, and every later build strides `base`.
  /// `base` must have the same type and row count as the raw base.
  void RebindBase(std::shared_ptr<storage::PagedColumnSource> base);

 private:
  /// Shared tail of the constructors (base_ and reads_ already set).
  void Init(const LevelReach& reach);

  /// Builds `level` unless built. Requires build_mu_.
  void BuildLocked(int level);

  storage::ColumnView base_;
  /// Non-null iff the base is paged. base_ then carries metadata only
  /// (type, row count, dictionary) with a null data pointer.
  std::shared_ptr<storage::PagedColumnSource> paged_base_;
  /// What builds stride when no finer level is built: the base (raw view
  /// wrapper, owner's gated source, or the paged base after a rebind).
  /// Guarded by build_mu_.
  std::shared_ptr<storage::PagedColumnSource> reads_;
  SampleHierarchyConfig config_;
  int num_levels_ = 1;
  int eager_floor_ = 1;
  /// levels_[l-1] holds level l (level 0 is base_). Sized once in Init and
  /// never resized, so a built level's storage never moves.
  std::vector<storage::Column> levels_;
  /// built_[l]: level l is materialised and immutable. Set (release) under
  /// build_mu_ after the level's last byte is written; read (acquire)
  /// without the lock.
  std::unique_ptr<std::atomic<bool>[]> built_;
  std::mutex build_mu_;
};

}  // namespace dbtouch::sampling

#endif  // DBTOUCH_SAMPLING_SAMPLE_HIERARCHY_H_
