#include "sampling/sample_hierarchy.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"

namespace dbtouch::sampling {

using storage::Column;
using storage::ColumnView;
using storage::RowId;

SampleHierarchy::SampleHierarchy(ColumnView base,
                                 const SampleHierarchyConfig& config,
                                 const LevelReach& reach)
    : SampleHierarchy(base,
                      std::make_shared<storage::UnpagedColumnSource>(base),
                      config, reach) {}

SampleHierarchy::SampleHierarchy(
    ColumnView base, std::shared_ptr<storage::PagedColumnSource> reads,
    const SampleHierarchyConfig& config, const LevelReach& reach)
    : base_(base), reads_(std::move(reads)), config_(config) {
  DBTOUCH_CHECK(reads_ != nullptr);
  DBTOUCH_CHECK(reads_->type() == base_.type());
  DBTOUCH_CHECK(reads_->row_count() == base_.row_count());
  Init(reach);
}

SampleHierarchy::SampleHierarchy(
    std::shared_ptr<storage::PagedColumnSource> base,
    const SampleHierarchyConfig& config, const LevelReach& reach)
    : paged_base_(std::move(base)), config_(config) {
  DBTOUCH_CHECK(paged_base_ != nullptr);
  // Metadata-only view: null data, real type/row-count/dictionary. Level
  // geometry questions read it; cell reads go through paged_base_.
  base_ = ColumnView(paged_base_->type(), nullptr,
                     storage::TypeWidth(paged_base_->type()),
                     paged_base_->row_count(), paged_base_->dictionary());
  reads_ = paged_base_;
  Init(reach);
}

void SampleHierarchy::Init(const LevelReach& reach) {
  // Count how many levels clear the minimum-row threshold.
  int levels = 1;
  while (levels <= config_.max_level &&
         (base_.row_count() >> levels) >= config_.min_level_rows) {
    ++levels;
  }
  num_levels_ = levels;
  levels_.reserve(static_cast<std::size_t>(num_levels_ - 1));
  for (int l = 1; l < num_levels_; ++l) {
    levels_.emplace_back("sample", base_.type());
  }
  built_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(num_levels_));
  built_[0].store(true, std::memory_order_relaxed);
  eager_floor_ = std::max(
      1, FinestReachableLevel(base_.row_count(), reach.max_positions,
                              num_levels_, reach.policy));
  if (config_.eager) {
    const std::lock_guard<std::mutex> lock(build_mu_);
    for (int l = eager_floor_; l < num_levels_; ++l) {
      BuildLocked(l);
    }
  }
}

bool SampleHierarchy::IsMaterialized(int level) const {
  DBTOUCH_CHECK(level >= 0 && level < num_levels_);
  return built_[static_cast<std::size_t>(level)].load(
      std::memory_order_acquire);
}

void SampleHierarchy::EnsureLevel(int level) {
  if (IsMaterialized(level)) {
    return;
  }
  const std::lock_guard<std::mutex> lock(build_mu_);
  BuildLocked(level);
}

void SampleHierarchy::BuildLocked(int level) {
  if (IsMaterialized(level)) {
    return;  // A racing caller built it while this one waited.
  }
  // Stride the nearest finer level already built — halving when it is
  // the level just below — else the base. Only `level` is built: the
  // levels in between may be ones no touch ever reads.
  int from = level - 1;
  while (from > 0 && !IsMaterialized(from)) {
    --from;
  }
  // One read path for every source tier: a paged base strides over
  // pinned blocks (the cursor keeps the block under the read pinned, so a
  // stride smaller than a block re-pins nothing and the build streams
  // through the cache); in-memory levels wrap in zero-copy cursors.
  storage::PagedColumnCursor src =
      from == 0 ? storage::PagedColumnCursor(reads_)
                : storage::PagedColumnCursor(
                      levels_[static_cast<std::size_t>(from - 1)].View());
  const int shift = level - from;
  Column& dst = levels_[static_cast<std::size_t>(level - 1)];
  const std::int64_t rows = LevelRows(level);
  dst.Reserve(rows);
  for (std::int64_t s = 0; s < rows; ++s) {
    const RowId src_row = s << shift;
    switch (base_.type()) {
      case storage::DataType::kInt32:
      case storage::DataType::kString:
        dst.AppendInt32(src.GetInt32(src_row));
        break;
      case storage::DataType::kInt64:
        dst.AppendInt64(src.GetInt64(src_row));
        break;
      case storage::DataType::kFloat:
        dst.AppendFloat(src.GetFloat(src_row));
        break;
      case storage::DataType::kDouble:
        dst.AppendDouble(src.GetDouble(src_row));
        break;
    }
  }
  built_[static_cast<std::size_t>(level)].store(true,
                                                std::memory_order_release);
}

ColumnView SampleHierarchy::LevelView(int level) {
  DBTOUCH_CHECK(level >= 0 && level < num_levels_);
  if (level == 0) {
    // A paged base has no raw whole-column view; base-fidelity readers
    // hold the paged source instead (kernel objects, zone-map builds).
    DBTOUCH_CHECK(!base_is_paged());
    return base_;
  }
  EnsureLevel(level);
  // Re-attach the base dictionary so string samples still decode.
  const Column& c = levels_[static_cast<std::size_t>(level - 1)];
  return ColumnView(c.type(), c.raw_data(), c.width(), c.row_count(),
                    base_.dictionary());
}

std::int64_t SampleHierarchy::LevelRows(int level) const {
  DBTOUCH_CHECK(level >= 0 && level < num_levels_);
  if (level == 0) {
    return base_.row_count();
  }
  // ceil(base / 2^level): row 0 is always sampled.
  const std::int64_t stride = LevelStride(level);
  return (base_.row_count() + stride - 1) / stride;
}

RowId SampleHierarchy::ToBaseRow(int level, RowId sample_row) const {
  DBTOUCH_CHECK(level >= 0 && level < num_levels_);
  return sample_row << level;
}

RowId SampleHierarchy::FromBaseRow(int level, RowId base_row) const {
  DBTOUCH_CHECK(level >= 0 && level < num_levels_);
  const RowId clamped =
      std::clamp<RowId>(base_row, 0, std::max<RowId>(base_.row_count() - 1, 0));
  return clamped >> level;
}

std::size_t SampleHierarchy::sample_bytes() const {
  std::size_t total = 0;
  for (int l = 1; l < num_levels_; ++l) {
    if (IsMaterialized(l)) {
      total += levels_[static_cast<std::size_t>(l - 1)].raw_size();
    }
  }
  return total;
}

std::shared_ptr<storage::PagedColumnSource> SampleHierarchy::base_source() {
  const std::lock_guard<std::mutex> lock(build_mu_);
  return reads_;
}

void SampleHierarchy::RebindBase(
    std::shared_ptr<storage::PagedColumnSource> base) {
  DBTOUCH_CHECK(base != nullptr);
  DBTOUCH_CHECK(base->type() == base_.type());
  DBTOUCH_CHECK(base->row_count() == base_.row_count());
  const std::lock_guard<std::mutex> lock(build_mu_);
  // Copy the levels touches read out of the raw base while it is still
  // resident; the finer ones stay unbuilt, and their first use strides
  // the paged base through the pool.
  for (int l = eager_floor_; l < num_levels_; ++l) {
    BuildLocked(l);
  }
  // base_ keeps its (now stale) data pointer but is never dereferenced
  // again: LevelView(0) CHECKs base_is_paged, and builds read reads_.
  // Leaving the view untouched means concurrent readers of its metadata
  // (row counts, type, dictionary) race with nothing.
  reads_ = base;
  paged_base_ = std::move(base);
}

}  // namespace dbtouch::sampling
