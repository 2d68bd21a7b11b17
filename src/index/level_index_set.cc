#include "index/level_index_set.h"

#include <algorithm>

#include "common/macros.h"

namespace dbtouch::index {

LevelIndexSet::LevelIndexSet(sampling::SampleHierarchy* hierarchy,
                             std::int64_t rows_per_zone)
    : hierarchy_(hierarchy), rows_per_zone_(rows_per_zone) {
  DBTOUCH_CHECK(hierarchy != nullptr);
  DBTOUCH_CHECK(rows_per_zone > 0);
  zone_maps_.resize(static_cast<std::size_t>(hierarchy->num_levels()));
  sorted_.resize(static_cast<std::size_t>(hierarchy->num_levels()));
}

const ZoneMap& LevelIndexSet::ZoneMapAt(int level) {
  DBTOUCH_CHECK(level >= 0 && level < hierarchy_->num_levels());
  auto& slot = zone_maps_[static_cast<std::size_t>(level)];
  if (slot == nullptr) {
    // Shrink zone size with the level so zones cover similar object area.
    const std::int64_t rows = std::max<std::int64_t>(
        rows_per_zone_ >> level, 16);
    // The base is read through pinned blocks: its raw view may be gone
    // (spilled) or stale (a rotation replaced the matrix).
    slot = level == 0
               ? std::make_unique<ZoneMap>(hierarchy_->base_source(), rows)
               : std::make_unique<ZoneMap>(hierarchy_->LevelView(level),
                                           rows);
    ++stats_.zone_map_builds;
  }
  ++stats_.zone_map_uses;
  return *slot;
}

const SortedIndex& LevelIndexSet::SortedAt(int level) {
  DBTOUCH_CHECK(level >= 0 && level < hierarchy_->num_levels());
  auto& slot = sorted_[static_cast<std::size_t>(level)];
  if (slot == nullptr) {
    slot = level == 0
               ? std::make_unique<SortedIndex>(hierarchy_->base_source())
               : std::make_unique<SortedIndex>(hierarchy_->LevelView(level));
    ++stats_.sorted_builds;
  }
  ++stats_.sorted_uses;
  return *slot;
}

bool LevelIndexSet::HasZoneMap(int level) const {
  return zone_maps_[static_cast<std::size_t>(level)] != nullptr;
}

bool LevelIndexSet::HasSorted(int level) const {
  return sorted_[static_cast<std::size_t>(level)] != nullptr;
}

}  // namespace dbtouch::index
