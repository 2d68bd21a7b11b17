#include "sampling/level_policy.h"

#include <algorithm>
#include <cmath>

namespace dbtouch::sampling {

int ChooseLevel(std::int64_t base_rows, std::int64_t distinct_positions,
                double positions_per_event, int num_levels,
                const LevelPolicyConfig& config) {
  if (base_rows <= 0 || distinct_positions <= 0 || num_levels <= 1) {
    return 0;
  }
  const int shed = std::max(config.shed_levels, 0);
  // Base rows between adjacent touch positions.
  double rows_per_position = static_cast<double>(base_rows) /
                             static_cast<double>(distinct_positions);
  // A gesture skipping k positions per event only samples every k-th
  // position; reads can be k times coarser without losing touched entries.
  const double speed = std::max(positions_per_event, 1.0);
  double target_stride =
      rows_per_position * (1.0 + config.speed_weight * (speed - 1.0));
  target_stride *= config.max_overshoot;
  if (target_stride <= 1.0) {
    // Shedding coarsens even when positions resolve individual tuples:
    // under overload a cheaper approximate answer beats a late exact one.
    return std::clamp(shed, 0, num_levels - 1);
  }
  const int level = static_cast<int>(std::floor(std::log2(target_stride)));
  return std::clamp(level + shed, 0, num_levels - 1);
}

int FinestReachableLevel(std::int64_t base_rows, std::int64_t max_positions,
                         int num_levels, const LevelPolicyConfig& config) {
  LevelPolicyConfig unshed = config;
  unshed.shed_levels = 0;
  return ChooseLevel(base_rows, max_positions, 1.0, num_levels, unshed);
}

}  // namespace dbtouch::sampling
