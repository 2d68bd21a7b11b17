// Level selection: "depending on the object size and gesture speed feed
// from the proper copy" (paper Section 2.6).
//
// The driver is the touch granularity: an object of height o cm on a
// device with p distinct positions/cm exposes P = o*p touchable positions
// over n tuples, so consecutive touch positions are n/P base rows apart.
// Feeding from the sample level whose stride matches that distance turns a
// slide into a sequential read of the sample copy. Fast gestures skip
// positions, so their effective stride — and the chosen level — grows.

#ifndef DBTOUCH_SAMPLING_LEVEL_POLICY_H_
#define DBTOUCH_SAMPLING_LEVEL_POLICY_H_

#include <cstdint>

namespace dbtouch::sampling {

struct LevelPolicyConfig {
  /// Never choose a level whose stride exceeds the touch distance by more
  /// than this factor (coarser reads lose entries the user pointed at).
  double max_overshoot = 1.0;
  /// Extra coarsening per unit of gesture speed, in positions skipped per
  /// registered event. 0 disables speed-based coarsening.
  double speed_weight = 1.0;
  /// Load shedding: extra levels dropped on top of the speed-derived
  /// choice. The touch server raises this for a session that is running
  /// behind its frame deadlines, trading precision for latency (the same
  /// trade the paper makes for fast gestures), and lowers it back to 0
  /// once the session catches up.
  int shed_levels = 0;
};

/// Chooses the sample level for a data object of `base_rows` tuples whose
/// visible extent offers `distinct_positions` touchable positions, while
/// the gesture is skipping `positions_per_event` positions per registered
/// touch (1.0 = finger lands on adjacent positions).
///
/// Returns a level in [0, num_levels). Level 0 (base data) is returned
/// whenever positions resolve individual tuples.
int ChooseLevel(std::int64_t base_rows, std::int64_t distinct_positions,
                double positions_per_event, int num_levels,
                const LevelPolicyConfig& config = {});

/// The finest level ChooseLevel can return for an object of `base_rows`
/// tuples that never offers more than `max_positions` touchable positions
/// (the largest zoom extent on the device). ChooseLevel at the slowest
/// speed without shedding: for speed_weight >= 0 neither speed nor shed
/// ever selects a finer level, so levels below this one are never read on
/// the level-policy path and need not be built up front.
int FinestReachableLevel(std::int64_t base_rows, std::int64_t max_positions,
                         int num_levels,
                         const LevelPolicyConfig& config = {});

}  // namespace dbtouch::sampling

#endif  // DBTOUCH_SAMPLING_LEVEL_POLICY_H_
