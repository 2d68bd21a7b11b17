// Gesture extrapolation: "dbTouch can extrapolate the gesture progression
// (speed and direction) and fetch the expected entries such that they are
// readily available if the gesture resumes" (Section 2.6 "Prefetching
// Data").
//
// The extrapolator observes (time, row) pairs from slide steps. A moving
// finger does not read the rows it passes over: the device registers
// touch events at a fixed rate (~15/s), and each event reads only the
// entries under the finger at that instant. So the prediction that drives
// warm-ups is a set of points, not a stretch: PredictTouches returns the
// rows the next registered events will land on, stepping from the last
// observed row by the per-event displacement (rows advanced per event at
// the device's event rate). A fast sweep's events land many blocks apart,
// and warming the blocks between them would only churn the cache; a slow
// slide's events land in adjacent blocks, so the points cover the same
// contiguous stretch a range prediction would.
//
// The displacement comes from the last few steps (kStepWindow), not from
// the smoothed velocity: a slide lasts 6-18 events, and the EWMA lags the
// finger by several events and aims at the wrong blocks. One step alone
// carries the device's position quantisation (a constant-speed slide
// advances alternately n and n + 1 points per event), which moves the
// predicted row by a point, a sizeable part of a block on a tall column.
//
// A paused finger has no direction to extrapolate: no event for
// pause_after_s, or a last step that moved no row or that ended such a
// gap (a stationary finger registers no events, so a pause shows as one
// long step). PredictRange then returns the symmetric neighbourhood of
// the current row.

#ifndef DBTOUCH_PREFETCH_EXTRAPOLATOR_H_
#define DBTOUCH_PREFETCH_EXTRAPOLATOR_H_

#include <cstdint>
#include <vector>

#include "sim/virtual_clock.h"
#include "storage/types.h"

namespace dbtouch::prefetch {

struct ExtrapolatorConfig {
  /// EWMA weight of the newest velocity sample.
  double smoothing = 0.3;
  /// Gap (s) after which the gesture is considered paused; velocity decays
  /// rather than projecting stale movement forward.
  double pause_after_s = 0.25;
};

struct RowRange {
  storage::RowId first = 0;  // inclusive
  storage::RowId last = 0;   // inclusive

  bool empty() const { return last < first; }
  std::int64_t size() const { return empty() ? 0 : last - first + 1; }
};

class GestureExtrapolator {
 public:
  explicit GestureExtrapolator(const ExtrapolatorConfig& config = {});

  /// Feeds the row just touched at `now`.
  void Observe(sim::Micros now, storage::RowId row);

  /// Feeds the cache's claimed-before-eviction score for this object's
  /// warm-ups: the fraction of staged prefetches a pin claimed before the
  /// staging cap dropped them (1.0 = every warm-up paid off). Smoothed
  /// with the same EWMA weight as the velocity.
  void ObserveClaimRate(double rate);

  /// Horizon multiplier derived from the claim rate, in [0.5, 2.0]: a
  /// fully claimed warm-up stream doubles the look-ahead, one that mostly
  /// dies unclaimed halves it. 1.0 before any feedback.
  double horizon_scale() const;

  /// Smoothed velocity in rows/second; signed (negative = sliding towards
  /// smaller row ids).
  double velocity_rows_per_s() const { return velocity_; }

  /// True when no movement has been observed for pause_after_s, or the
  /// last step moved no row or took longer than pause_after_s (the finger
  /// rests, or just resumed from a rest).
  bool IsPaused(sim::Micros now) const;

  /// Predicted touch range over the next `horizon_s` seconds from the last
  /// observed row, clamped to [0, n). During a pause the prediction is the
  /// neighbourhood of the current row (the user is inspecting; resumption
  /// direction is unknown, so prefetch symmetrically).
  RowRange PredictRange(sim::Micros now, double horizon_s,
                        std::int64_t n) const;

  /// Rows the next ceil(horizon_s * event_hz) registered events (at least
  /// one) will touch, nearest first: the last observed row advanced by
  /// the per-event displacement of the last kStepWindow steps, once per
  /// event, clamped to [0, n). Stops at the column end, and skips an event that lands on
  /// the row before it, so no row repeats. Empty before the first step
  /// (one observation gives no direction) and while paused (see
  /// PredictRange).
  std::vector<storage::RowId> PredictTouches(sim::Micros now,
                                             double horizon_s,
                                             double event_hz,
                                             std::int64_t n) const;

  void Reset();

 private:
  ExtrapolatorConfig config_;
  bool has_observation_ = false;
  sim::Micros last_time_ = 0;
  storage::RowId last_row_ = 0;
  double velocity_ = 0.0;
  /// Steps the point prediction's velocity spans: enough to average out
  /// the device's position quantisation (a constant-speed slide advances
  /// alternately n and n + 1 points per event), few enough to follow a
  /// speed change within a few events.
  static constexpr std::size_t kStepWindow = 3;
  struct Sample {
    sim::Micros t = 0;
    storage::RowId row = 0;
  };
  /// The latest observations of the current movement run (since the first
  /// observation or the last pause), oldest first; at most kStepWindow + 1.
  std::vector<Sample> run_;
  /// Velocity (rows/s) over run_, 0 until the run has a step; meaningful
  /// once has_step_.
  bool has_step_ = false;
  double step_velocity_ = 0.0;
  /// The last step moved no row or ended a pause.
  bool resting_ = false;
  bool has_claim_rate_ = false;
  double claim_rate_ = 1.0;
};

}  // namespace dbtouch::prefetch

#endif  // DBTOUCH_PREFETCH_EXTRAPOLATOR_H_
