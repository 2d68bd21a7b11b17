#include "prefetch/extrapolator.h"

#include <algorithm>
#include <cmath>

namespace dbtouch::prefetch {

GestureExtrapolator::GestureExtrapolator(const ExtrapolatorConfig& config)
    : config_(config) {}

void GestureExtrapolator::Observe(sim::Micros now, storage::RowId row) {
  if (!has_observation_) {
    has_observation_ = true;
    last_time_ = now;
    last_row_ = row;
    velocity_ = 0.0;
    run_.assign(1, Sample{now, row});
    return;
  }
  const sim::Micros dt = now - last_time_;
  if (dt > 0) {
    const double inst = static_cast<double>(row - last_row_) /
                        sim::MicrosToSeconds(dt);
    velocity_ = config_.smoothing * inst +
                (1.0 - config_.smoothing) * velocity_;
    has_step_ = true;
    // A step across a pause carries no speed: the finger rested, and the
    // move that ends the pause says little about the next one. The
    // movement run restarts from here.
    const bool across_pause =
        sim::MicrosToSeconds(dt) > config_.pause_after_s;
    resting_ = across_pause || row == last_row_;
    if (across_pause) {
      run_.clear();
    }
    run_.push_back(Sample{now, row});
    if (run_.size() > kStepWindow + 1) {
      run_.erase(run_.begin());
    }
    const Sample& oldest = run_.front();
    step_velocity_ =
        run_.size() < 2 ? 0.0
                        : static_cast<double>(row - oldest.row) /
                              sim::MicrosToSeconds(now - oldest.t);
  }
  last_time_ = now;
  last_row_ = row;
}

void GestureExtrapolator::ObserveClaimRate(double rate) {
  rate = std::clamp(rate, 0.0, 1.0);
  if (!has_claim_rate_) {
    has_claim_rate_ = true;
    claim_rate_ = rate;
    return;
  }
  claim_rate_ = config_.smoothing * rate +
                (1.0 - config_.smoothing) * claim_rate_;
}

double GestureExtrapolator::horizon_scale() const {
  if (!has_claim_rate_) {
    return 1.0;
  }
  // Linear in the claim rate: 0 -> 0.5 (stop outrunning the cache),
  // 1 -> 2.0 (warm-ups all land and get used; reach further).
  return 0.5 + 1.5 * claim_rate_;
}

bool GestureExtrapolator::IsPaused(sim::Micros now) const {
  if (!has_observation_) {
    return true;
  }
  return sim::MicrosToSeconds(now - last_time_) > config_.pause_after_s ||
         resting_;
}

RowRange GestureExtrapolator::PredictRange(sim::Micros now, double horizon_s,
                                           std::int64_t n) const {
  RowRange out;
  if (!has_observation_ || n <= 0) {
    out.first = 0;
    out.last = -1;
    return out;
  }
  const auto clamp_row = [n](double r) {
    return std::clamp<storage::RowId>(
        static_cast<storage::RowId>(std::llround(r)), 0, n - 1);
  };
  if (IsPaused(now)) {
    // Unknown resumption direction: symmetric neighbourhood sized by the
    // last known speed (at least a small window).
    const double reach =
        std::max(std::abs(velocity_) * horizon_s / 2.0, 16.0);
    out.first = clamp_row(static_cast<double>(last_row_) - reach);
    out.last = clamp_row(static_cast<double>(last_row_) + reach);
    return out;
  }
  const double target =
      static_cast<double>(last_row_) + velocity_ * horizon_s;
  if (velocity_ >= 0.0) {
    out.first = last_row_;
    out.last = clamp_row(target);
  } else {
    out.first = clamp_row(target);
    out.last = last_row_;
  }
  return out;
}

std::vector<storage::RowId> GestureExtrapolator::PredictTouches(
    sim::Micros now, double horizon_s, double event_hz,
    std::int64_t n) const {
  std::vector<storage::RowId> rows;
  if (!has_step_ || n <= 0 || event_hz <= 0.0 || IsPaused(now)) {
    return rows;
  }
  const double per_event = step_velocity_ / event_hz;
  // The epsilon keeps a horizon of exactly k events from rounding up to
  // k + 1 through floating-point error.
  const auto events = std::max<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(horizon_s * event_hz - 1e-9)), 1);
  storage::RowId previous = last_row_;
  for (std::int64_t i = 1; i <= events; ++i) {
    const auto target = static_cast<storage::RowId>(std::llround(
        static_cast<double>(last_row_) + per_event * static_cast<double>(i)));
    const storage::RowId row = std::clamp<storage::RowId>(target, 0, n - 1);
    if (row != previous) {  // A slow step may leave an event on its row.
      rows.push_back(row);
      previous = row;
    }
    if (row != target) {
      break;  // Past a column end: later events land there too.
    }
  }
  return rows;
}

void GestureExtrapolator::Reset() {
  has_observation_ = false;
  last_time_ = 0;
  last_row_ = 0;
  velocity_ = 0.0;
  has_step_ = false;
  resting_ = false;
  step_velocity_ = 0.0;
  run_.clear();
  // The claim-rate EWMA survives Reset on purpose: it models the cache's
  // capacity to absorb this object's warm-ups, not the gesture in flight.
}

}  // namespace dbtouch::prefetch
