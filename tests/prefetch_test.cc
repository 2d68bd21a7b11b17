// Unit tests for gesture extrapolation: the range prediction and the
// point prediction of the next touch events.

#include <gtest/gtest.h>

#include "prefetch/extrapolator.h"
#include "sim/virtual_clock.h"

namespace dbtouch::prefetch {
namespace {

using sim::Micros;
using storage::RowId;
using sim::SecondsToMicros;

TEST(ExtrapolatorTest, VelocityConvergesToSteadyRate) {
  GestureExtrapolator ex;
  // 1000 rows per 100ms = 10000 rows/s.
  for (int i = 0; i <= 20; ++i) {
    ex.Observe(i * 100'000, i * 1000);
  }
  EXPECT_NEAR(ex.velocity_rows_per_s(), 10'000.0, 500.0);
}

TEST(ExtrapolatorTest, NegativeVelocityForUpwardSlides) {
  GestureExtrapolator ex;
  for (int i = 0; i <= 10; ++i) {
    ex.Observe(i * 100'000, 100'000 - i * 2000);
  }
  EXPECT_LT(ex.velocity_rows_per_s(), -10'000.0);
}

TEST(ExtrapolatorTest, PredictsForwardRange) {
  GestureExtrapolator ex;
  for (int i = 0; i <= 10; ++i) {
    ex.Observe(i * 100'000, i * 1000);
  }
  const RowRange range = ex.PredictRange(1'000'000, 0.5, 1'000'000);
  EXPECT_EQ(range.first, 10'000);
  // ~0.5s at ~10000 rows/s ahead.
  EXPECT_NEAR(static_cast<double>(range.last), 15'000.0, 1'500.0);
}

TEST(ExtrapolatorTest, PredictsBackwardRangeWhenReversing) {
  GestureExtrapolator ex;
  for (int i = 0; i <= 10; ++i) {
    ex.Observe(i * 100'000, 500'000 - i * 1000);
  }
  const RowRange range = ex.PredictRange(1'000'000, 0.5, 1'000'000);
  EXPECT_EQ(range.last, 490'000);
  EXPECT_LT(range.first, 490'000);
}

TEST(ExtrapolatorTest, PauseDetection) {
  GestureExtrapolator ex;
  ex.Observe(0, 100);
  ex.Observe(100'000, 200);
  EXPECT_FALSE(ex.IsPaused(150'000));
  EXPECT_TRUE(ex.IsPaused(SecondsToMicros(1.0)));
}

TEST(ExtrapolatorTest, PausedPredictionIsSymmetric) {
  GestureExtrapolator ex;
  for (int i = 0; i <= 10; ++i) {
    ex.Observe(i * 100'000, i * 1000);
  }
  const Micros later = SecondsToMicros(5.0);
  const RowRange range = ex.PredictRange(later, 0.5, 1'000'000);
  EXPECT_LT(range.first, 10'000);
  EXPECT_GT(range.last, 10'000);
}

TEST(ExtrapolatorTest, ClampsToColumn) {
  GestureExtrapolator ex;
  ex.Observe(0, 10);
  ex.Observe(100'000, 5);
  const RowRange range = ex.PredictRange(200'000, 10.0, 100);
  EXPECT_GE(range.first, 0);
  EXPECT_LE(range.last, 99);
}

TEST(ExtrapolatorTest, NoObservationsPredictEmpty) {
  GestureExtrapolator ex;
  EXPECT_TRUE(ex.PredictRange(0, 1.0, 1000).empty());
}

TEST(ExtrapolatorTest, ResetForgets) {
  GestureExtrapolator ex;
  ex.Observe(0, 100);
  ex.Observe(100'000, 5000);
  ex.Reset();
  EXPECT_DOUBLE_EQ(ex.velocity_rows_per_s(), 0.0);
  EXPECT_TRUE(ex.PredictRange(200'000, 1.0, 10'000).empty());
}

// ---- Point prediction: the rows the next touch events read ----------------

/// Feeds a slide of `steps` events at the device rate (15 Hz), starting at
/// `start` and advancing `per_event` rows per event.
GestureExtrapolator SlideAt(RowId start, RowId per_event, int steps) {
  GestureExtrapolator ex;
  constexpr Micros kEventUs = 66'667;
  for (int i = 0; i < steps; ++i) {
    ex.Observe(i * kEventUs, start + i * per_event);
  }
  return ex;
}

constexpr double kHz = 15.0;
constexpr Micros kLastEventUs = 4 * 66'667;  // Event 4 of a 5-event slide.

TEST(ExtrapolatorTest, PredictTouchesStepsForwardByThePerEventDisplacement) {
  const GestureExtrapolator ex = SlideAt(1'000, 50'000, 5);  // Last 201'000.
  // 0.25 s at 15 Hz: ceil(3.75) = 4 events ahead.
  const std::vector<RowId> rows =
      ex.PredictTouches(kLastEventUs, 0.25, kHz, 10'000'000);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(rows[i]),
                201'000.0 + 50'000.0 * static_cast<double>(i + 1), 2.0)
        << "event " << i + 1;
  }
}

TEST(ExtrapolatorTest, PredictTouchesCatchesUpWithASpeedChangeInThreeSteps) {
  GestureExtrapolator ex = SlideAt(0, 1'000, 5);  // Slow; last row 4'000.
  Micros t = 4 * 66'667;
  RowId row = 4'000;
  for (int i = 0; i < 3; ++i) {  // Then three steps 20x faster.
    t += 66'667;
    row += 20'000;
    ex.Observe(t, row);
  }
  const std::vector<RowId> rows = ex.PredictTouches(t, 1.0 / kHz, kHz,
                                                    1'000'000);
  ASSERT_EQ(rows.size(), 1u);  // A one-event horizon: one point.
  EXPECT_NEAR(static_cast<double>(rows[0]), 84'000.0, 2.0);
  // The smoothed velocity still lags behind the finger.
  EXPECT_LT(ex.velocity_rows_per_s() / kHz, 15'000.0);
}

TEST(ExtrapolatorTest, PredictTouchesAveragesOutPositionQuantisation) {
  // A constant-speed slide quantised to device points advances 10, 10,
  // 11, 10, 10, 11 points per event (3'000 rows a point): the last step
  // alone would aim 11 points ahead, the window aims at the mean.
  GestureExtrapolator ex;
  RowId row = 0;
  ex.Observe(0, row);
  const int points[] = {10, 10, 11, 10, 10, 11};
  Micros t = 0;
  for (const int p : points) {
    t += 66'667;
    row += p * 3'000;
    ex.Observe(t, row);
  }
  const std::vector<RowId> rows = ex.PredictTouches(t, 1.0 / kHz, kHz,
                                                    1'000'000);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(static_cast<double>(rows[0] - row), 31'000.0, 2.0);
}

TEST(ExtrapolatorTest, PredictTouchesStepsBackwardOnReverseSlides) {
  const GestureExtrapolator ex = SlideAt(900'000, -30'000, 5);  // 780'000.
  const std::vector<RowId> rows =
      ex.PredictTouches(kLastEventUs, 0.2, kHz, 1'000'000);
  ASSERT_EQ(rows.size(), 3u);  // ceil(0.2 * 15) = 3.
  EXPECT_NEAR(static_cast<double>(rows[0]), 750'000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(rows[1]), 720'000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(rows[2]), 690'000.0, 2.0);
}

TEST(ExtrapolatorTest, PredictTouchesStopsAtTheLastRow) {
  const GestureExtrapolator ex = SlideAt(0, 300, 5);  // Last row 1'200.
  const std::vector<RowId> rows = ex.PredictTouches(kLastEventUs, 1.0, kHz,
                                                    /*n=*/2'000);
  // 1'500, then 1'800, then the end: clamped once, never repeated.
  EXPECT_EQ(rows, (std::vector<RowId>{1'500, 1'800, 1'999}));
}

TEST(ExtrapolatorTest, PredictTouchesStopsAtRowZero) {
  const GestureExtrapolator ex = SlideAt(1'000, -200, 5);  // Last row 200.
  const std::vector<RowId> rows =
      ex.PredictTouches(kLastEventUs, 1.0, kHz, 2'000);
  EXPECT_EQ(rows, (std::vector<RowId>{0}));
}

TEST(ExtrapolatorTest, PredictTouchesSkipsEventsThatStayOnARow) {
  GestureExtrapolator ex;
  ex.Observe(0, 100);
  ex.Observe(200'000, 101);  // 5 rows/s: a third of a row per event.
  const std::vector<RowId> rows = ex.PredictTouches(200'000, 0.4, kHz, 1'000);
  EXPECT_EQ(rows, (std::vector<RowId>{102, 103}));  // 6 events, 2 rows.
}

TEST(ExtrapolatorTest, PredictTouchesNeedsAStepAndAMovingFinger) {
  GestureExtrapolator ex;
  EXPECT_TRUE(ex.PredictTouches(0, 0.25, kHz, 1'000).empty());
  ex.Observe(0, 500);  // One observation: no direction yet.
  EXPECT_TRUE(ex.PredictTouches(0, 0.25, kHz, 1'000).empty());
  ex.Observe(66'667, 520);
  EXPECT_FALSE(ex.PredictTouches(66'667, 0.25, kHz, 1'000).empty());
  // Timed out: paused, no prediction.
  EXPECT_TRUE(ex.PredictTouches(SecondsToMicros(2.0), 0.25, kHz, 1'000)
                  .empty());
  // A step that moved no row: the finger rests, also paused; the range
  // prediction is then the symmetric neighbourhood.
  ex.Observe(133'333, 520);
  EXPECT_TRUE(ex.IsPaused(133'333));
  EXPECT_TRUE(ex.PredictTouches(133'333, 0.25, kHz, 1'000).empty());
  const RowRange around = ex.PredictRange(133'333, 0.25, 1'000);
  EXPECT_LT(around.first, 520);
  EXPECT_GT(around.last, 520);
  EXPECT_EQ(520 - around.first, around.last - 520);
}

TEST(ExtrapolatorTest, AStepAcrossAPauseKeepsThePause) {
  GestureExtrapolator ex = SlideAt(0, 10'000, 4);  // Last 30'000 at 0.2 s.
  // No event for a second (a stationary finger registers none), then the
  // finger moves on: the resuming step carries no speed.
  ex.Observe(SecondsToMicros(1.2), 31'000);
  EXPECT_TRUE(ex.IsPaused(SecondsToMicros(1.2)));
  EXPECT_TRUE(ex.PredictTouches(SecondsToMicros(1.2), 0.25, kHz, 1'000'000)
                  .empty());
  // The next step at the device rate restores the point prediction.
  ex.Observe(SecondsToMicros(1.2) + 66'667, 41'000);
  EXPECT_FALSE(ex.IsPaused(SecondsToMicros(1.2) + 66'667));
  EXPECT_EQ(ex.PredictTouches(SecondsToMicros(1.2) + 66'667, 1.0 / kHz, kHz,
                              1'000'000)
                .size(),
            1u);
}

TEST(ExtrapolatorTest, ResetForgetsTheStep) {
  GestureExtrapolator ex = SlideAt(0, 1'000, 3);
  ex.Reset();
  ex.Observe(SecondsToMicros(1.0), 10'000);
  EXPECT_TRUE(ex.PredictTouches(SecondsToMicros(1.0), 0.25, kHz, 100'000)
                  .empty());
}

}  // namespace
}  // namespace dbtouch::prefetch
