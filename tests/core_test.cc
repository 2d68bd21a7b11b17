// Integration tests for the dbTouch kernel: the full per-touch pipeline
// (touch -> gesture -> map -> execute -> result) driven by synthetic
// gesture traces, exactly as the benchmarks and examples drive it.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_provider.h"
#include "core/kernel.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

namespace dbtouch::core {
namespace {

using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::Table;
using touch::RectCm;

constexpr std::int64_t kRows = 100'000;

/// A kernel with one registered column of sequential values 0..n-1 and a
/// 10cm-tall column object at x=2..4, y=1..11.
class KernelFixture : public testing::Test {
 protected:
  void SetUp() override { Rebuild(KernelConfig{}); }

  void Rebuild(KernelConfig config) {
    kernel_ = std::make_unique<Kernel>(config);
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("v", kRows, 0, 1));
    ASSERT_TRUE(kernel_
                    ->RegisterTable(
                        *Table::FromColumns("seq", std::move(cols)))
                    .ok());
    auto id = kernel_->CreateColumnObject("seq", "v",
                                          RectCm{2.0, 1.0, 2.0, 10.0});
    ASSERT_TRUE(id.ok()) << id.status();
    object_ = *id;
  }

  TraceBuilder builder() const { return TraceBuilder(kernel_->device()); }

  /// Slide top-to-bottom over the object, `duration_s` long.
  sim::GestureTrace Slide(double duration_s) const {
    return builder().Slide("slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                           MotionProfile::Constant(duration_s));
  }

  std::unique_ptr<Kernel> kernel_;
  ObjectId object_ = 0;
};

TEST_F(KernelFixture, TapRevealsSingleValue) {
  // Tap the middle of the object: row ~ n/2 (paper: "a single tap
  // anywhere on a column data object reveals a single column value").
  kernel_->Replay(builder().Tap("tap", PointCm{3.0, 6.0}));
  ASSERT_EQ(kernel_->results().size(), 1);
  const ResultItem& item = kernel_->results().back();
  EXPECT_EQ(item.kind, ResultKind::kValue);
  EXPECT_NEAR(static_cast<double>(item.row), kRows / 2.0, kRows * 0.01);
  EXPECT_EQ(item.value.AsInt(), item.row);  // Sequential data.
  EXPECT_EQ(kernel_->stats().taps, 1);
}

TEST_F(KernelFixture, TapOutsideObjectsDoesNothing) {
  kernel_->Replay(builder().Tap("tap", PointCm{15.0, 13.0}));
  EXPECT_EQ(kernel_->results().size(), 0);
}

TEST_F(KernelFixture, SlideScanSurfacesEntriesAsGestureProgresses) {
  kernel_->Replay(Slide(2.0));
  const auto& results = kernel_->results().items();
  ASSERT_GT(results.size(), 20u);
  // Rows grow monotonically with the downward slide.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].row, results[i - 1].row);
    EXPECT_GE(results[i].timestamp_us, results[i - 1].timestamp_us);
  }
  // First touches map near the top, last near the bottom.
  EXPECT_LT(results.front().row, kRows / 10);
  EXPECT_GT(results.back().row, kRows * 9 / 10);
}

TEST_F(KernelFixture, SlowerSlideReturnsMoreEntries) {
  kernel_->Replay(Slide(0.5));
  const auto fast = kernel_->stats().entries_returned;
  Rebuild(KernelConfig{});
  kernel_->Replay(Slide(4.0));
  const auto slow = kernel_->stats().entries_returned;
  EXPECT_GT(slow, fast * 5);  // Paper Figure 4(a): ~8 vs ~60.
}

TEST_F(KernelFixture, AggregateActionMaintainsRunningAverage) {
  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::Aggregate(
                                           exec::AggKind::kAvg))
                  .ok());
  kernel_->Replay(Slide(1.0));
  const auto& results = kernel_->results().items();
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results.back().kind, ResultKind::kAggregate);
  // Sliding uniformly over 0..n-1 top to bottom: the running average of
  // touched entries approaches n/2.
  EXPECT_NEAR(results.back().value.AsDouble(), kRows / 2.0, kRows * 0.06);
  // rows_aggregated grows monotonically.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].rows_aggregated, results[i - 1].rows_aggregated);
  }
}

TEST_F(KernelFixture, SummaryActionAggregatesBands) {
  ASSERT_TRUE(
      kernel_->SetAction(object_, ActionConfig::Summary(10)).ok());
  kernel_->Replay(Slide(1.0));
  const auto& results = kernel_->results().items();
  ASSERT_FALSE(results.empty());
  for (const ResultItem& item : results) {
    EXPECT_EQ(item.kind, ResultKind::kSummary);
    EXPECT_LE(item.band_first, item.row);
    EXPECT_GE(item.band_last, item.row);
    // Sequential data: the band average approximates the band midpoint.
    // Sample entries sit at stride starts, so the approximation is offset
    // by up to half the sample stride.
    ASSERT_GT(item.rows_aggregated, 0);
    const double stride =
        static_cast<double>(item.band_last - item.band_first + 1) /
        static_cast<double>(item.rows_aggregated);
    const double mid =
        static_cast<double>(item.band_first + item.band_last) / 2.0;
    EXPECT_NEAR(item.value.AsDouble(), mid, stride);
  }
}

TEST_F(KernelFixture, SummaryUsesSampleLevelsWhenEnabled) {
  ASSERT_TRUE(
      kernel_->SetAction(object_, ActionConfig::Summary(10)).ok());
  kernel_->Replay(Slide(1.0));
  const auto stats = kernel_->object_stats(object_);
  ASSERT_TRUE(stats.ok());
  // 100k rows over a 10cm object (~521 positions): the level policy picks
  // a coarse level, so summaries are approximate and cheap.
  EXPECT_GT((*stats)->last_level_used, 0);
  EXPECT_TRUE(kernel_->results().back().approximate);
}

TEST_F(KernelFixture, SamplingOffReadsBaseBands) {
  KernelConfig config;
  config.use_sampling = false;
  Rebuild(config);
  ASSERT_TRUE(
      kernel_->SetAction(object_, ActionConfig::Summary(10)).ok());
  kernel_->Replay(Slide(1.0));
  ASSERT_GT(kernel_->results().size(), 0);
  EXPECT_FALSE(kernel_->results().back().approximate);
  // Base bands read stride*k entries per touch: far more rows scanned.
  const auto base_rows = kernel_->stats().rows_scanned;
  Rebuild(KernelConfig{});
  ASSERT_TRUE(
      kernel_->SetAction(object_, ActionConfig::Summary(10)).ok());
  kernel_->Replay(Slide(1.0));
  EXPECT_LT(kernel_->stats().rows_scanned, base_rows / 4);
}

TEST_F(KernelFixture, FilteredScanOnlySurfacesMatches) {
  // Values are 0..n-1; keep only > 90% of n.
  ASSERT_TRUE(kernel_
                  ->SetAction(object_,
                              ActionConfig::Filter(exec::Predicate(
                                  exec::CompareOp::kGt, kRows * 0.9)))
                  .ok());
  kernel_->Replay(Slide(2.0));
  const auto& results = kernel_->results().items();
  ASSERT_FALSE(results.empty());
  for (const ResultItem& item : results) {
    EXPECT_EQ(item.kind, ResultKind::kFilterMatch);
    EXPECT_GT(item.value.AsInt(), static_cast<std::int64_t>(kRows * 0.9));
  }
  // Roughly 10% of touches pass.
  EXPECT_LT(results.size(), 10u);
}

TEST_F(KernelFixture, ZoneMapPrunesNonMatchingTouches) {
  // Sequential values 0..n-1 with a predicate matching only the last 2%:
  // zone maps answer "cannot match" for ~98% of touches without a read.
  const exec::Predicate top_slice(exec::CompareOp::kGt, kRows * 0.98);
  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::Filter(
                                           top_slice, /*use_zone_map=*/true))
                  .ok());
  kernel_->Replay(Slide(2.0));
  const auto& stats = kernel_->stats();
  EXPECT_GT(stats.rows_pruned, stats.rows_scanned * 10);
  // Pruning never changes the answer: rerun without the zone map.
  const auto matches_with = kernel_->results().size();
  Rebuild(KernelConfig{});
  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::Filter(
                                           top_slice, /*use_zone_map=*/false))
                  .ok());
  kernel_->Replay(Slide(2.0));
  EXPECT_EQ(kernel_->results().size(), matches_with);
  EXPECT_EQ(kernel_->stats().rows_pruned, 0);
}

TEST_F(KernelFixture, PinchZoomInGrowsObjectAndGranularity) {
  const auto view = kernel_->object_view(object_);
  ASSERT_TRUE(view.ok());
  const double before = (*view)->tuple_axis_extent();
  kernel_->Replay(builder().Pinch("zoom", PointCm{3.0, 6.0}, M_PI / 2.0,
                                  2.0, 6.0, 1.0));
  const double after = (*view)->tuple_axis_extent();
  EXPECT_GT(after, before * 2.0);  // ~3x pinch.
  EXPECT_GT(kernel_->stats().pinch_steps, 0);
}

TEST_F(KernelFixture, ZoomOutShrinksWithinClamp) {
  KernelConfig config;
  config.zoom_min_extent_cm = 2.0;
  Rebuild(config);
  const auto view = kernel_->object_view(object_);
  kernel_->Replay(builder().Pinch("shrink", PointCm{3.0, 6.0}, M_PI / 2.0,
                                  8.0, 1.0, 1.0));
  EXPECT_GE((*view)->tuple_axis_extent(), 2.0);
}

TEST_F(KernelFixture, SessionTracksGesturesAndEntries) {
  kernel_->Replay(Slide(1.0));
  kernel_->sessions().EndSession(kernel_->clock().now());
  ASSERT_EQ(kernel_->sessions().completed().size(), 1u);
  const SessionSummary& s = kernel_->sessions().completed()[0];
  EXPECT_EQ(s.gestures, 1);
  EXPECT_GT(s.entries_returned, 5);
  EXPECT_GT(s.touches, 5);
}

TEST_F(KernelFixture, IdleGapSplitsSessions) {
  KernelConfig config;
  config.session_idle_gap_us = 1'000'000;
  Rebuild(config);
  auto trace = Slide(0.5);
  trace.Append(Slide(0.5), /*gap_us=*/5'000'000);  // 5s idle.
  kernel_->Replay(trace);
  kernel_->sessions().EndSession(kernel_->clock().now());
  EXPECT_EQ(kernel_->sessions().completed().size(), 2u);
}

TEST_F(KernelFixture, ResultsFadeAfterWindow) {
  kernel_->Replay(Slide(1.0));
  const sim::Micros end = kernel_->clock().now();
  const auto visible_now = kernel_->results().VisibleAt(end);
  EXPECT_GT(visible_now.size(), 0u);
  // Recent results are bolder than older ones.
  for (std::size_t i = 1; i < visible_now.size(); ++i) {
    EXPECT_GE(visible_now[i].opacity, visible_now[i - 1].opacity);
  }
  const auto visible_later =
      kernel_->results().VisibleAt(end + kernel_->results().fade_us() + 1);
  EXPECT_TRUE(visible_later.empty());
}

TEST_F(KernelFixture, ObjectStatsTrackTouches) {
  kernel_->Replay(Slide(1.0));
  const auto stats = kernel_->object_stats(object_);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT((*stats)->touches, 5);
  EXPECT_EQ((*stats)->entries_returned,
            kernel_->stats().entries_returned);
}

TEST_F(KernelFixture, DestroyObjectStopsRouting) {
  ASSERT_TRUE(kernel_->DestroyObject(object_).ok());
  kernel_->Replay(Slide(1.0));
  EXPECT_EQ(kernel_->results().size(), 0);
  EXPECT_TRUE(kernel_->DestroyObject(object_).IsNotFound());
}

TEST_F(KernelFixture, SetActionValidates) {
  EXPECT_TRUE(kernel_->SetAction(999, ActionConfig::Scan()).IsNotFound());
  // Group-by needs a table object.
  EXPECT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::GroupBy(
                                           0, 0, exec::AggKind::kSum))
                  .IsInvalidArgument());
}

// ---- ResultStream & SessionTracker units -----------------------------------

TEST(ResultStreamTest, VisibleAtHonoursFadeWindow) {
  ResultStream stream(/*fade_us=*/1'000'000);
  ResultItem item;
  item.timestamp_us = 500'000;
  item.value = storage::Value(std::int64_t{7});
  stream.Append(item);
  EXPECT_TRUE(stream.VisibleAt(400'000).empty());   // Not yet produced.
  ASSERT_EQ(stream.VisibleAt(500'000).size(), 1u);  // Fresh: opacity 1.
  EXPECT_DOUBLE_EQ(stream.VisibleAt(500'000)[0].opacity, 1.0);
  ASSERT_EQ(stream.VisibleAt(1'000'000).size(), 1u);
  EXPECT_DOUBLE_EQ(stream.VisibleAt(1'000'000)[0].opacity, 0.5);
  EXPECT_TRUE(stream.VisibleAt(1'500'000).empty());  // Fully faded.
}

TEST(ResultStreamTest, CountKindFilters) {
  ResultStream stream;
  ResultItem a;
  a.kind = ResultKind::kSummary;
  ResultItem b;
  b.kind = ResultKind::kValue;
  stream.Append(a);
  stream.Append(a);
  stream.Append(b);
  EXPECT_EQ(stream.CountKind(ResultKind::kSummary), 2);
  EXPECT_EQ(stream.CountKind(ResultKind::kValue), 1);
  EXPECT_EQ(stream.CountKind(ResultKind::kJoinMatch), 0);
  stream.Clear();
  EXPECT_EQ(stream.size(), 0);
}

ResultItem NumberedItem(std::int64_t n) {
  ResultItem item;
  item.row = n;
  item.timestamp_us = n;
  item.kind = n % 3 == 0 ? ResultKind::kSummary : ResultKind::kValue;
  item.value = storage::Value(n);
  return item;
}

TEST(ResultStreamTest, ReferencesSurviveChunkBoundaries) {
  constexpr std::int64_t kChunk = ResultItems::kChunkItems;
  ResultStream stream(/*fade_us=*/1'000'000'000);
  stream.Append(NumberedItem(0));
  const ResultItem& first = stream.back();
  const std::vector<VisibleResult> visible = stream.VisibleAt(0);
  ASSERT_EQ(visible.size(), 1u);
  for (std::int64_t n = 1; n < 3 * kChunk + 5; ++n) {
    stream.Append(NumberedItem(n));
  }
  EXPECT_EQ(&first, &stream.items()[0]);
  EXPECT_EQ(visible[0].item, &first);
  EXPECT_EQ(first.row, 0);
  EXPECT_EQ(first.value, storage::Value(std::int64_t{0}));

  // Pointers handed out across the boundaries survive further appends.
  const std::vector<VisibleResult> all = stream.VisibleAt(3 * kChunk + 4);
  ASSERT_EQ(all.size(), static_cast<std::size_t>(3 * kChunk + 5));
  for (std::int64_t n = 0; n < 2 * kChunk; ++n) {
    stream.Append(NumberedItem(3 * kChunk + 5 + n));
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].item, &stream.items()[i]);
    ASSERT_EQ(all[i].item->row, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(stream.back().row, 5 * kChunk + 4);
}

TEST(ResultStreamTest, CountsAndIterationSpanChunks) {
  constexpr std::int64_t kChunk = ResultItems::kChunkItems;
  constexpr std::int64_t kItems = 4 * kChunk + 7;
  ResultStream stream;
  for (std::int64_t n = 0; n < kItems; ++n) {
    stream.Append(NumberedItem(n));
  }
  EXPECT_EQ(stream.size(), kItems);
  EXPECT_EQ(stream.items().size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(stream.CountKind(ResultKind::kSummary), (kItems + 2) / 3);
  EXPECT_EQ(stream.CountKind(ResultKind::kValue), kItems - (kItems + 2) / 3);
  std::int64_t expect = 0;
  for (const ResultItem& item : stream.items()) {
    ASSERT_EQ(item.row, expect);
    ASSERT_EQ(item.value, storage::Value(expect));
    ++expect;
  }
  EXPECT_EQ(expect, kItems);
  EXPECT_EQ(stream.items().front().row, 0);
  EXPECT_EQ(stream.items().back().row, kItems - 1);
  // Whole chunks plus the index: one partly filled chunk of slack at most.
  const std::int64_t chunks = (kItems + kChunk - 1) / kChunk;
  EXPECT_GE(stream.bytes(),
            chunks * kChunk * static_cast<std::int64_t>(sizeof(ResultItem)));
  EXPECT_LE(stream.bytes(),
            chunks * static_cast<std::int64_t>(ResultItems::kChunkBytes +
                                               sizeof(void*)));
}

TEST(ResultStreamTest, ClearKeepsAtMostOneChunk) {
  ResultStream stream;
  EXPECT_EQ(stream.bytes(), 0);
  for (std::size_t n = 0; n < 5 * ResultItems::kChunkItems; ++n) {
    stream.Append(NumberedItem(static_cast<std::int64_t>(n)));
  }
  EXPECT_GT(stream.bytes(),
            4 * static_cast<std::int64_t>(ResultItems::kChunkBytes));
  stream.Clear();
  EXPECT_EQ(stream.size(), 0);
  EXPECT_TRUE(stream.items().empty());
  EXPECT_LE(stream.bytes(),
            static_cast<std::int64_t>(ResultItems::kChunkBytes));
  // The kept chunk serves the next appends.
  stream.Append(NumberedItem(42));
  EXPECT_EQ(stream.back().row, 42);
  EXPECT_LE(stream.bytes(),
            static_cast<std::int64_t>(ResultItems::kChunkBytes));
}

TEST(ResultStreamTest, RefineTaggingAcrossAChunkBoundaryMarksOnlyRefined) {
  constexpr std::int64_t kChunk = ResultItems::kChunkItems;
  ResultStream stream;
  for (std::int64_t n = 0; n < kChunk - 2; ++n) {
    ResultItem item = NumberedItem(n);
    item.partial = true;
    stream.Append(std::move(item));
  }
  // A refinement quantum appends five results straddling the boundary;
  // the kernel then tags what it appended, exactly like this.
  const std::int64_t before = stream.size();
  for (std::int64_t n = 0; n < 5; ++n) {
    ResultItem item = NumberedItem(before + n);
    item.partial = true;
    stream.Append(std::move(item));
  }
  for (std::int64_t i = before; i < stream.size(); ++i) {
    ResultItem& refined = stream.mutable_items()[static_cast<std::size_t>(i)];
    refined.partial = false;
    refined.refine_seq = 3;
  }
  stream.Append(NumberedItem(stream.size()));  // After the refinement.
  for (std::int64_t i = 0; i < stream.size(); ++i) {
    const ResultItem& item = stream.items()[static_cast<std::size_t>(i)];
    const bool refined = i >= before && i < before + 5;
    EXPECT_EQ(item.refine_seq, refined ? 3 : 0) << i;
    EXPECT_EQ(item.partial, i < before + 5 && !refined) << i;
    EXPECT_EQ(item.row, i);
  }
}

TEST(ResultStreamTest, KindNamesAreStable) {
  EXPECT_STREQ(ResultKindName(ResultKind::kValue), "value");
  EXPECT_STREQ(ResultKindName(ResultKind::kSummary), "summary");
  EXPECT_STREQ(ResultKindName(ResultKind::kJoinMatch), "join-match");
  EXPECT_STREQ(ResultKindName(ResultKind::kGroupUpdate), "group-update");
}

TEST(SessionTrackerTest, GesturesWithinGapShareASession) {
  SessionTracker tracker(/*idle_gap_us=*/1'000'000);
  tracker.OnGestureBegin(0);
  tracker.OnTouch(100'000);
  tracker.OnGestureBegin(600'000);  // Within the gap.
  tracker.EndSession(700'000);
  ASSERT_EQ(tracker.completed().size(), 1u);
  EXPECT_EQ(tracker.completed()[0].gestures, 2);
}

TEST(SessionTrackerTest, GapOpensNewSession) {
  SessionTracker tracker(/*idle_gap_us=*/1'000'000);
  tracker.OnGestureBegin(0);
  tracker.OnTouch(100'000);
  tracker.OnGestureBegin(5'000'000);  // Past the gap.
  tracker.EndSession(5'100'000);
  ASSERT_EQ(tracker.completed().size(), 2u);
  EXPECT_EQ(tracker.completed()[0].ended_us, 100'000);
  EXPECT_EQ(tracker.completed()[1].id, 2);
}

TEST(SessionTrackerTest, AccountingOnlyWhileActive) {
  SessionTracker tracker;
  tracker.AddEntries(5);  // No session: dropped.
  tracker.OnGestureBegin(0);
  tracker.AddEntries(3);
  tracker.AddRowsScanned(21);
  tracker.EndSession(10);
  EXPECT_EQ(tracker.completed()[0].entries_returned, 3);
  EXPECT_EQ(tracker.completed()[0].rows_scanned, 21);
  EXPECT_FALSE(tracker.active());
  tracker.EndSession(20);  // Idempotent.
  EXPECT_EQ(tracker.completed().size(), 1u);
}

TEST(SessionTrackerTest, GestureExactlyAtIdleGapSharesSession) {
  // The gap check is strict: a gesture arriving exactly idle_gap_us after
  // the last activity still belongs to the same session; one microsecond
  // later opens a new one.
  SessionTracker tracker(/*idle_gap_us=*/1'000'000);
  tracker.OnGestureBegin(0);
  tracker.OnTouch(100'000);
  tracker.OnGestureBegin(1'100'000);  // Exactly at the boundary.
  tracker.EndSession(1'200'000);
  ASSERT_EQ(tracker.completed().size(), 1u);
  EXPECT_EQ(tracker.completed()[0].gestures, 2);

  SessionTracker split(/*idle_gap_us=*/1'000'000);
  split.OnGestureBegin(0);
  split.OnTouch(100'000);
  split.OnGestureBegin(1'100'001);  // One microsecond past the boundary.
  split.EndSession(1'200'000);
  EXPECT_EQ(split.completed().size(), 2u);
}

TEST(SessionTrackerTest, EndSessionWithNoActiveSessionIsANoOp) {
  SessionTracker tracker;
  tracker.EndSession(5);  // Nothing active: must not record anything.
  EXPECT_TRUE(tracker.completed().empty());
  EXPECT_FALSE(tracker.active());
  tracker.OnTouch(10);  // Touch without a session: also dropped.
  EXPECT_FALSE(tracker.active());
  EXPECT_EQ(tracker.current().touches, 0);
}

TEST(SessionTrackerTest, BackToBackSessionsAccountSeparately) {
  SessionTracker tracker(/*idle_gap_us=*/1'000'000);
  tracker.OnGestureBegin(0);
  tracker.OnTouch(10);
  tracker.AddEntries(2);
  tracker.AddRowsScanned(9);
  tracker.EndSession(20);
  tracker.OnGestureBegin(30);  // Immediately reopens.
  tracker.OnTouch(40);
  tracker.OnTouch(50);
  tracker.AddRowsScanned(7);
  tracker.EndSession(60);
  ASSERT_EQ(tracker.completed().size(), 2u);
  const SessionSummary& first = tracker.completed()[0];
  const SessionSummary& second = tracker.completed()[1];
  EXPECT_EQ(first.id, 1);
  EXPECT_EQ(second.id, 2);
  // No accounting bleeds between sessions.
  EXPECT_EQ(first.entries_returned, 2);
  EXPECT_EQ(first.rows_scanned, 9);
  EXPECT_EQ(first.touches, 1);
  EXPECT_EQ(second.entries_returned, 0);
  EXPECT_EQ(second.rows_scanned, 7);
  EXPECT_EQ(second.touches, 2);
  EXPECT_EQ(first.started_us, 0);
  EXPECT_EQ(first.ended_us, 20);
  EXPECT_EQ(second.started_us, 30);
  EXPECT_EQ(second.ended_us, 60);
}

TEST(ActionConfigTest, FactoriesSetKindAndParameters) {
  EXPECT_EQ(ActionConfig::Scan().kind, ActionKind::kScan);
  const auto agg = ActionConfig::Aggregate(exec::AggKind::kMax);
  EXPECT_EQ(agg.kind, ActionKind::kAggregate);
  EXPECT_EQ(agg.agg, exec::AggKind::kMax);
  const auto sum = ActionConfig::Summary(32, exec::AggKind::kStdDev);
  EXPECT_EQ(sum.summary_k, 32);
  const auto filt = ActionConfig::Filter(
      exec::Predicate(exec::CompareOp::kLt, 5.0), true);
  EXPECT_TRUE(filt.predicate.has_value());
  EXPECT_TRUE(filt.use_zone_map);
  const auto gb = ActionConfig::GroupBy(1, 2, exec::AggKind::kSum);
  EXPECT_EQ(gb.group_key_attribute, 1u);
  EXPECT_EQ(gb.group_value_attribute, 2u);
  EXPECT_STREQ(ActionKindName(ActionKind::kSummary), "summary");
}

// ---- Table objects -------------------------------------------------------

class TableKernelFixture : public testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("id", 10'000, 0, 1));
    cols.push_back(storage::GenUniformInt32("grp", 10'000, 0, 4, 5));
    cols.push_back(storage::GenGaussianDouble("val", 10'000, 10.0, 2.0, 6));
    ASSERT_TRUE(
        kernel_->RegisterTable(*Table::FromColumns("t", std::move(cols)))
            .ok());
    auto id =
        kernel_->CreateTableObject("t", RectCm{6.0, 1.0, 6.0, 10.0});
    ASSERT_TRUE(id.ok());
    object_ = *id;
  }

  TraceBuilder builder() const { return TraceBuilder(kernel_->device()); }

  std::unique_ptr<Kernel> kernel_;
  ObjectId object_ = 0;
};

TEST_F(TableKernelFixture, TapRevealsFullTuple) {
  kernel_->Replay(builder().Tap("tap", PointCm{9.0, 6.0}));
  // One ResultItem per attribute (paper: "reveals a full tuple").
  EXPECT_EQ(kernel_->results().size(), 3);
  const auto& items = kernel_->results().items();
  EXPECT_EQ(items[0].kind, ResultKind::kTuple);
  EXPECT_EQ(items[0].row, items[2].row);
  EXPECT_EQ(items[0].attribute, 0u);
  EXPECT_EQ(items[2].attribute, 2u);
}

TEST_F(TableKernelFixture, VerticalSlideScansTuplesOfTouchedAttribute) {
  kernel_->Replay(builder().Slide("slide", PointCm{7.0, 1.0},
                                  PointCm{7.0, 11.0},
                                  MotionProfile::Constant(1.0)));
  const auto& items = kernel_->results().items();
  ASSERT_FALSE(items.empty());
  // x=7cm in a 6cm-wide 3-attribute object: first attribute band.
  for (const ResultItem& item : items) {
    EXPECT_EQ(item.attribute, 0u);
  }
}

TEST_F(TableKernelFixture, HorizontalSlideWalksAttributes) {
  // Horizontal slide at fixed y: same tuple, attribute varies with x
  // (paper Section 2.4: "with a horizontal slide ... we slide through the
  // attributes values of a given tuple entry").
  kernel_->Replay(builder().Slide("hslide", PointCm{6.2, 6.0},
                                  PointCm{11.8, 6.0},
                                  MotionProfile::Constant(1.0)));
  const auto& items = kernel_->results().items();
  ASSERT_GT(items.size(), 2u);
  EXPECT_EQ(items.front().attribute, 0u);
  EXPECT_EQ(items.back().attribute, 2u);
  for (std::size_t i = 1; i < items.size(); ++i) {
    EXPECT_EQ(items[i].row, items[0].row);  // Same tuple throughout.
  }
}

TEST_F(TableKernelFixture, GroupByAccretesGroups) {
  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::GroupBy(
                                           1, 2, exec::AggKind::kAvg))
                  .ok());
  kernel_->Replay(builder().Slide("slide", PointCm{7.0, 1.0},
                                  PointCm{7.0, 11.0},
                                  MotionProfile::Constant(2.0)));
  const auto& items = kernel_->results().items();
  ASSERT_FALSE(items.empty());
  for (const ResultItem& item : items) {
    EXPECT_EQ(item.kind, ResultKind::kGroupUpdate);
    // Group averages of val ~ N(10, 2) stay near 10.
    EXPECT_NEAR(item.value.AsDouble(), 10.0, 5.0);
  }
}

TEST_F(TableKernelFixture, RotateGestureFlipsLayoutIncrementally) {
  ASSERT_EQ(*kernel_->rotation_in_progress(object_), false);
  const auto table = kernel_->catalog().Get("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->layout(), storage::MajorOrder::kColumnMajor);

  kernel_->Replay(builder().TwoFingerRotate("rot", PointCm{9.0, 6.0}, 2.0,
                                            0.0, M_PI / 2.0, 1.0));
  // Rotation begins (visual flip immediate; physical conversion stepped).
  const auto view = kernel_->object_view(object_);
  EXPECT_EQ((*view)->orientation(), touch::Orientation::kHorizontal);
  // Drive remaining conversion.
  while (*kernel_->rotation_in_progress(object_)) {
    kernel_->PumpMaintenance();
  }
  EXPECT_EQ((*table)->layout(), storage::MajorOrder::kRowMajor);
  EXPECT_EQ(kernel_->stats().layout_rotations, 1);
  // Data intact after rotation.
  EXPECT_EQ((*table)->GetValue(5000, 0).AsInt(), 5000);
}

// ---- Joins ----------------------------------------------------------------

TEST(KernelJoinTest, SlideDrivenJoinStreamsMatches) {
  Kernel kernel;
  std::vector<Column> l;
  l.push_back(storage::GenSequenceInt64("k", 5'000, 0, 1));  // 0..4999
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("left", std::move(l))).ok());
  std::vector<Column> r;
  r.push_back(storage::GenSequenceInt64("k", 5'000, 0, 1));  // Same keys.
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("right", std::move(r))).ok());
  const auto left_obj = kernel.CreateColumnObject(
      "left", "k", RectCm{1.0, 1.0, 2.0, 10.0});
  const auto right_obj = kernel.CreateColumnObject(
      "right", "k", RectCm{8.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(left_obj.ok());
  ASSERT_TRUE(right_obj.ok());
  ASSERT_TRUE(kernel.EnableJoin(*left_obj, *right_obj).ok());

  TraceBuilder builder(kernel.device());
  // Slide over the left column, then the same region of the right column:
  // matches stream out during the second slide.
  auto session = builder.Slide("l", PointCm{2.0, 1.0}, PointCm{2.0, 11.0},
                               MotionProfile::Constant(1.0));
  session.Append(builder.Slide("r", PointCm{9.0, 1.0}, PointCm{9.0, 11.0},
                               MotionProfile::Constant(1.0)),
                 200'000);
  kernel.Replay(session);
  const std::int64_t matches =
      kernel.results().CountKind(ResultKind::kJoinMatch);
  // Both slides touch the same relative positions -> same keys: nearly
  // every right-side touch finds its left partner.
  EXPECT_GT(matches, 8);
}

TEST(KernelJoinTest, EnableJoinValidatesObjects) {
  Kernel kernel;
  std::vector<Column> cols;
  cols.push_back(storage::GenGaussianDouble("f", 100, 0, 1, 1));
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("t", std::move(cols))).ok());
  const auto obj =
      kernel.CreateColumnObject("t", "f", RectCm{1, 1, 2, 10});
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(kernel.EnableJoin(*obj, 999).IsNotFound());
  // Float keys rejected.
  EXPECT_TRUE(kernel.EnableJoin(*obj, *obj).IsInvalidArgument());
}

// ---- Interactivity bound ---------------------------------------------------

TEST(KernelBudgetTest, MaxRowsPerTouchBoundsSummaryWork) {
  KernelConfig config;
  config.use_sampling = false;          // Worst case: base-data bands.
  config.max_rows_per_touch = 10'000;   // Tight budget.
  Kernel kernel(config);
  std::vector<Column> cols;
  cols.push_back(storage::MakePaperEvalColumn(2'000'000));
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("big", std::move(cols))).ok());
  const auto obj = kernel.CreateColumnObject(
      "big", "values", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(kernel.SetAction(*obj, ActionConfig::Summary(10)).ok());
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("s", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                              MotionProfile::Constant(1.0)));
  const auto& stats = kernel.stats();
  ASSERT_GT(stats.entries_returned, 0);
  // No touch scanned more than the budget.
  EXPECT_LE(stats.rows_scanned / stats.entries_returned,
            config.max_rows_per_touch);
}

// ---- Level reach: levels built on first use answer like eager ones --------

/// Every field of every result that carries data, one string per item.
std::vector<std::string> Answers(Kernel& kernel) {
  std::vector<std::string> out;
  for (const ResultItem& item : kernel.results().items()) {
    out.push_back(std::to_string(item.object) + ":" +
                  ResultKindName(item.kind) + "@" + std::to_string(item.row) +
                  "=" + item.value.ToString() + "[" +
                  std::to_string(item.band_first) + "," +
                  std::to_string(item.band_last) + "]#" +
                  std::to_string(item.rows_aggregated) +
                  (item.approximate ? "~" : ""));
  }
  return out;
}

/// Summary slides (slow and fast), taps and a scan slide over a short
/// (1 cm), a zoom-clamp-tall (25 cm) and an over-tall (60 cm) object.
/// Returns the answers and the level each summary slide ended on.
std::pair<std::vector<std::string>, std::vector<int>> ExploreZoomRange(
    const std::shared_ptr<SharedState>& shared) {
  const KernelConfig config;
  Kernel kernel(config, shared);
  TraceBuilder builder(kernel.device());
  const std::vector<RectCm> frames = {RectCm{1.0, 5.0, 2.0, 1.0},
                                      RectCm{5.0, 0.0, 2.0, 25.0},
                                      RectCm{9.0, 0.0, 2.0, 60.0}};
  std::vector<int> levels;
  sim::Micros t = 0;
  for (const RectCm& frame : frames) {
    const auto id = kernel.CreateColumnObject("t", "v", frame);
    EXPECT_TRUE(id.ok()) << id.status();
    const double x = frame.x + 1.0;
    const double top = frame.y + 0.1;
    const double bottom = std::min(frame.y + frame.height, 14.0) - 0.1;
    EXPECT_TRUE(kernel.SetAction(*id, ActionConfig::Summary(8)).ok());
    // Slow: under one position per event, the policy's finest choice.
    // Fast: the whole extent in 0.2 s, many positions per event.
    for (const auto& [to, seconds] :
         {std::pair{std::min(top + 0.8, bottom), 4.0},
          std::pair{bottom, 0.2}}) {
      kernel.Replay(builder.Slide("summary", PointCm{x, top}, PointCm{x, to},
                                  MotionProfile::Constant(seconds), t));
      levels.push_back((*kernel.object_stats(*id))->last_level_used);
      t += 5'000'000;
    }
    EXPECT_TRUE(kernel.SetAction(*id, ActionConfig::Scan()).ok());
    kernel.Replay(builder.Tap("tap", PointCm{x, (top + bottom) / 2.0}, 0.05,
                              t));
    t += 1'000'000;
    kernel.Replay(builder.Slide("scan", PointCm{x, bottom}, PointCm{x, top},
                                MotionProfile::Constant(1.0), t));
    t += 2'000'000;
  }
  EXPECT_EQ(kernel.stats().fetch_errors, 0);
  return {Answers(kernel), levels};
}

TEST(LevelReachTest, LazyLevelsAnswerBitIdenticallyAcrossTheZoomRange) {
  // The server-style state builds only the levels a 25 cm object can
  // select; the reference state builds every level. The 60 cm object's
  // slow slide selects a level below that floor, built on first use.
  constexpr std::int64_t kBigRows = 1 << 20;
  std::vector<Column> cols;
  cols.push_back(storage::GenGaussianDouble("v", kBigRows, 10.0, 3.0, 11));
  const std::shared_ptr<Table> table =
      *Table::FromColumns("t", std::move(cols));
  const KernelConfig config;
  auto reach = std::make_shared<SharedState>(
      config.sampling, /*force_eager=*/true, config.buffer,
      LevelReachOf(config));
  auto every = std::make_shared<SharedState>(
      config.sampling, /*force_eager=*/true, config.buffer,
      sampling::LevelReach{});
  ASSERT_TRUE(reach->RegisterTable(table).ok());
  ASSERT_TRUE(every->RegisterTable(table).ok());
  const auto hierarchy = reach->GetOrBuildHierarchy("t", 0);
  ASSERT_TRUE(hierarchy.ok());
  const int floor = (*hierarchy)->eager_floor();
  ASSERT_GT(floor, 2);
  EXPECT_FALSE((*hierarchy)->IsMaterialized(floor - 1));
  EXPECT_TRUE((*hierarchy)->IsMaterialized(floor));

  const auto reference = ExploreZoomRange(every);
  const auto lazy = ExploreZoomRange(reach);
  ASSERT_GT(reference.first.size(), 100u);
  EXPECT_EQ(lazy.first, reference.first);
  EXPECT_EQ(lazy.second, reference.second);
  // The over-tall object's slow slide read below the floor; only that
  // level was added. Fast slides stay at or above the floor.
  ASSERT_EQ(lazy.second.size(), 6u);
  EXPECT_GE(lazy.second[1], floor);
  EXPECT_EQ(lazy.second[2], floor);  // The floor is what 25 cm reaches.
  EXPECT_GE(lazy.second[3], floor);
  EXPECT_GE(lazy.second[5], floor);
  const int below = lazy.second[4];
  EXPECT_LT(below, floor);
  EXPECT_GT(below, 0);
  EXPECT_TRUE((*hierarchy)->IsMaterialized(below));
  EXPECT_FALSE((*hierarchy)->IsMaterialized(1));
  EXPECT_LT(reach->sample_bytes() * 4, every->sample_bytes());
}

TEST(LevelReachTest, LevelAndZoneMapBuildsAfterRotationReadTheNewLayout) {
  // A layout rotation replaces the matrix the hierarchy was first built
  // over; a level or a base zone map built afterwards must read the
  // current matrix, not the freed one (ASan CI turns a stale read into a
  // failure).
  const auto run = [](bool rotate) {
    Kernel kernel;
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("v", 10'000, 0, 1));
    cols.push_back(storage::GenUniformInt32("w", 10'000, 0, 9, 3));
    EXPECT_TRUE(
        kernel.RegisterTable(*Table::FromColumns("t", std::move(cols)))
            .ok());
    TraceBuilder builder(kernel.device());
    const auto column =
        kernel.CreateColumnObject("t", "v", RectCm{1.0, 1.0, 2.0, 10.0});
    const auto table =
        kernel.CreateTableObject("t", RectCm{6.0, 1.0, 6.0, 10.0});
    EXPECT_TRUE(column.ok() && table.ok());
    if (rotate) {
      kernel.Replay(builder.TwoFingerRotate("rot", PointCm{9.0, 6.0}, 2.0,
                                            0.0, M_PI / 2.0, 1.0));
      while (*kernel.rotation_in_progress(*table)) {
        kernel.PumpMaintenance();
      }
      EXPECT_EQ(kernel.stats().layout_rotations, 1);
    }
    const auto tall =
        kernel.CreateColumnObject("t", "v", RectCm{14.0, 0.0, 2.0, 60.0});
    EXPECT_TRUE(tall.ok());
    EXPECT_TRUE(kernel.SetAction(*tall, ActionConfig::Summary(8)).ok());
    const std::size_t from = kernel.results().items().size();
    kernel.Replay(builder.Slide("summary", PointCm{15.0, 1.0},
                                PointCm{15.0, 1.8},
                                MotionProfile::Constant(4.0), 10'000'000));
    // The slide read a level below the floor the column object had built.
    const auto hierarchy = kernel.shared_state()->GetOrBuildHierarchy("t", 0);
    const int level = (*kernel.object_stats(*tall))->last_level_used;
    EXPECT_GT(level, 0);
    EXPECT_LT(level, (*hierarchy)->eager_floor());
    EXPECT_TRUE(kernel
                    .SetAction(*column,
                               ActionConfig::Filter(
                                   exec::Predicate(5'000.0, 9'000.0),
                                   /*use_zone_map=*/true))
                    .ok());
    kernel.Replay(builder.Slide("filter", PointCm{2.0, 1.0},
                                PointCm{2.0, 11.0},
                                MotionProfile::Constant(1.0), 20'000'000));
    EXPECT_GT(kernel.stats().rows_pruned, 0);
    std::vector<std::string> out = Answers(kernel);
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(from));
    return out;
  };
  const auto resident = run(/*rotate=*/false);
  ASSERT_GT(resident.size(), 10u);
  EXPECT_EQ(run(/*rotate=*/true), resident);
}

// ---- Touch-point prefetch (Section 2.6) ------------------------------------

/// A slow-tier column for prefetch tests: an in-memory provider that
/// advertises async() (so the kernel warms its blocks through the fetch
/// queue) and logs every block it reads, split by thread: reads on the
/// thread that built it are the blocking probe's demand faults, reads on
/// any other thread are the fetch queue's.
class LoggingSlowProvider final : public cache::BlockProvider {
 public:
  LoggingSlowProvider(std::shared_ptr<const Table> table,
                      std::int64_t rows_per_block)
      : inner_(std::move(table), 0, rows_per_block),
        owner_(std::this_thread::get_id()) {}

  const cache::BlockGeometry& geometry() const override {
    return inner_.geometry();
  }
  const storage::Dictionary* dictionary() const override {
    return inner_.dictionary();
  }
  bool async() const override { return true; }

  Status ReadBlocks(std::int64_t first_block,
                    std::span<cache::Frame> frames) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const std::int64_t block = first_block + static_cast<std::int64_t>(i);
        (std::this_thread::get_id() == owner_ ? demand_ : queued_)
            .push_back(block);
      }
    }
    return inner_.ReadBlocks(first_block, frames);
  }

  /// Blocks the fetch queue read (warm-ups), in read order.
  std::vector<std::int64_t> queued() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return queued_;
  }
  /// Blocks the blocking probe faulted in itself.
  std::vector<std::int64_t> demand() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return demand_;
  }

 private:
  cache::TableBlockProvider inner_;
  const std::thread::id owner_;
  mutable std::mutex mu_;
  std::vector<std::int64_t> queued_;
  std::vector<std::int64_t> demand_;
};

/// A kernel over a 1M-row sequential column bound to a LoggingSlowProvider
/// in 8192-row blocks, with a 10cm-tall column object at x=2..4, y=1..11.
/// The pool holds the whole column and its staging pad every warm-up, so
/// no warm-up is lost to capacity: what it claims is what it aimed at.
class PrefetchFixture : public testing::Test {
 protected:
  static constexpr std::int64_t kColumnRows = 1'000'000;
  static constexpr std::int64_t kRowsPerBlock = 8'192;

  void Build(const ActionConfig& action, KernelConfig config = {}) {
    config.buffer.rows_per_block = kRowsPerBlock;
    config.buffer.budget_bytes = 64ll << 20;
    config.buffer.staged_cap_bytes = 64ll << 20;
    config.buffer.fetch.num_fetchers = 1;
    kernel_ = std::make_unique<Kernel>(config);
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("v", kColumnRows, 0, 1));
    auto table = *Table::FromColumns("cold", std::move(cols));
    ASSERT_TRUE(kernel_->RegisterTable(table).ok());
    provider_ = std::make_shared<LoggingSlowProvider>(table, kRowsPerBlock);
    ASSERT_TRUE(
        kernel_->shared_state()->SetColumnProvider("cold", 0, provider_).ok());
    auto id = kernel_->CreateColumnObject("cold", "v",
                                          RectCm{2.0, 1.0, 2.0, 10.0});
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(kernel_->SetAction(*id, action).ok());
  }

  cache::BufferManager& pool() {
    return kernel_->shared_state()->buffer_manager();
  }

  /// Plays `trace` one event at a time; after each, the fetch queue
  /// drains (a block read takes far less than the 66.7 ms between
  /// events). Returns the block of each result row, in touch order.
  std::vector<std::int64_t> Play(const sim::GestureTrace& trace) {
    std::vector<std::int64_t> touched;
    for (const sim::TouchEvent& event : trace.events) {
      const std::int64_t before = kernel_->results().size();
      kernel_->OnTouch(event);
      pool().WaitForFetches();
      for (std::int64_t i = before; i < kernel_->results().size(); ++i) {
        touched.push_back(
            kernel_->results().items()[static_cast<std::size_t>(i)].row /
            kRowsPerBlock);
      }
    }
    return touched;
  }

  TraceBuilder builder() const { return TraceBuilder(kernel_->device()); }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<LoggingSlowProvider> provider_;
};

TEST_F(PrefetchFixture, StridedSlideWarmsOnlyTheBlocksLaterTouchesRead) {
  KernelConfig config;
  // One event ahead whatever the claim-rate feedback (x0.5 to x2) does.
  config.prefetch_horizon_s = 1.0 / 30.0;
  Build(ActionConfig::Scan(), config);
  // 480 device points in 1 s: 15 events exactly 32 points (61'538 rows,
  // ~7.5 blocks) apart, so the predicted rows are exact to a row or two.
  const sim::GestureTrace trace = builder().Slide(
      "sweep", PointCm{3.0, 1.0}, PointCm{3.0, 1.0 + 480.0 / 52.0},
      MotionProfile::Constant(1.0));
  std::vector<std::int64_t> touched;
  std::size_t warmed_before_last = 0;
  for (const sim::TouchEvent& event : trace.events) {
    const std::size_t warmed = provider_->queued().size();
    const std::int64_t before = kernel_->results().size();
    kernel_->OnTouch(event);
    pool().WaitForFetches();
    if (kernel_->results().size() > before) {
      touched.push_back(kernel_->results().items().back().row /
                        kRowsPerBlock);
      warmed_before_last = warmed;
    }
  }
  ASSERT_EQ(touched.size(), 15u);
  const std::vector<std::int64_t> warmed = provider_->queued();
  ASSERT_GT(warmed.size(), warmed_before_last);
  // The last touch aims at events that never come (the finger lifts);
  // every earlier warm-up is a block a later touch read, none between.
  const std::set<std::int64_t> read(touched.begin(), touched.end());
  for (std::size_t i = 0; i < warmed_before_last; ++i) {
    EXPECT_TRUE(read.contains(warmed[i]))
        << "warmed block " << warmed[i] << " no touch read";
  }
  // Each of those warm-ups was claimed by the touch it was aimed at (none
  // died on the pad), and past the first steps, which give the
  // extrapolator its speed, no touch faulted its block in itself.
  const cache::BlockCacheStats stats = pool().stats();
  EXPECT_EQ(stats.prefetch_staged_claims,
            static_cast<std::int64_t>(warmed_before_last));
  EXPECT_EQ(stats.prefetch_staged_evictions, 0);
  EXPECT_EQ(static_cast<std::int64_t>(warmed.size()),
            kernel_->stats().prefetch_requests);
  EXPECT_EQ(provider_->demand(),
            (std::vector<std::int64_t>{touched[0], touched[1]}));
}

TEST_F(PrefetchFixture, SlowSlideWarmsItsContiguousStretch) {
  KernelConfig config;
  config.prefetch_horizon_s = 0.25;  // ceil(0.25 * 15) = 4 events ahead.
  Build(ActionConfig::Scan(), config);
  // 2 cm in 3.5 s: about 2 device points (~0.47 blocks) per event, so the
  // next events read adjacent blocks.
  const sim::GestureTrace trace =
      builder().Slide("slow", PointCm{3.0, 1.0}, PointCm{3.0, 3.0},
                      MotionProfile::Constant(3.5));
  const auto source = kernel_->shared_state()->GetColumnSource("cold", 0);
  ASSERT_TRUE(source.ok()) << source.status();
  int checked = 0;
  std::int64_t previous_row = -1;
  int step = 0;
  for (const sim::TouchEvent& event : trace.events) {
    const std::int64_t before = kernel_->results().size();
    kernel_->OnTouch(event);
    pool().WaitForFetches();
    if (kernel_->results().size() == before) {
      continue;
    }
    const std::int64_t row = kernel_->results().items().back().row;
    // From the first step on, every block from the touched one through
    // the one six events ahead is warm: no gap. (Every warm-up is claimed,
    // so the claim feedback doubles the horizon: 8 events ahead.)
    if (++step >= 2) {
      const std::int64_t ahead = row + 6 * (row - previous_row);
      for (std::int64_t block = row / kRowsPerBlock;
           block <= std::min(ahead, kColumnRows - 1) / kRowsPerBlock;
           ++block) {
        const auto pin = (*source)->TryPinBlock(block, -1);
        ASSERT_TRUE(pin.ok()) << pin.status();
        EXPECT_TRUE(pin->has_value())
            << "step " << step << ": block " << block << " is cold";
      }
      ++checked;
    }
    previous_row = row;
  }
  EXPECT_GE(checked, 40);
  EXPECT_EQ(pool().stats().prefetch_staged_evictions, 0);
}

TEST_F(PrefetchFixture, SummaryServedFromASampleLevelWarmsNoBaseBlock) {
  Build(ActionConfig::Summary(4, exec::AggKind::kAvg));
  // A fast slide: the level policy serves every summary from a sample
  // level, so no event reads a base block and none may be warmed.
  const std::vector<std::int64_t> touched =
      Play(builder().Slide("fast", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                           MotionProfile::Constant(1.0)));
  ASSERT_GE(touched.size(), 12u);
  EXPECT_EQ(kernel_->stats().prefetch_requests, 0);
  EXPECT_EQ(pool().fetch_stats().prefetch_enqueued, 0);
  EXPECT_TRUE(provider_->queued().empty());
}

TEST_F(PrefetchFixture, PausedFingerWarmsItsSymmetricNeighbourhood) {
  Build(ActionConfig::Scan());
  // Slide half way, rest for a second (a stationary finger registers no
  // events), then move on: the step that ends the pause has no usable
  // speed, so the resumed row's neighbourhood is warmed on both sides.
  MotionProfile profile;
  profile.ThenMoveTo(0.5, 0.5).ThenPause(1.0).ThenMoveTo(0.9, 0.5);
  const sim::GestureTrace trace = builder().Slide(
      "pause", PointCm{3.0, 1.0}, PointCm{3.0, 11.0}, profile);
  const auto source = kernel_->shared_state()->GetColumnSource("cold", 0);
  ASSERT_TRUE(source.ok()) << source.status();
  std::int64_t last_event_us = 0;
  bool resumed = false;
  for (const sim::TouchEvent& event : trace.events) {
    const std::size_t warmed_before = provider_->queued().size();
    const std::int64_t before = kernel_->results().size();
    kernel_->OnTouch(event);
    pool().WaitForFetches();
    const bool after_pause = event.timestamp_us - last_event_us > 500'000;
    last_event_us = event.timestamp_us;
    if (!after_pause || kernel_->results().size() == before) {
      continue;
    }
    resumed = true;
    const std::int64_t block =
        kernel_->results().items().back().row / kRowsPerBlock;
    const std::vector<std::int64_t> warmed = provider_->queued();
    const std::set<std::int64_t> now_warmed(
        warmed.begin() + static_cast<std::ptrdiff_t>(warmed_before),
        warmed.end());
    ASSERT_FALSE(now_warmed.empty());
    // Warm-ups on both sides of the resumed row, and its nearest blocks
    // all warm.
    EXPECT_LT(*now_warmed.begin(), block);
    EXPECT_GT(*now_warmed.rbegin(), block);
    for (std::int64_t b = block - 2; b <= block + 2; ++b) {
      const auto pin = (*source)->TryPinBlock(b, -1);
      ASSERT_TRUE(pin.ok()) << pin.status();
      EXPECT_TRUE(pin->has_value()) << "block " << b << " is cold";
    }
    break;
  }
  EXPECT_TRUE(resumed);
}

}  // namespace
}  // namespace dbtouch::core
