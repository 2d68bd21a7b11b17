// Unit and property tests for the sample hierarchy and level policy.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "sampling/level_policy.h"
#include "sampling/sample_hierarchy.h"
#include "storage/datagen.h"

namespace dbtouch::sampling {
namespace {

using storage::Column;
using storage::ColumnView;
using storage::RowId;

Column MakeSequential(std::int64_t n) {
  Column c("seq", storage::DataType::kInt32);
  c.Reserve(n);
  for (std::int64_t i = 0; i < n; ++i) {
    c.AppendInt32(static_cast<std::int32_t>(i));
  }
  return c;
}

TEST(SampleHierarchyTest, LevelZeroIsBase) {
  const Column base = MakeSequential(10000);
  SampleHierarchy h(base.View());
  EXPECT_EQ(h.LevelRows(0), 10000);
  EXPECT_EQ(h.LevelView(0).GetInt32(123), 123);
  EXPECT_TRUE(h.IsMaterialized(0));
}

TEST(SampleHierarchyTest, LevelCountRespectsMinRows) {
  const Column base = MakeSequential(10000);
  SampleHierarchyConfig config;
  config.min_level_rows = 1000;
  const SampleHierarchy h(base.View(), config);
  // 10000 -> 5000 -> 2500 -> 1250 -> 625(too small): levels 0..3.
  EXPECT_EQ(h.num_levels(), 4);
}

TEST(SampleHierarchyTest, LevelRowsHalve) {
  const Column base = MakeSequential(1 << 14);
  SampleHierarchyConfig config;
  config.min_level_rows = 256;
  const SampleHierarchy h(base.View(), config);
  for (int l = 1; l < h.num_levels(); ++l) {
    EXPECT_EQ(h.LevelRows(l), (1 << 14) >> l);
  }
}

TEST(SampleHierarchyTest, SampleRowsHoldStridedBaseValues) {
  const Column base = MakeSequential(4096);
  SampleHierarchy h(base.View());
  for (int l = 1; l < h.num_levels(); ++l) {
    const ColumnView level = h.LevelView(l);
    const std::int64_t stride = h.LevelStride(l);
    for (RowId s = 0; s < level.row_count(); ++s) {
      EXPECT_EQ(level.GetInt32(s), s * stride)
          << "level " << l << " sample row " << s;
    }
  }
}

TEST(SampleHierarchyTest, RowMappingsRoundTrip) {
  const Column base = MakeSequential(100000);
  SampleHierarchy h(base.View());
  for (int l = 0; l < h.num_levels(); ++l) {
    for (const RowId base_row : {0L, 17L, 99999L, 51200L}) {
      const RowId s = h.FromBaseRow(l, base_row);
      const RowId back = h.ToBaseRow(l, s);
      EXPECT_LE(back, base_row);
      EXPECT_GT(back + h.LevelStride(l), base_row);
    }
  }
}

TEST(SampleHierarchyTest, LazyMaterialization) {
  const Column base = MakeSequential(1 << 16);
  SampleHierarchyConfig config;
  config.eager = false;
  SampleHierarchy h(base.View(), config);
  ASSERT_GT(h.num_levels(), 3);
  EXPECT_FALSE(h.IsMaterialized(2));
  EXPECT_EQ(h.sample_bytes(), 0u);
  h.EnsureLevel(2);
  EXPECT_TRUE(h.IsMaterialized(2));
  // Only the requested level is built (it strides the base directly); the
  // finer level 1 would cost half the base for no touch that asked.
  EXPECT_FALSE(h.IsMaterialized(1));
  EXPECT_EQ(h.sample_bytes(),
            static_cast<std::size_t>(h.LevelRows(2)) * sizeof(std::int32_t));
  // Reading a view materialises on demand.
  const int top = h.num_levels() - 1;
  EXPECT_EQ(h.LevelView(top).GetInt32(1), h.LevelStride(top));
  EXPECT_TRUE(h.IsMaterialized(top));
}

TEST(SampleHierarchyTest, ConcurrentLazyReadsBuildEveryLevelOnce) {
  // Readers walk the levels in opposite orders, so builds from the base
  // and builds halving a just-published level race each other.
  const Column base = MakeSequential(1 << 16);
  SampleHierarchyConfig config;
  config.eager = false;
  SampleHierarchy h(base.View(), config);
  std::vector<std::int64_t> mismatches(4, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    readers.emplace_back([&h, &mismatches, t] {
      for (int i = 1; i < h.num_levels(); ++i) {
        const int l = t % 2 == 0 ? i : h.num_levels() - i;
        const ColumnView level = h.LevelView(l);
        for (RowId s = 0; s < level.row_count(); ++s) {
          if (level.GetInt32(s) != s << l) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& reader : readers) {
    reader.join();
  }
  std::size_t bytes = 0;
  for (int l = 1; l < h.num_levels(); ++l) {
    bytes += static_cast<std::size_t>(h.LevelRows(l)) * sizeof(std::int32_t);
  }
  EXPECT_EQ(h.sample_bytes(), bytes);
  EXPECT_EQ(mismatches, std::vector<std::int64_t>(4, 0));
}

TEST(SampleHierarchyTest, ReachLeavesFineLevelsToFirstUse) {
  const Column base = MakeSequential(1 << 16);
  // 65536 rows over at most 1301 positions: ~50 rows apart, level 5.
  const SampleHierarchy reach(base.View(), {},
                              LevelReach{.max_positions = 1301});
  EXPECT_EQ(reach.eager_floor(), 5);
  EXPECT_FALSE(reach.IsMaterialized(4));
  EXPECT_TRUE(reach.IsMaterialized(5));
  EXPECT_TRUE(reach.IsMaterialized(reach.num_levels() - 1));
  // Without a reach every level is eager, as before.
  const SampleHierarchy every(base.View());
  EXPECT_EQ(every.eager_floor(), 1);
  EXPECT_TRUE(every.IsMaterialized(1));
  EXPECT_LT(reach.sample_bytes() * 8, every.sample_bytes());
}

TEST(SampleHierarchyTest, SampleBytesGeometricBound) {
  const Column base = MakeSequential(1 << 18);
  SampleHierarchy h(base.View());
  // Sum of all levels above base is < base size (geometric series).
  EXPECT_LT(h.sample_bytes(), base.raw_size());
}

TEST(SampleHierarchyTest, WorksForDoubles) {
  const Column base =
      storage::GenGaussianDouble("g", 8192, 10.0, 1.0, 42);
  SampleHierarchy h(base.View());
  const ColumnView l2 = h.LevelView(2);
  for (RowId s = 0; s < 16; ++s) {
    EXPECT_DOUBLE_EQ(l2.GetDouble(s), base.View().GetDouble(s * 4));
  }
}

TEST(SampleHierarchyTest, TinyBaseHasSingleLevel) {
  const Column base = MakeSequential(10);
  const SampleHierarchy h(base.View());
  EXPECT_EQ(h.num_levels(), 1);
}

TEST(LevelPolicyTest, FinePositionsUseBase) {
  // 1000 rows over 2000 positions: every tuple individually addressable.
  EXPECT_EQ(ChooseLevel(1000, 2000, 1.0, 8), 0);
}

TEST(LevelPolicyTest, CoarseObjectsUseHighLevels) {
  // 10^7 rows over ~520 positions (10cm at 52/cm): stride ~19230 -> level 14.
  const int level = ChooseLevel(10'000'000, 520, 1.0, 20);
  EXPECT_GE(level, 13);
  EXPECT_LE(level, 15);
}

TEST(LevelPolicyTest, ClampsToAvailableLevels) {
  EXPECT_EQ(ChooseLevel(10'000'000, 520, 1.0, 5), 4);
}

TEST(LevelPolicyTest, FasterGesturesCoarsen) {
  const int slow = ChooseLevel(10'000'000, 520, 1.0, 20);
  const int fast = ChooseLevel(10'000'000, 520, 8.0, 20);
  EXPECT_GT(fast, slow);
}

TEST(LevelPolicyTest, SpeedWeightZeroDisablesCoarsening) {
  LevelPolicyConfig config;
  config.speed_weight = 0.0;
  const int slow = ChooseLevel(10'000'000, 520, 1.0, 20, config);
  const int fast = ChooseLevel(10'000'000, 520, 8.0, 20, config);
  EXPECT_EQ(fast, slow);
}

TEST(LevelPolicyTest, FinestReachableLevelBoundsEverySpeedAndShed) {
  LevelPolicyConfig config;
  const int floor = FinestReachableLevel(10'000'000, 1301, 20, config);
  EXPECT_EQ(floor, ChooseLevel(10'000'000, 1301, 1.0, 20, config));
  for (const std::int64_t positions : {52, 520, 1301}) {
    for (const double speed : {1.0, 2.5, 40.0}) {
      for (const int shed : {0, 1, 3}) {
        config.shed_levels = shed;
        EXPECT_GE(ChooseLevel(10'000'000, positions, speed, 20, config),
                  floor);
      }
    }
  }
  // Shedding never lowers the bound it is computed without.
  config.shed_levels = 3;
  EXPECT_EQ(FinestReachableLevel(10'000'000, 1301, 20, config), floor);
  EXPECT_EQ(FinestReachableLevel(10'000'000, 0, 20, config), 0);
}

TEST(LevelPolicyTest, DegenerateInputsReturnBase) {
  EXPECT_EQ(ChooseLevel(0, 100, 1.0, 8), 0);
  EXPECT_EQ(ChooseLevel(100, 0, 1.0, 8), 0);
  EXPECT_EQ(ChooseLevel(100, 100, 1.0, 1), 0);
}

// Property sweep: the chosen level's stride never exceeds the touch
// distance more than the configured overshoot, and never wastes more than
// 2x (the next level up would also have fit).
class LevelPolicyPropertyTest
    : public testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(LevelPolicyPropertyTest, StrideMatchesTouchDistance) {
  const auto [rows, positions] = GetParam();
  const int level = ChooseLevel(rows, positions, 1.0, 30);
  const double rows_per_position =
      static_cast<double>(rows) / static_cast<double>(positions);
  const double stride = static_cast<double>(std::int64_t{1} << level);
  EXPECT_LE(stride, std::max(rows_per_position, 1.0))
      << "level overshoots touch distance";
  if (level + 1 < 30 && rows_per_position >= 2.0) {
    EXPECT_GT(stride * 2.0, rows_per_position / 2.0)
        << "level is needlessly fine";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LevelPolicyPropertyTest,
    testing::Combine(testing::Values<std::int64_t>(1'000, 100'000, 10'000'000,
                                                   1'000'000'000),
                     testing::Values<std::int64_t>(52, 520, 1040, 5200)));

}  // namespace
}  // namespace dbtouch::sampling
