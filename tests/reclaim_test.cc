// Spill reclamation: SpillTable(reclaim_raw) must actually free the
// table's matrix — MemoryTracker-verified — while every remaining reader
// (taps and group-bys via Table::GetValue, sample-hierarchy rebuilds,
// zone maps, CSV export, column extraction) keeps answering bit-identical
// through PagedColumnSource pins. Plus the race edges: a raw reader in
// flight makes reclamation wait, a stale provider fails cleanly after it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "block_payloads.h"
#include "cache/block_provider.h"
#include "cache/buffer_manager.h"
#include "core/kernel.h"
#include "core/shared_state.h"
#include "index/zone_map.h"
#include "sampling/level_policy.h"
#include "sim/motion_profile.h"
#include "sim/touch_device.h"
#include "sim/trace_builder.h"
#include "storage/csv_loader.h"
#include "storage/datagen.h"
#include "storage/memory_tracker.h"
#include "storage/paged_column.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace dbtouch {
namespace {

using core::ActionConfig;
using core::Kernel;
using core::KernelConfig;
using core::ObjectId;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::MemoryTracker;
using storage::RowId;
using storage::SpillOptions;
using storage::Table;
using storage::TableSpiller;
using testing_util::ReadBlockPayload;
using touch::RectCm;

class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "dbtouch_reclaim_XXXXXX")
                           .string();
    path_ = ::mkdtemp(tmpl.data());
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::shared_ptr<Table> MixedTable(const std::string& name,
                                  std::int64_t rows) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  cols.push_back(storage::GenCategorical(
      "tag", rows, {"alpha", "beta", "gamma"}, 7));
  return *Table::FromColumns(name, std::move(cols));
}

std::shared_ptr<core::SharedState> MakeShared(std::int64_t rows_per_block) {
  cache::BufferManagerConfig buffer;
  buffer.rows_per_block = rows_per_block;
  return std::make_shared<core::SharedState>(
      sampling::SampleHierarchyConfig{}, /*force_eager=*/true, buffer);
}

// ---- The tentpole: reclamation frees tracked memory ------------------------

TEST(ReclaimTest, SpillWithReclaimDropsTrackedMatrixBytesToZero) {
  ScratchDir dir;
  const std::int64_t rows = 10'000;
  const std::int64_t before = MemoryTracker::Instance().matrix_bytes();
  auto shared = MakeShared(512);
  auto table = MixedTable("m", rows);
  // Matrix bytes for int64 + int32-coded string columns.
  const std::int64_t data_bytes = table->resident_raw_bytes();
  EXPECT_GE(data_bytes, rows * 12);
  EXPECT_GE(MemoryTracker::Instance().matrix_bytes() - before, data_bytes);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  // Reference values captured before anything is freed.
  std::vector<std::string> reference;
  for (RowId r = 0; r < rows; r += 97) {
    reference.push_back(table->GetValue(r, 0).ToString() + "|" +
                        table->GetValue(r, 1).ToString());
  }
  const std::string csv_before = storage::TableToCsv(*table);

  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 512});
  ASSERT_TRUE(
      shared->SpillTable("m", spiller, /*reclaim_raw=*/true).ok());

  // The headline assertion: the matrix is gone. What the process still
  // holds of this table is schema + dictionaries + pool blocks (bounded
  // by the buffer budget), nothing else.
  EXPECT_TRUE(table->raw_released());
  EXPECT_EQ(table->resident_raw_bytes(), 0);
  EXPECT_LE(MemoryTracker::Instance().matrix_bytes() - before,
            data_bytes / 10);

  // Frozen: mutation surfaces fail cleanly, never crash.
  EXPECT_EQ(table
                ->AppendRow({storage::Value(std::int64_t{1}),
                             storage::Value("alpha")})
                .code(),
            StatusCode::kFailedPrecondition);

  // Point reads — the tap/group-by path — now pin blocks and still
  // decode strings through the dictionary.
  std::size_t i = 0;
  for (RowId r = 0; r < rows; r += 97, ++i) {
    EXPECT_EQ(table->GetValue(r, 0).ToString() + "|" +
                  table->GetValue(r, 1).ToString(),
              reference[i])
        << "row " << r;
  }
  // The CSV export accessor reads through the same fallback.
  EXPECT_EQ(storage::TableToCsv(*table), csv_before);
  // Column extraction too.
  const Column extracted = table->ExtractColumn(1);
  EXPECT_EQ(extracted.row_count(), rows);
  EXPECT_EQ(extracted.GetValue(11).ToString(),
            table->GetValue(11, 1).ToString());
}

TEST(ReclaimTest, SecondReclaimAndRotationAreRejected) {
  ScratchDir dir;
  auto shared = MakeShared(256);
  auto table = MixedTable("twice", 2'000);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 256});
  ASSERT_TRUE(
      shared->SpillTable("twice", spiller, /*reclaim_raw=*/true).ok());
  // A second spill streams from... nothing: the matrix is gone, and the
  // spiller's raw read fails cleanly instead of crashing.
  EXPECT_FALSE(shared->SpillTable("twice", spiller, true).ok());
  // Rotation has no matrix to rewrite.
  storage::Matrix replacement(table->schema(),
                              storage::MajorOrder::kRowMajor);
  EXPECT_EQ(table->ReplaceStorage(std::move(replacement)).code(),
            StatusCode::kFailedPrecondition);
}

// ---- Hierarchy rebuild over a reclaimed base -------------------------------

TEST(ReclaimTest, HierarchyRebuildsFromPagedBaseAfterReclaim) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 14;
  auto shared = MakeShared(1'024);
  auto table = MixedTable("h", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  // Reclaim BEFORE any hierarchy exists: the later build must pin blocks.
  ASSERT_TRUE(
      shared->SpillTable("h", spiller, /*reclaim_raw=*/true).ok());

  const auto hierarchy = shared->GetOrBuildHierarchy("h", 0);
  ASSERT_TRUE(hierarchy.ok()) << hierarchy.status();
  EXPECT_TRUE((*hierarchy)->base_is_paged());
  ASSERT_GT((*hierarchy)->num_levels(), 2);
  // Level l samples every 2^l-th value of the sequence — bit-exact.
  for (int level = 1; level < (*hierarchy)->num_levels(); ++level) {
    const storage::ColumnView view = (*hierarchy)->LevelView(level);
    const std::int64_t stride = (*hierarchy)->LevelStride(level);
    for (RowId s = 0; s < view.row_count(); s += 31) {
      EXPECT_EQ(view.GetInt64(s), s * stride)
          << "level " << level << " sample " << s;
    }
  }
  // The base zone map builds by scanning pinned blocks; over a sequence
  // every zone's [min, max] is exactly its row range.
  const auto zone_map = shared->GetOrBuildBaseZoneMap(*hierarchy);
  ASSERT_NE(zone_map, nullptr);
  ASSERT_GT(zone_map->num_zones(), 1);
  const index::Zone& z = zone_map->zone(1);
  EXPECT_EQ(z.min, static_cast<double>(z.first));
  EXPECT_EQ(z.max, static_cast<double>(z.last));
}

TEST(ReclaimTest, PreBuiltHierarchyIsRebondAndServesSampledSummaries) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 14;
  auto shared = MakeShared(1'024);
  auto table = MixedTable("pre", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  // Hierarchy built over the live matrix first...
  const auto hierarchy = shared->GetOrBuildHierarchy("pre", 0);
  ASSERT_TRUE(hierarchy.ok());
  EXPECT_FALSE((*hierarchy)->base_is_paged());

  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  ASSERT_TRUE(
      shared->SpillTable("pre", spiller, /*reclaim_raw=*/true).ok());
  // ...then rebound in place: the same shared object sessions hold.
  EXPECT_TRUE((*hierarchy)->base_is_paged());
  const auto again = shared->GetOrBuildHierarchy("pre", 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), hierarchy->get());
  // Sample levels survived the reclaim (they are all that stays in RAM).
  const storage::ColumnView level1 = (*hierarchy)->LevelView(1);
  for (RowId s = 0; s < level1.row_count(); s += 53) {
    EXPECT_EQ(level1.GetInt64(s), s * 2);
  }
}

// ---- Only the reachable levels stay in RAM ---------------------------------

TEST(ReclaimTest, ServerHierarchyHoldsOnlyReachableLevelsThroughReclaim) {
  // No object is taller than the zoom clamp, so the level policy never
  // selects below the level a 25 cm object selects: the shared hierarchy
  // holds that level and the coarser ones — about twice the floor level's
  // bytes — not the half-a-column level 1 and its successors. After a
  // reclaim, those bytes are all the table keeps in standalone columns.
  ScratchDir dir;
  const std::int64_t rows = 1 << 20;
  auto shared = MakeShared(4'096);
  auto table = MixedTable("big", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  const std::int64_t columns_before =
      MemoryTracker::Instance().column_bytes();
  const auto hierarchy = shared->GetOrBuildHierarchy("big", 0);
  ASSERT_TRUE(hierarchy.ok());
  const KernelConfig defaults;
  const std::int64_t max_positions =
      sim::TouchDevice(defaults.device)
          .DistinctPositions(defaults.zoom_max_extent_cm);
  const int floor = std::max(
      1, sampling::ChooseLevel(rows, max_positions, 1.0,
                               (*hierarchy)->num_levels(),
                               defaults.level_policy));
  ASSERT_GT(floor, 1);
  const std::size_t width = sizeof(std::int64_t);
  const std::size_t floor_rows =
      static_cast<std::size_t>((rows + (std::int64_t{1} << floor) - 1) >>
                               floor);
  const std::size_t bound =
      2 * floor_rows * width +
      static_cast<std::size_t>((*hierarchy)->num_levels()) * width;
  EXPECT_LE((*hierarchy)->sample_bytes(), bound);
  EXPECT_GE((*hierarchy)->sample_bytes(), floor_rows * width);

  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 4'096});
  ASSERT_TRUE(
      shared->SpillTablePax("big", spiller, /*reclaim_raw=*/true).ok());
  EXPECT_TRUE(table->raw_released());
  EXPECT_LE((*hierarchy)->sample_bytes(), bound);
  EXPECT_LE(MemoryTracker::Instance().column_bytes() - columns_before,
            static_cast<std::int64_t>(bound));
}

TEST(ReclaimTest, ConcurrentLazyBuildsOverPagedBaseBuildOnce) {
  // Several sessions' touches need the same level below the floor at
  // once, after the matrix is gone: one build strides the paged base,
  // every reader sees its bytes, and the level is paid for once.
  ScratchDir dir;
  const std::int64_t rows = 1 << 16;
  auto shared = MakeShared(1'024);
  auto table = MixedTable("lazy", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  const auto hierarchy = shared->GetOrBuildHierarchy("lazy", 0);
  ASSERT_TRUE(hierarchy.ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  ASSERT_TRUE(
      shared->SpillTablePax("lazy", spiller, /*reclaim_raw=*/true).ok());
  ASSERT_TRUE((*hierarchy)->base_is_paged());
  const int level = 2;
  ASSERT_LT(level, (*hierarchy)->eager_floor());
  ASSERT_FALSE((*hierarchy)->IsMaterialized(level));
  const std::size_t bytes_before = (*hierarchy)->sample_bytes();

  constexpr int kThreads = 4;
  std::vector<const std::byte*> data(kThreads, nullptr);
  std::vector<std::int64_t> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      const storage::ColumnView view = (*hierarchy)->LevelView(level);
      data[static_cast<std::size_t>(t)] = view.data();
      for (RowId s = 0; s < view.row_count(); ++s) {
        if (view.GetInt64(s) != s << level) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& reader : readers) {
    reader.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(data[static_cast<std::size_t>(t)], data[0]) << "thread " << t;
  }
  EXPECT_TRUE((*hierarchy)->IsMaterialized(level));
  EXPECT_EQ((*hierarchy)->sample_bytes(),
            bytes_before +
                static_cast<std::size_t>((*hierarchy)->LevelRows(level)) *
                    sizeof(std::int64_t));
  EXPECT_FALSE((*hierarchy)->IsMaterialized(1));
}

// ---- Spill racing an active raw reader -------------------------------------

TEST(ReclaimTest, ReclaimWaitsForInFlightRawReadsThenStaleReadersFailClean) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 15;
  auto shared = MakeShared(1'024);
  auto table = MixedTable("race", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());

  // A stale binding: the provider sessions used before the spill.
  auto stale = std::make_shared<cache::TableBlockProvider>(table, 0, 1'024);
  ASSERT_TRUE(ReadBlockPayload(*stale, 0).ok());

  // Hammer raw reads while the spill+reclaim runs. Each read either sees
  // the matrix (and must be correct) or the released state (and must be
  // a clean FailedPrecondition) — never freed memory. ASan/TSan CI runs
  // this suite.
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> clean_failures{0};
  std::thread reader([&] {
    std::int64_t block = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto payload =
          ReadBlockPayload(*stale, block % stale->geometry().num_blocks());
      if (payload.ok()) {
        // Spot-check: sequence data, first value of block b.
        std::int64_t first_value = 0;
        std::memcpy(&first_value, payload->data(), sizeof(first_value));
        EXPECT_EQ(first_value, (block % stale->geometry().num_blocks()) *
                                   1'024);
      } else {
        EXPECT_EQ(payload.status().code(),
                  StatusCode::kFailedPrecondition);
        clean_failures.fetch_add(1, std::memory_order_relaxed);
      }
      ++block;
    }
  });
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  ASSERT_TRUE(
      shared->SpillTable("race", spiller, /*reclaim_raw=*/true).ok());
  // Give the reader a moment against the released table, then stop.
  for (int i = 0; i < 1'000 && clean_failures.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  // After the reclaim the stale binding failed cleanly at least once...
  EXPECT_GT(clean_failures.load(), 0);
  // ...while the rebound path serves the same data from disk.
  storage::PagedColumnCursor cursor(table->PagedColumnAt(0));
  EXPECT_EQ(cursor.GetInt64(12'345), 12'345);
}

TEST(ReclaimTest, ReclaimFailsCleanlyWhileZeroCopyPinLiveThenSucceeds) {
  ScratchDir dir;
  auto shared = MakeShared(512);
  auto table = MixedTable("pinned", 4'096);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 512});
  {
    // An operator mid-gesture: a zero-copy pin into the matrix.
    storage::PagedColumnCursor cursor(table->PagedColumnAt(0, 512));
    EXPECT_EQ(cursor.GetInt64(100), 100);
    // The reclaim must NOT free under it — it fails cleanly instead.
    const Status status =
        shared->SpillTable("pinned", spiller, /*reclaim_raw=*/true);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(table->raw_released());
    EXPECT_GT(table->resident_raw_bytes(), 0);
    EXPECT_EQ(cursor.GetInt64(200), 200);  // The pinned view stayed valid.
  }
  // Gesture paused (pin dropped): the retry reclaims for real.
  ASSERT_TRUE(
      shared->SpillTable("pinned", spiller, /*reclaim_raw=*/true).ok());
  EXPECT_TRUE(table->raw_released());
  EXPECT_EQ(table->resident_raw_bytes(), 0);
  storage::PagedColumnCursor cursor(table->PagedColumnAt(0));
  EXPECT_EQ(cursor.GetInt64(300), 300);  // Served from the spill file.
}

TEST(ReclaimTest, ColumnCursorPinHoldsOffReclaimUntilGestureEnds) {
  // A column object over a resident table reads in place: mid-gesture it
  // holds zero-copy pins, so a PAX reclaim fails cleanly. The finger
  // lift drops them and the retry frees the matrix. The same object's
  // next slide moves to the pool and gives the same answers, as does a
  // column object created after the reclaim.
  ScratchDir dir;
  auto shared = MakeShared(1'024);
  auto table = MixedTable("live", 1 << 14);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  KernelConfig config;
  config.buffer.rows_per_block = 1'024;
  Kernel kernel(config, shared);
  const RectCm frame{2.0, 1.0, 2.0, 10.0};
  TraceBuilder builder(kernel.device());
  const auto slide = [&](sim::Micros start_us) {
    return builder.Slide("slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                         MotionProfile::Constant(1.0), start_us);
  };
  const auto answers_of = [&](ObjectId id, std::size_t from) {
    std::vector<std::pair<RowId, std::int64_t>> out;
    const auto& items = kernel.results().items();
    for (std::size_t i = from; i < items.size(); ++i) {
      if (items[i].object == id) {
        out.emplace_back(items[i].row, items[i].value.AsInt());
      }
    }
    return out;
  };

  const auto before = kernel.CreateColumnObject("live", "v", frame);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(kernel.SetAction(*before, ActionConfig::Scan()).ok());
  const sim::GestureTrace first = slide(0);
  ASSERT_GT(first.events.size(), 2u);
  for (std::size_t i = 0; i + 1 < first.events.size(); ++i) {
    kernel.OnTouch(first.events[i]);  // Every event but the finger lift.
  }
  const auto expect = answers_of(*before, 0);
  ASSERT_FALSE(expect.empty());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  EXPECT_EQ(
      shared->SpillTablePax("live", spiller, /*reclaim_raw=*/true).code(),
      StatusCode::kFailedPrecondition);
  EXPECT_FALSE(table->raw_released());
  kernel.OnTouch(first.events.back());  // Gesture end releases the pins.
  ASSERT_TRUE(
      shared->SpillTablePax("live", spiller, /*reclaim_raw=*/true).ok());
  EXPECT_TRUE(table->raw_released());

  std::int64_t lookups = shared->buffer_manager().stats().lookups;
  std::size_t from = kernel.results().items().size();
  kernel.Replay(slide(/*start_us=*/5'000'000));
  EXPECT_GT(shared->buffer_manager().stats().lookups, lookups);
  EXPECT_EQ(answers_of(*before, from), expect);

  ASSERT_TRUE(kernel.DestroyObject(*before).ok());
  lookups = shared->buffer_manager().stats().lookups;
  from = kernel.results().items().size();
  const auto after = kernel.CreateColumnObject("live", "v", frame);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(kernel.SetAction(*after, ActionConfig::Scan()).ok());
  kernel.Replay(slide(/*start_us=*/10'000'000));
  EXPECT_GT(shared->buffer_manager().stats().lookups, lookups);
  EXPECT_EQ(answers_of(*after, from), expect);
  EXPECT_EQ(kernel.stats().fetch_errors, 0);
}

TEST(ReclaimTest, AggregateAndJoinStateFollowReclaimBetweenGestures) {
  // Operator state built over in-place reads carries across a reclaim:
  // an aggregate half fed before it ends where an all-resident run ends,
  // and a join, live or re-enabled from the cache, keeps matching
  // against the rows it hashed before.
  const auto run = [](bool reclaim_midway) {
    ScratchDir dir;
    auto shared = MakeShared(1'024);
    auto table = MixedTable("live", 1 << 14);
    EXPECT_TRUE(shared->RegisterTable(table).ok());
    KernelConfig config;
    config.buffer.rows_per_block = 1'024;
    Kernel kernel(config, shared);
    TraceBuilder builder(kernel.device());
    const auto agg = kernel.CreateColumnObject("live", "v",
                                               RectCm{2.0, 1.0, 2.0, 10.0});
    const auto left = kernel.CreateColumnObject("live", "v",
                                                RectCm{5.0, 1.0, 1.0, 10.0});
    const auto right = kernel.CreateColumnObject("live", "v",
                                                 RectCm{7.0, 1.0, 1.0, 10.0});
    EXPECT_TRUE(agg.ok() && left.ok() && right.ok());
    EXPECT_TRUE(kernel
                    .SetAction(*agg, ActionConfig::Aggregate(
                                         exec::AggKind::kSum))
                    .ok());
    EXPECT_TRUE(kernel.EnableJoin(*left, *right).ok());
    const auto slide = [&](double x, double from_y, double to_y,
                           sim::Micros start_us) {
      kernel.Replay(builder.Slide("slide", PointCm{x, from_y},
                                  PointCm{x, to_y},
                                  MotionProfile::Constant(0.5), start_us));
    };
    slide(3.0, 1.0, 6.0, 0);
    slide(5.5, 1.0, 6.0, 1'000'000);
    if (reclaim_midway) {
      TableSpiller spiller(dir.path(),
                           SpillOptions{.rows_per_block = 1'024});
      EXPECT_TRUE(
          shared->SpillTablePax("live", spiller, /*reclaim_raw=*/true).ok());
      EXPECT_TRUE(table->raw_released());
    }
    slide(3.0, 6.0, 11.0, 2'000'000);
    slide(7.5, 1.0, 6.0, 3'000'000);  // Same rows as the left slide.
    // Re-enabled from the cache over objects created after the reclaim,
    // the join reads through their sources, not the cached ones.
    EXPECT_TRUE(kernel.DestroyObject(*left).ok());
    EXPECT_TRUE(kernel.DestroyObject(*right).ok());
    const auto left2 = kernel.CreateColumnObject(
        "live", "v", RectCm{5.0, 1.0, 1.0, 10.0});
    const auto right2 = kernel.CreateColumnObject(
        "live", "v", RectCm{7.0, 1.0, 1.0, 10.0});
    EXPECT_TRUE(left2.ok() && right2.ok());
    EXPECT_TRUE(kernel.EnableJoin(*left2, *right2).ok());
    EXPECT_EQ(kernel.stats().join_cache_hits, 1);
    slide(5.5, 6.0, 11.0, 4'000'000);
    slide(7.5, 6.0, 11.0, 5'000'000);
    std::vector<std::string> out;
    for (const auto& item : kernel.results().items()) {
      out.push_back(std::string(core::ResultKindName(item.kind)) + ":" +
                    std::to_string(item.row) + ":" + item.value.ToString());
    }
    EXPECT_EQ(kernel.stats().fetch_errors, 0);
    return out;
  };
  const auto resident = run(/*reclaim_midway=*/false);
  const auto count = [&](const std::string& kind) {
    return std::count_if(resident.begin(), resident.end(),
                         [&](const std::string& s) {
                           return s.starts_with(kind + ":");
                         });
  };
  EXPECT_GT(count(core::ResultKindName(core::ResultKind::kAggregate)), 8);
  EXPECT_GT(count(core::ResultKindName(core::ResultKind::kJoinMatch)), 4);
  EXPECT_EQ(run(/*reclaim_midway=*/true), resident);
}

// ---- Fat-table gestures over a reclaimed table -----------------------------

TEST(ReclaimTest, TapScanAndGroupByServeFromReclaimedTable) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 14;

  // Reference run: everything in memory, no buffer manager.
  const auto run = [&](bool reclaim) {
    std::shared_ptr<core::SharedState> shared;
    KernelConfig config;
    config.buffer.rows_per_block = 1'024;
    if (reclaim) {
      shared = std::make_shared<core::SharedState>(
          config.sampling, /*force_eager=*/false, config.buffer);
      auto table = MixedTable("fat", rows);
      EXPECT_TRUE(shared->RegisterTable(table).ok());
      TableSpiller spiller(dir.path(),
                           SpillOptions{.rows_per_block = 1'024});
      EXPECT_TRUE(
          shared->SpillTable("fat", spiller, /*reclaim_raw=*/true).ok());
    }
    Kernel kernel(config, shared);
    if (!reclaim) {
      EXPECT_TRUE(kernel.RegisterTable(MixedTable("fat", rows)).ok());
    }
    const auto object =
        kernel.CreateTableObject("fat", RectCm{2.0, 1.0, 4.0, 10.0});
    EXPECT_TRUE(object.ok());
    TraceBuilder builder(kernel.device());

    // Fat tap: full tuple.
    kernel.Replay(builder.Tap("tap", PointCm{3.0, 4.0}));
    // Group-by slide: tag -> avg(v).
    EXPECT_TRUE(kernel
                    .SetAction(*object,
                               ActionConfig::GroupBy(1, 0,
                                                     exec::AggKind::kAvg))
                    .ok());
    kernel.Replay(builder.Slide("groupby", PointCm{3.0, 1.0},
                                PointCm{3.0, 11.0},
                                MotionProfile::Constant(1.0),
                                /*start_time_us=*/1'000'000));
    // Scan slide: touched cells surface as-is.
    EXPECT_TRUE(kernel.SetAction(*object, ActionConfig::Scan()).ok());
    kernel.Replay(builder.Slide("scan", PointCm{2.5, 11.0},
                                PointCm{2.5, 1.0},
                                MotionProfile::Constant(1.0),
                                /*start_time_us=*/3'000'000));
    EXPECT_EQ(kernel.stats().fetch_errors, 0);
    std::vector<std::string> out;
    for (const auto& item : kernel.results().items()) {
      out.push_back(std::to_string(static_cast<int>(item.kind)) + "@" +
                    std::to_string(item.row) + "=" +
                    item.value.ToString() + "#" +
                    std::to_string(item.rows_aggregated));
    }
    return out;
  };

  const std::vector<std::string> reference = run(/*reclaim=*/false);
  ASSERT_GT(reference.size(), 10u);
  EXPECT_EQ(run(/*reclaim=*/true), reference);
}

}  // namespace
}  // namespace dbtouch
