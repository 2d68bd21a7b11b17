// The disk spill tier: block-file format round trips, TableSpiller +
// SharedState rebinding, the bounded-residency acceptance criterion
// (a table 4x the buffer budget served through the pool), ranged-read
// coalescing against the file, and the fault-injection battery
// (truncation, short reads, deletion, permission errors).
//
// Labeled `slow` in CMake: CI runs this suite in its dedicated
// stress/fault ctest step.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "block_payloads.h"
#include "cache/block_provider.h"
#include "cache/buffer_manager.h"
#include "cache/fetch_queue.h"
#include "cache/file_block_provider.h"
#include "core/kernel.h"
#include "core/shared_state.h"
#include "server/touch_server.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"
#include "storage/memory_tracker.h"
#include "storage/paged_column.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace dbtouch {
namespace {

using cache::BlockFileWriter;
using cache::FileBlockProvider;
using cache::FileFaultInjector;
using cache::FileProviderOptions;
using cache::TableBlockProvider;
using core::ActionConfig;
using core::Kernel;
using core::KernelConfig;
using server::TouchServer;
using server::TouchServerConfig;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::RowId;
using storage::SpillOptions;
using storage::Table;
using storage::TableSpiller;
using testing_util::ReadBlockPayload;
using testing_util::ReadBlockPayloads;
using touch::RectCm;

/// Scratch directory, removed with everything in it at scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "dbtouch_file_tier_XXXXXX")
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

std::shared_ptr<Table> SequenceTable(const std::string& name,
                                     std::int64_t rows) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  return *Table::FromColumns(name, std::move(cols));
}

/// One block through the shared retry policy, into a throwaway frame.
Status ReadWithRetry(cache::BlockProvider& provider, std::int64_t block,
                     const cache::FetchQueueConfig& config,
                     std::int64_t* retries) {
  cache::FramePool pool(/*keep_bytes=*/0);
  cache::Frame frame = pool.Acquire(provider.geometry().frame_bytes());
  return cache::ReadBlocksWithRetry(provider, block,
                                    std::span<cache::Frame>(&frame, 1),
                                    config, retries);
}

// ---- Format round trips -----------------------------------------------------

/// The file layouts and read modes every round trip runs under: plain
/// contiguous extents, 4 KiB-aligned extents, and aligned extents read
/// through O_DIRECT (buffered where the filesystem refuses it).
struct FileMode {
  const char* name;
  bool aligned_extents;
  bool use_direct;
};

class FileProviderModes : public testing::TestWithParam<FileMode> {
 protected:
  SpillOptions Options(std::int64_t rows_per_block) const {
    SpillOptions options;
    options.rows_per_block = rows_per_block;
    options.aligned_extents = GetParam().aligned_extents;
    options.use_direct = GetParam().use_direct;
    return options;
  }
};

TEST_P(FileProviderModes, SpilledBlocksAreByteIdenticalToTableProvider) {
  ScratchDir dir;
  // 1000 % 96 != 0: a ragged tail block.
  const SpillOptions options = Options(96);
  TableSpiller spiller(dir.path(), options);
  auto table = SequenceTable("t", 1'000);
  const auto provider = spiller.SpillColumn(table, 0);
  ASSERT_TRUE(provider.ok()) << provider.status();
  EXPECT_EQ(spiller.columns_spilled(), 1);
  EXPECT_GT(spiller.bytes_written(), 1'000 * 8);
  EXPECT_EQ((*provider)->aligned_extents(), options.aligned_extents);

  TableBlockProvider reference(table, 0, options.rows_per_block);
  ASSERT_EQ((*provider)->geometry().num_blocks(),
            reference.geometry().num_blocks());
  for (std::int64_t b = 0; b < reference.geometry().num_blocks(); ++b) {
    const auto from_file = ReadBlockPayload(**provider, b);
    const auto from_table = ReadBlockPayload(reference, b);
    ASSERT_TRUE(from_file.ok()) << from_file.status();
    ASSERT_TRUE(from_table.ok());
    EXPECT_EQ(*from_file, *from_table) << "block " << b;
  }
}

TEST_P(FileProviderModes, RangedReadsMatchSingleBlockReads) {
  ScratchDir dir;
  TableSpiller spiller(dir.path(), Options(64));
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok()) << provider.status();
  const std::int64_t num_blocks = (*provider)->geometry().num_blocks();
  ASSERT_EQ(num_blocks, 16);  // 15 full blocks and a 40-row tail.

  std::vector<std::vector<std::byte>> singles;
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    const auto one = ReadBlockPayload(**provider, b);
    ASSERT_TRUE(one.ok()) << one.status();
    singles.push_back(*one);
  }
  EXPECT_EQ(singles.back().size(), 40u * 8);
  // A run from the middle, and one ending in the short last block: each
  // one preadv scattered into the frames.
  const auto middle = ReadBlockPayloads(**provider, 3, 5);
  ASSERT_TRUE(middle.ok()) << middle.status();
  const auto tail = ReadBlockPayloads(**provider, 9, num_blocks - 9);
  ASSERT_TRUE(tail.ok()) << tail.status();
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*middle)[static_cast<std::size_t>(i)],
              singles[static_cast<std::size_t>(3 + i)])
        << "block " << 3 + i;
  }
  for (std::int64_t i = 0; i < num_blocks - 9; ++i) {
    EXPECT_EQ((*tail)[static_cast<std::size_t>(i)],
              singles[static_cast<std::size_t>(9 + i)])
        << "block " << 9 + i;
  }
  EXPECT_EQ((*provider)->ranged_reads(), 2);
  EXPECT_EQ((*provider)->blocks_read(), num_blocks + 5 + (num_blocks - 9));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, FileProviderModes,
    testing::Values(FileMode{"pread", false, false},
                    FileMode{"aligned", true, false},
                    FileMode{"direct", true, true}),
    [](const testing::TestParamInfo<FileMode>& info) {
      return std::string(info.param.name);
    });

TEST(FileBlockProviderTest, OpenRejectsMissingCorruptAndUnfinishedFiles) {
  ScratchDir dir;
  // Missing.
  EXPECT_EQ(FileBlockProvider::Open(dir.path() + "/absent.dbb")
                .status()
                .code(),
            StatusCode::kNotFound);

  // Garbage bytes: bad magic.
  const std::string garbage = dir.path() + "/garbage.dbb";
  {
    std::vector<char> noise(256, 'x');
    FILE* f = std::fopen(garbage.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(noise.data(), 1, noise.size(), f);
    std::fclose(f);
  }
  EXPECT_EQ(FileBlockProvider::Open(garbage).status().code(),
            StatusCode::kInvalidArgument);

  // A writer that never Finished leaves no committed header.
  auto table = SequenceTable("t", 500);
  TableBlockProvider reader(table, 0, 128);
  const std::string unfinished = dir.path() + "/unfinished.dbb";
  {
    BlockFileWriter writer(unfinished, reader.geometry());
    const auto block = ReadBlockPayload(reader, 0);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(writer.Append(block->data(), block->size()).ok());
    // No Finish.
  }
  EXPECT_EQ(FileBlockProvider::Open(unfinished).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FileBlockProviderTest, WriterEnforcesBlockOrderAndSizes) {
  ScratchDir dir;
  auto table = SequenceTable("t", 300);
  TableBlockProvider reader(table, 0, 128);  // Blocks: 128, 128, 44 rows.
  BlockFileWriter writer(dir.path() + "/t.dbb", reader.geometry());
  const auto block = ReadBlockPayload(reader, 0);
  ASSERT_TRUE(block.ok());
  // Wrong size for block 0.
  EXPECT_EQ(writer.Append(block->data(), block->size() - 8).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer.Append(block->data(), block->size()).ok());
  // Finish before all blocks are written.
  EXPECT_EQ(writer.Finish().code(), StatusCode::kFailedPrecondition);
}

// ---- Spill + rebind through the SharedState ---------------------------------

TEST(TableSpillerTest, SpilledColumnsServeIdenticalValuesThroughThePool) {
  ScratchDir dir;
  const std::int64_t rows = 10'000;
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  cols.push_back(storage::GenCategorical(
      "tag", rows, {"alpha", "beta", "gamma"}, 7));
  auto table = *Table::FromColumns("spilled", std::move(cols));

  cache::BufferManagerConfig buffer;
  buffer.rows_per_block = 512;
  auto shared = std::make_shared<core::SharedState>(
      sampling::SampleHierarchyConfig{}, /*force_eager=*/true, buffer);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 512});
  ASSERT_TRUE(shared->SpillTable("spilled", spiller).ok());
  EXPECT_EQ(spiller.columns_spilled(), 2);

  // Both columns now fault from their block files; values — including
  // dictionary-decoded strings — match the in-memory table exactly.
  for (std::size_t col = 0; col < 2; ++col) {
    const auto source = shared->GetColumnSource("spilled", col);
    ASSERT_TRUE(source.ok());
    storage::PagedColumnCursor cursor(*source);
    for (RowId r = 0; r < rows; r += 37) {
      EXPECT_EQ(cursor.GetValue(r).ToString(),
                table->GetValue(r, col).ToString())
          << "col " << col << " row " << r;
    }
  }
}

// ---- The acceptance criterion: 4x-budget table, bounded residency -----------

TEST(FileTierAcceptanceTest, BeyondBudgetTableServesSlideSummaryWithinBudget) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 16;          // 512 KiB of int64.
  const std::int64_t table_bytes = rows * 8;
  const std::int64_t rows_per_block = 1'024;  // 8 KiB blocks.

  cache::BufferManagerConfig buffer;
  buffer.rows_per_block = rows_per_block;
  buffer.budget_bytes = table_bytes / 4;  // Table is 4x the budget.
  // Staging pad sized to one summary band, so Preload's coalesced blocks
  // survive until the probe pins claim them (staged bytes live outside
  // the resident budget; the residency assertion below is untouched).
  buffer.staged_cap_bytes = buffer.budget_bytes;
  auto shared = std::make_shared<core::SharedState>(
      sampling::SampleHierarchyConfig{}, /*force_eager=*/true, buffer);
  auto table = SequenceTable("big", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());

  const std::int64_t matrix_before =
      storage::MemoryTracker::Instance().matrix_bytes();
  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = rows_per_block});
  // Spill with reclamation: the matrix is gone, so the whole script below
  // genuinely runs a 4x-budget table out of core.
  ASSERT_TRUE(
      shared->SpillTable("big", spiller, /*reclaim_raw=*/true).ok());
  EXPECT_TRUE(table->raw_released());
  EXPECT_EQ(table->resident_raw_bytes(), 0);
  // MemoryTracker accounting: the reclaim gave the table's bytes back.
  EXPECT_LE(storage::MemoryTracker::Instance().matrix_bytes(),
            matrix_before - table_bytes);

  KernelConfig config;
  config.use_sampling = false;  // Every summary reads base bands (disk).
  Kernel kernel(config, shared);
  const auto object = kernel.CreateColumnObject(
      "big", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(object.ok());
  ASSERT_TRUE(
      kernel.SetAction(*object, ActionConfig::Summary(40)).ok());

  // The full gesture script: slide down the object (summary bands), slide
  // back up, then tap spots — all served from the spilled file.
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("down", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                              MotionProfile::Constant(1.0)));
  kernel.Replay(builder.Slide("up", PointCm{3.0, 11.0}, PointCm{3.0, 1.0},
                              MotionProfile::Constant(1.0),
                              /*start_time_us=*/2'000'000));
  kernel.Replay(builder.Tap("tap", PointCm{3.0, 6.0}, 0.05,
                            /*start_time_us=*/4'000'000));
  ASSERT_GT(kernel.results().size(), 0u);
  EXPECT_EQ(kernel.stats().fetch_errors, 0);

  // Sequence data: every summary over band [first, last] averages to the
  // band midpoint, whatever tier served it.
  for (const auto& item : kernel.results().items()) {
    if (item.kind == core::ResultKind::kSummary) {
      const double mid = static_cast<double>(item.band_first +
                                             item.band_last) /
                         2.0;
      EXPECT_DOUBLE_EQ(item.value.AsDouble(), mid);
    }
  }

  // The bounded-residency contract: the whole script ran against a table
  // 4x the budget — whose raw storage no longer exists — and the pool's
  // resident high-water mark never crossed the budget.
  const cache::BlockCacheStats stats = shared->buffer_manager().stats();
  EXPECT_GT(stats.faults, 0);
  EXPECT_LE(stats.peak_resident_bytes, buffer.budget_bytes);
  EXPECT_LE(stats.resident_bytes, buffer.budget_bytes);
  // ...and the reclaimed matrix stayed gone throughout.
  EXPECT_EQ(table->resident_raw_bytes(), 0);

  // Batched demand fetches: adjacent cold-band misses coalesced into
  // ranged reads (the blocking probe path's Preload) — strictly fewer
  // provider round trips than blocks covered.
  EXPECT_GT(shared->buffer_manager().sync_ranged_reads(), 0);
  EXPECT_LT(shared->buffer_manager().sync_ranged_reads(),
            shared->buffer_manager().sync_ranged_blocks());
}

// ---- Frames: the pool's memory bound ------------------------------------------

TEST(FileTierFrameTest, SweepsOfATableFourTimesTheBudgetRecycleBoundedFrames) {
  ScratchDir dir;
  const std::int64_t rows_per_block = 1'024;  // 8 KiB blocks, page-sized.
  const std::int64_t blocks = 64;
  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = rows_per_block});
  const auto provider =
      spiller.SpillColumn(SequenceTable("t", blocks * rows_per_block), 0);
  ASSERT_TRUE(provider.ok()) << provider.status();
  const auto frame_bytes =
      static_cast<std::int64_t>((*provider)->geometry().frame_bytes());
  ASSERT_EQ(frame_bytes, rows_per_block * 8);

  cache::BufferManagerConfig config;
  config.rows_per_block = rows_per_block;
  config.budget_bytes = blocks * frame_bytes / 4;  // Table is 4x the budget.
  config.staged_cap_bytes = 2 * frame_bytes;
  config.gesture_aware = false;  // Every fault is admitted: full churn.
  cache::BufferManager pool(config);
  EXPECT_EQ(pool.stats().frame_bytes, 0);  // Nothing mapped before a fault.
  const auto source = pool.SourceFor("t", 0, *provider);

  const auto sweep = [&] {
    for (std::int64_t b = 0; b < blocks; ++b) {
      const auto pin = source->PinBlock(b, b * rows_per_block);
      ASSERT_TRUE(pin.ok()) << pin.status();
      EXPECT_EQ(pin->view().GetInt64(0), b * rows_per_block);
    }
  };
  sweep();
  const cache::BlockCacheStats first = pool.stats();
  EXPECT_EQ(first.faults, blocks);
  // Each fault reads into a recycled frame once the pool is warm, so the
  // frames ever mapped stay near the budget's worth, not one per fault.
  EXPECT_LT(first.frame_maps, blocks / 2);
  // The bound: retained budget + staging pad + the one frame a fill holds
  // before its eviction makes room (the pinned-transient term).
  EXPECT_LE(first.peak_frame_bytes,
            config.budget_bytes + config.staged_cap_bytes + frame_bytes);

  sweep();  // Identical second pass: every fault served by a spare.
  const cache::BlockCacheStats second = pool.stats();
  EXPECT_EQ(second.faults, 2 * blocks);
  EXPECT_EQ(second.frame_maps, first.frame_maps);
  EXPECT_EQ(second.peak_frame_bytes, first.peak_frame_bytes);
}

TEST(FileTierFrameTest, AsyncSweepsRecycleTheFramesOfReadsInFlight) {
  ScratchDir dir;
  const std::int64_t rows_per_block = 1'024;  // 8 KiB blocks, page-sized.
  const std::int64_t blocks = 64;
  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = rows_per_block});
  const auto provider =
      spiller.SpillColumn(SequenceTable("t", blocks * rows_per_block), 0);
  ASSERT_TRUE(provider.ok()) << provider.status();
  const auto frame_bytes =
      static_cast<std::int64_t>((*provider)->geometry().frame_bytes());

  cache::BufferManagerConfig config;
  config.rows_per_block = rows_per_block;
  config.budget_bytes = blocks * frame_bytes / 4;  // Table is 4x the budget.
  config.staged_cap_bytes = 2 * frame_bytes;
  config.gesture_aware = false;  // Every claim is admitted: full churn.
  // One read in flight at a time, one block each.
  config.fetch.num_fetchers = 1;
  config.fetch.max_coalesce_blocks = 1;
  cache::BufferManager pool(config);
  const auto source = pool.SourceFor("t", 0, *provider);
  ASSERT_TRUE(source->may_block());

  // Each step warms a block half a table ahead, which waits on the
  // staging pad, then faults the next block through the fetch queue and
  // claims it: once the pool is full, every read lands on a full pool and
  // its insert evicts a staged warm-up.
  const auto sweep = [&] {
    for (std::int64_t b = 0; b < blocks; ++b) {
      source->RequestPrefetch((b + blocks / 2) % blocks);
      ASSERT_TRUE(source->StartFetch(b, nullptr).ok());
      pool.WaitForFetches();
      const auto pin = source->TryPinBlock(b, b * rows_per_block);
      ASSERT_TRUE(pin.ok()) << pin.status();
      ASSERT_TRUE(pin->has_value()) << "block " << b;
      EXPECT_EQ((*pin)->view().GetInt64(0), b * rows_per_block);
    }
  };
  sweep();
  const cache::BlockCacheStats first = pool.stats();
  EXPECT_GT(pool.fetch_stats().prefetch_enqueued, 0);
  // The bound: retained budget + staging pad + the frame of the one read
  // in flight.
  EXPECT_LE(first.peak_frame_bytes,
            config.budget_bytes + config.staged_cap_bytes + frame_bytes);

  sweep();  // Identical second pass: every read served by a spare.
  const cache::BlockCacheStats second = pool.stats();
  EXPECT_GT(second.faults, first.faults);
  EXPECT_EQ(second.frame_maps, first.frame_maps);
  EXPECT_EQ(second.peak_frame_bytes, first.peak_frame_bytes);
}

// ---- Fault battery ----------------------------------------------------------

TEST(FileTierFaultTest, TruncatedFileIsTransientUntilRetriesExhaust) {
  ScratchDir dir;
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok());
  const std::string path = (*provider)->path();

  // Chop the file in half: later blocks now end at EOF mid-extent.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  cache::FetchQueueConfig retry;
  retry.max_retries = 2;
  retry.retry_backoff_us = 50;
  std::int64_t retries = 0;
  const auto last_block = (*provider)->geometry().num_blocks() - 1;
  const Status result =
      ReadWithRetry(**provider, last_block, retry, &retries);
  ASSERT_FALSE(result.ok());
  // Short read: transient (the file may heal), so the bounded retry
  // policy spent its full budget before giving up.
  EXPECT_EQ(result.code(), StatusCode::kAborted);
  EXPECT_TRUE(cache::IsTransientFetchError(result));
  EXPECT_EQ(retries, retry.max_retries);

  // Early blocks are still intact and keep serving.
  EXPECT_TRUE(ReadBlockPayload(**provider, 0).ok());
}

TEST(FileTierFaultTest, InjectedShortReadsRetryAndHeal) {
  ScratchDir dir;
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok());
  FileFaultInjector injector;
  (*provider)->set_fault_injector(&injector);

  cache::FetchQueueConfig retry;
  retry.max_retries = 3;
  retry.retry_backoff_us = 50;
  injector.FailNextReads(2, FileFaultInjector::Fault::kShortRead);
  std::int64_t retries = 0;
  const Status result = ReadWithRetry(**provider, 0, retry, &retries);
  ASSERT_TRUE(result.ok()) << result;
  EXPECT_EQ(retries, 2);
  EXPECT_EQ(injector.injected(), 2);

  // I/O hiccups (EAGAIN-shaped) are transient too.
  injector.FailNextReads(1, FileFaultInjector::Fault::kIoError);
  retries = 0;
  ASSERT_TRUE(ReadWithRetry(**provider, 1, retry, &retries).ok());
  EXPECT_EQ(retries, 1);
}

TEST(FileTierFaultTest, PermissionErrorFailsFastWithoutRetries) {
  ScratchDir dir;
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok());
  FileFaultInjector injector;
  (*provider)->set_fault_injector(&injector);

  injector.FailNextReads(1, FileFaultInjector::Fault::kPermissionDenied);
  cache::FetchQueueConfig retry;
  retry.max_retries = 5;
  retry.retry_backoff_us = 50;
  std::int64_t retries = 0;
  const Status result = ReadWithRetry(**provider, 0, retry, &retries);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(cache::IsTransientFetchError(result));
  EXPECT_EQ(retries, 0);  // Permanent: not a single retry spent.

  // The fault was one-shot; the tier heals.
  EXPECT_TRUE(ReadBlockPayload(**provider, 0).ok());
}

TEST(FileTierFaultTest, FileDeletedMidSessionFailsPermanently) {
  ScratchDir dir;
  SpillOptions options;
  options.rows_per_block = 128;
  options.reopen_per_fetch = true;  // Observe file-system state per read.
  TableSpiller spiller(dir.path(), options);
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok());
  ASSERT_TRUE(ReadBlockPayload(**provider, 0).ok());

  std::filesystem::remove((*provider)->path());
  std::int64_t retries = 0;
  const Status result =
      ReadWithRetry(**provider, 0, cache::FetchQueueConfig{}, &retries);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
  EXPECT_FALSE(cache::IsTransientFetchError(result));
  EXPECT_EQ(retries, 0);
}

/// Server-level battery: the file tier's failures shed only the stalled
/// gesture — transient faults retry to an answer, permanent ones lose one
/// gesture and the session keeps serving (mirror of the remote tier's
/// PermanentFetchFailureShedsQuantumNotSession).
TEST(FileTierFaultTest, ServerShedsOnlyStalledGestureOnFileFaults) {
  ScratchDir dir;
  TouchServerConfig config;
  config.num_workers = 1;
  config.base_frame_budget_us = 1'000'000;  // Relaxed deadlines.
  config.session_defaults.buffer.rows_per_block = 1'024;
  config.session_defaults.buffer.fetch.retry_backoff_us = 100;
  config.session_defaults.buffer.fetch.max_retries = 1;
  TouchServer server(config);
  auto table = SequenceTable("t", 1 << 14);
  ASSERT_TRUE(server.RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  const auto provider = spiller.SpillColumn(table, 0);
  ASSERT_TRUE(provider.ok());
  FileFaultInjector injector;
  (*provider)->set_fault_injector(&injector);
  ASSERT_TRUE(server.shared().SetColumnProvider("t", 0, *provider).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server
                  .CreateColumnObject(*session, "t", "v",
                                      RectCm{2.0, 1.0, 2.0, 10.0})
                  .ok());
  Kernel reference;
  TraceBuilder builder(reference.device());

  // 1. Transient faults: the tap's fetch retries short reads and answers.
  injector.FailNextReads(1, FileFaultInjector::Fault::kShortRead);
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap", PointCm{3.0, 6.0}),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  {
    const server::ServerStatsSnapshot stats = server.stats();
    EXPECT_GE(stats.fetch.retries, 1);
    EXPECT_EQ(stats.fetch.shed_on_fetch_error, 0);
  }

  // 2. Permanent faults: the next gesture's fetch dies at once; only that
  // gesture is shed and the session stays serviceable.
  injector.FailNextReads(1'000,
                         FileFaultInjector::Fault::kPermissionDenied);
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap2", PointCm{3.0, 9.0}, 0.05,
                                           /*start_time_us=*/1'000'000),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  {
    const server::ServerStatsSnapshot stats = server.stats();
    EXPECT_GE(stats.fetch.fetch_errors, 1);
    EXPECT_GE(stats.fetch.shed_on_fetch_error, 1);
  }

  // 3. The tier heals; the same session answers normally again.
  injector.FailNextReads(0);
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap3", PointCm{3.0, 3.0}, 0.05,
                                           /*start_time_us=*/2'000'000),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_TRUE(
      server
          .WithSession(*session,
                       [](Kernel& kernel) {
                         EXPECT_FALSE(kernel.has_pending_gestures());
                         ASSERT_GE(kernel.results().size(), 1u);
                         for (const auto& item :
                              kernel.results().items()) {
                           EXPECT_EQ(item.value.AsInt(), item.row);
                         }
                       })
          .ok());
  ASSERT_TRUE(server.Stop().ok());
}

}  // namespace
}  // namespace dbtouch
