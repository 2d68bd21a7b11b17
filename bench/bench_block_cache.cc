// Block-cache microbenchmarks: the buffer pool's hot paths, one layer
// below the server, so a regression points at the cache rather than at
// "the server". Informational (no BENCH report, no gate).
//
//   BM_PinHit         pin + unpin of a resident block (ns per pin).
//   BM_ColdFill       a miss on a spilled column: the sync fill reads one
//                     block into a recycled frame, evicting the LRU victim.
//   BM_RangedFill     one ReadBlocks over N adjacent blocks of the spill
//                     file into pooled frames (one preadv), buffered and
//                     O_DIRECT (buffered where the filesystem refuses it).
//
// The spill file lives in a temporary directory removed at exit; its
// blocks are in the page cache after the first pass, so the fills time
// the read path's own cost, not the device.
//
//   ./build/bench_block_cache [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cache/block_cache.h"
#include "cache/buffer_manager.h"
#include "cache/file_block_provider.h"
#include "storage/datagen.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace {

using dbtouch::cache::BlockCache;
using dbtouch::cache::BlockKey;
using dbtouch::cache::FileBlockProvider;
using dbtouch::cache::Frame;
using dbtouch::cache::FramePool;

constexpr std::int64_t kRowsPerBlock = 16'384;  // 128 KiB blocks of int64.
constexpr std::int64_t kBlocks = 256;           // A 32 MiB column.

/// One spilled int64 column, plain and with aligned extents, in a
/// temporary directory that lives as long as the process.
class SpilledColumn {
 public:
  static const SpilledColumn& Get() {
    static const SpilledColumn column;
    return column;
  }

  ~SpilledColumn() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::shared_ptr<FileBlockProvider> Open(bool direct) const {
    auto provider = FileBlockProvider::Open(
        direct ? aligned_path_ : plain_path_,
        dbtouch::cache::FileProviderOptions{.use_direct = direct});
    if (!provider.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   provider.status().ToString().c_str());
      std::exit(1);
    }
    return *provider;
  }

 private:
  SpilledColumn() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "dbtouch_bench_block_cache_XXXXXX")
                           .string();
    dir_ = ::mkdtemp(tmpl.data());
    std::vector<dbtouch::storage::Column> cols;
    cols.push_back(dbtouch::storage::GenSequenceInt64(
        "v", kBlocks * kRowsPerBlock, 0, 1));
    const auto table =
        *dbtouch::storage::Table::FromColumns("t", std::move(cols));
    plain_path_ = Spill(table, dir_ + "/plain", false);
    aligned_path_ = Spill(table, dir_ + "/aligned", true);
  }

  static std::string Spill(
      const std::shared_ptr<dbtouch::storage::Table>& table,
      const std::string& dir, bool direct) {
    std::filesystem::create_directories(dir);
    dbtouch::storage::TableSpiller spiller(
        dir, dbtouch::storage::SpillOptions{.rows_per_block = kRowsPerBlock,
                                            .use_direct = direct});
    const auto provider = spiller.SpillColumn(table, 0);
    if (!provider.ok()) {
      std::fprintf(stderr, "spill failed: %s\n",
                   provider.status().ToString().c_str());
      std::exit(1);
    }
    return (*provider)->path();
  }

  std::string dir_;
  std::string plain_path_;
  std::string aligned_path_;
};

void BM_PinHit(benchmark::State& state) {
  const std::int64_t resident = state.range(0);
  BlockCache::Config config;
  config.capacity_bytes = resident * 4096;
  config.gesture_aware = false;
  BlockCache cache(config);
  const auto fill = [&cache]() -> dbtouch::Result<Frame> {
    Frame frame = cache.frames().Acquire(4096);
    frame.set_size(4096);
    return frame;
  };
  for (std::int64_t b = 0; b < resident; ++b) {
    if (!cache.Pin(BlockKey{1, b}, -1, fill).ok()) {
      state.SkipWithError("fill failed");
      return;
    }
    cache.Unpin(BlockKey{1, b});
  }
  std::int64_t b = 0;
  for (auto _ : state) {
    const auto pinned = cache.Pin(BlockKey{1, b}, -1, fill);
    benchmark::DoNotOptimize(pinned->data);
    cache.Unpin(BlockKey{1, b});
    b = b + 1 == resident ? 0 : b + 1;
  }
  if (cache.stats().faults != resident) {
    state.SkipWithError("a timed pin missed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PinHit)->Arg(16)->Arg(1024);

void BM_ColdFill(benchmark::State& state) {
  const auto provider = SpilledColumn::Get().Open(/*direct=*/false);
  dbtouch::cache::BufferManagerConfig config;
  config.rows_per_block = kRowsPerBlock;
  config.budget_bytes = kBlocks / 8 * kRowsPerBlock * 8;
  config.gesture_aware = false;  // Admit every block: each miss evicts.
  config.async_fetch = false;
  dbtouch::cache::BufferManager pool(config);
  const auto source = pool.SourceFor("t", 0, provider);
  std::int64_t block = 0;
  for (auto _ : state) {
    const auto pin = source->PinBlock(block, block * kRowsPerBlock);
    if (!pin.ok()) {
      state.SkipWithError("pin failed");
      break;
    }
    benchmark::DoNotOptimize(pin->view().data());
    block = block + 1 == kBlocks ? 0 : block + 1;
  }
  const auto stats = pool.stats();
  state.counters["frame_maps"] = static_cast<double>(stats.frame_maps);
  state.counters["peak_frame_mb"] =
      static_cast<double>(stats.peak_frame_bytes) / (1 << 20);
  state.SetBytesProcessed(state.iterations() * kRowsPerBlock * 8);
}
BENCHMARK(BM_ColdFill)->UseRealTime();

void BM_RangedFill(benchmark::State& state) {
  const std::int64_t run = state.range(0);
  const bool direct = state.range(1) != 0;
  const auto provider = SpilledColumn::Get().Open(direct);
  FramePool frames(/*keep_bytes=*/0);
  std::vector<Frame> run_frames;
  for (std::int64_t i = 0; i < run; ++i) {
    run_frames.push_back(frames.Acquire(provider->geometry().frame_bytes()));
  }
  std::int64_t first = 0;
  for (auto _ : state) {
    if (!provider->ReadBlocks(first, run_frames).ok()) {
      state.SkipWithError("read failed");
      break;
    }
    benchmark::DoNotOptimize(run_frames.front().data());
    benchmark::ClobberMemory();
    first = first + 2 * run > kBlocks ? 0 : first + run;
  }
  state.SetLabel(provider->direct_active() ? "O_DIRECT" : "buffered");
  state.SetBytesProcessed(state.iterations() * run * kRowsPerBlock * 8);
}
BENCHMARK(BM_RangedFill)->ArgsProduct({{1, 4, 16}, {0, 1}})->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
