// ABL-PREFETCH — paper Section 2.6 "Prefetching Data": extrapolating the
// gesture (speed and direction) and fetching the expected entries ahead vs
// demand fetching, through the real read path: a core::Kernel with
// non-blocking faults slides over a column spilled to disk, its cold
// blocks come through the BufferManager's FetchQueue, and warm-ups land
// in the cache's staging pad until a touch claims them.
//
// Scenarios: steady slide, pause-and-resume, and a 4x speed-up mid-slide
// (the cases the paper calls out: "find a good way and timing to
// extrapolate the gesture movement ... to avoid stalling once the query
// session resumes or when it moves faster"). The steady slide is strided:
// its touch events land several blocks apart, as a sweep's do on a
// device registering ~15 events/s.
//
// The bench plays each touch event, fetches what a suspended touch
// waits on, and then lets the fetch queue drain before the next event: a
// block read takes far less than the 66.7 ms between registered events,
// so warm-ups land in time whenever they aim right. That makes every
// figure deterministic. Reported per scenario, prefetch on and off:
// suspended quanta (touches that waited on a cold block), the claimed
// ratio of warm-ups (claimed before the staging pad dropped them), and
// bytes read per touch.
//
// --smoke prints the report and gates the steady scenario (dimensionless,
// so a slower host cannot fail it): suspended quanta with prefetch on
// must not exceed those with it off, and the claimed ratio must stay at
// or above kClaimedRatioFloor. Exits non-zero when a gate fails.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "core/kernel.h"
#include "prefetch/extrapolator.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"
#include "storage/spill.h"

namespace {

using dbtouch::core::ActionConfig;
using dbtouch::core::Kernel;
using dbtouch::core::KernelConfig;
using dbtouch::core::TouchOutcome;
using dbtouch::core::TouchStall;
using dbtouch::sim::MotionProfile;
using dbtouch::sim::PointCm;

// 2M int64 rows in 64 KiB blocks (245 blocks). The pool keeps 64 blocks
// and its staging pad budget / 8 = 8 blocks over 8 shards, one block per
// shard: the geometry of a 32 MiB pool over 512 KiB PAX blocks. A device
// point of the 12 cm object covers 0.4 blocks, as on that table.
constexpr std::int64_t kRows = 2'000'000;
constexpr std::int64_t kRowsPerBlock = 8'192;
constexpr std::int64_t kBlockBytes = kRowsPerBlock * 8;
constexpr std::int64_t kBudgetBytes = 64 * kBlockBytes;
// Column object spanning the full screen height the slides travel.
constexpr double kTop = 1.0;
constexpr double kHeight = 12.0;
// Floor on the steady scenario's claimed ratio with prefetch on. It
// measured 0.79 when the gate was set: the warm-ups a touch loses are
// those whose shard of the one-block-a-shard pad takes the next insert
// first, and those aimed past the slide's last event. The old contiguous
// warm-ahead claimed 0.14 of its warm-ups here.
constexpr double kClaimedRatioFloor = 0.7;

MotionProfile Scenario(const std::string& name) {
  if (name == "steady") {
    return MotionProfile::Constant(4.0);  // 60 events, ~4 blocks apart.
  }
  if (name == "pause-resume") {
    MotionProfile profile;
    profile.ThenMoveTo(0.35, 1.5).ThenPause(2.0).ThenMoveTo(1.0, 2.5);
    return profile;
  }
  // speed-up: a quarter of the column slowly, the rest 4x faster.
  MotionProfile profile;
  profile.ThenMoveTo(0.25, 2.0).ThenMoveTo(1.0, 1.5);
  return profile;
}

struct RunResult {
  std::int64_t touches = 0;
  std::int64_t suspended = 0;
  std::int64_t warmups = 0;
  double claimed_ratio = 0.0;
  double bytes_per_touch = 0.0;
};

RunResult Run(const std::shared_ptr<dbtouch::storage::Table>& table,
              const std::shared_ptr<dbtouch::cache::BlockProvider>& spilled,
              const std::string& scenario, bool prefetch_on) {
  KernelConfig config;
  config.non_blocking_faults = true;
  config.prefetch_enabled = prefetch_on;
  config.buffer.rows_per_block = kRowsPerBlock;
  config.buffer.budget_bytes = kBudgetBytes;
  config.buffer.fetch.num_fetchers = 1;
  Kernel kernel(config);
  DBTOUCH_CHECK(kernel.RegisterTable(table).ok());
  DBTOUCH_CHECK(
      kernel.shared_state()->SetColumnProvider("t", 0, spilled).ok());
  const auto object = kernel.CreateColumnObject(
      "t", "v", dbtouch::touch::RectCm{2.0, kTop, 2.0, kHeight});
  DBTOUCH_CHECK(object.ok());
  DBTOUCH_CHECK(kernel.SetAction(*object, ActionConfig::Scan()).ok());
  dbtouch::cache::BufferManager& pool =
      kernel.shared_state()->buffer_manager();

  const dbtouch::sim::TraceBuilder builder(kernel.device());
  const dbtouch::sim::GestureTrace trace =
      builder.Slide(scenario, PointCm{3.0, kTop}, PointCm{3.0, kTop + kHeight},
                    Scenario(scenario));
  RunResult out;
  for (const dbtouch::sim::TouchEvent& event : trace.events) {
    TouchStall stall;
    TouchOutcome outcome = kernel.OnTouchAsync(event, &stall);
    while (outcome == TouchOutcome::kSuspended) {
      ++out.suspended;
      for (const TouchStall::Entry& entry : stall.entries) {
        for (const std::int64_t block : entry.blocks) {
          DBTOUCH_CHECK(entry.source->StartFetch(block, nullptr).ok());
        }
      }
      pool.WaitForFetches();
      outcome = kernel.ResumePending(&stall);
    }
    pool.WaitForFetches();  // The rest of the event interval.
    ++out.touches;
  }
  const dbtouch::cache::BlockCacheStats cache = pool.stats();
  const std::int64_t settled =
      cache.prefetch_staged_claims + cache.prefetch_staged_evictions;
  out.warmups = pool.fetch_stats().prefetch_enqueued;
  out.claimed_ratio =
      settled == 0 ? 0.0
                   : static_cast<double>(cache.prefetch_staged_claims) /
                         static_cast<double>(settled);
  out.bytes_per_touch = static_cast<double>(pool.fetch_stats().bytes_fetched) /
                        static_cast<double>(out.touches);
  return out;
}

/// Spills the bench column once into a scratch directory removed on exit.
class SpilledColumn {
 public:
  SpilledColumn()
      : dir_(std::filesystem::temp_directory_path() /
             ("dbtouch_bench_prefetch_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(dir_);
    std::vector<dbtouch::storage::Column> cols;
    cols.push_back(dbtouch::storage::GenSequenceInt64("v", kRows, 0, 1));
    table_ = *dbtouch::storage::Table::FromColumns("t", std::move(cols));
    dbtouch::storage::TableSpiller spiller(
        dir_.string(),
        dbtouch::storage::SpillOptions{.rows_per_block = kRowsPerBlock});
    auto provider = spiller.SpillColumn(table_, 0);
    DBTOUCH_CHECK(provider.ok());
    provider_ = *provider;
  }
  ~SpilledColumn() {
    provider_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  const std::shared_ptr<dbtouch::storage::Table>& table() const {
    return table_;
  }
  std::shared_ptr<dbtouch::cache::BlockProvider> provider() const {
    return provider_;
  }

 private:
  std::filesystem::path dir_;
  std::shared_ptr<dbtouch::storage::Table> table_;
  std::shared_ptr<dbtouch::cache::BlockProvider> provider_;
};

/// Prints the report; returns false when a --smoke gate fails.
bool PrintReport() {
  dbtouch::bench::Banner(
      "ABL-PREFETCH", "paper Section 2.6 'Prefetching Data'",
      "Touches that wait on cold blocks during slides over a spilled\n"
      "column, with warm-ups of the blocks the predicted touch events\n"
      "read vs demand fetching (real FetchQueue, 64 KiB blocks, 64-block\n"
      "pool, 8-block staging pad).");
  const SpilledColumn column;
  std::printf("\n");
  dbtouch::bench::Table table({"scenario", "prefetch", "touches",
                               "suspended", "warm-ups", "claimed_ratio",
                               "KiB_per_touch"});
  RunResult steady_on;
  RunResult steady_off;
  for (const char* scenario : {"steady", "pause-resume", "speed-up"}) {
    for (const bool on : {false, true}) {
      const RunResult r =
          Run(column.table(), column.provider(), scenario, on);
      table.Row({scenario, on ? "on" : "off", dbtouch::bench::Fmt(r.touches),
                 dbtouch::bench::Fmt(r.suspended),
                 dbtouch::bench::Fmt(r.warmups),
                 dbtouch::bench::Fmt(r.claimed_ratio),
                 dbtouch::bench::Fmt(r.bytes_per_touch / 1024.0, 1)});
      if (std::string(scenario) == "steady") {
        (on ? steady_on : steady_off) = r;
      }
    }
  }
  bool ok = true;
  std::printf("\nGate (steady): suspended on %lld <= off %lld: %s\n",
              static_cast<long long>(steady_on.suspended),
              static_cast<long long>(steady_off.suspended),
              steady_on.suspended <= steady_off.suspended ? "ok" : "FAIL");
  ok = ok && steady_on.suspended <= steady_off.suspended;
  std::printf("Gate (steady): claimed ratio %.2f >= %.2f: %s\n\n",
              steady_on.claimed_ratio, kClaimedRatioFloor,
              steady_on.claimed_ratio >= kClaimedRatioFloor ? "ok" : "FAIL");
  ok = ok && steady_on.claimed_ratio >= kClaimedRatioFloor;
  return ok;
}

void BM_PredictTouches(benchmark::State& state) {
  dbtouch::prefetch::GestureExtrapolator extrapolator;
  dbtouch::sim::Micros now = 0;
  dbtouch::storage::RowId row = 0;
  for (auto _ : state) {
    extrapolator.Observe(now, row);
    benchmark::DoNotOptimize(
        extrapolator.PredictTouches(now, 0.25, 15.0, kRows));
    now += 66'667;
    row = (row + kRows / 60) % kRows;
  }
}
BENCHMARK(BM_PredictTouches);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const bool ok = PrintReport();
  if (smoke) {
    return ok ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
