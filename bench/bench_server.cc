// SERVER — multi-session touch server: aggregate touch throughput and
// tail latency as concurrent sessions grow 1 -> N over one shared catalog.
//
// Two regimes per session count:
//
//   paced  — every session replays its slide trace on the gesture's own
//            timeline (touch events released at 15 Hz). This is the
//            fidelity regime: the server is keeping up when p99 latency
//            stays inside the frame deadline and misses stay rare.
//            Aggregate throughput grows ~linearly with sessions until the
//            machine saturates.
//
//   flood  — all events released immediately; the worker pool drains the
//            backlog as fast as it can. This is the capacity regime: raw
//            touches/second, plus how the EDF scheduler sheds (dropped
//            quanta) once deadlines are unmeetable by construction.
//
// Expectation on a >=4-core host: paced aggregate throughput at 16
// sessions is >4x the 1-session figure with p99 within the frame budget;
// flood throughput scales with cores. Default sweep ends at 16 sessions;
// pass --max-sessions=256 for the full curve.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cache/block_provider.h"
#include "server/frame_scheduler.h"
#include "server/touch_server.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

namespace {

using dbtouch::core::ActionConfig;
using dbtouch::core::Kernel;
using dbtouch::server::FrameScheduler;
using dbtouch::server::ServerStatsSnapshot;
using dbtouch::server::SessionId;
using dbtouch::server::SteadyNowUs;
using dbtouch::server::TouchServer;
using dbtouch::server::TouchServerConfig;
using dbtouch::server::TouchTask;
using dbtouch::server::TraceSubmitOptions;
using dbtouch::sim::MotionProfile;
using dbtouch::sim::PointCm;
using dbtouch::sim::TraceBuilder;
using dbtouch::storage::Column;
using dbtouch::storage::Table;
using dbtouch::touch::RectCm;

std::int64_t g_rows = 1'000'000;
double g_slide_seconds = 2.0;

struct RunResult {
  double wall_s = 0.0;
  double touches_per_s = 0.0;
  ServerStatsSnapshot stats;
};

RunResult RunSessions(int sessions, bool paced, bool tracing = false) {
  TouchServerConfig config;
  config.num_workers = 0;  // Hardware concurrency.
  config.enable_tracing = tracing;
  TouchServer server(config);
  {
    std::vector<Column> cols;
    cols.push_back(dbtouch::storage::GenSequenceInt64("v", g_rows, 0, 1));
    const auto table = *Table::FromColumns("t", std::move(cols));
    // Resident tables read in place; binding the column to a table
    // provider keeps every scan touch pinning a block of the shared pool,
    // so buffer_hit_rate measures the pool under this load.
    const auto provider =
        std::make_shared<dbtouch::cache::TableBlockProvider>(
            table, 0, config.session_defaults.buffer.rows_per_block);
    if (!server.RegisterTable(table).ok() ||
        !server.shared().SetColumnProvider("t", 0, provider).ok()) {
      return {};
    }
  }
  if (!server.Start().ok()) {
    return {};
  }

  Kernel reference;  // Device geometry for trace synthesis.
  TraceBuilder builder(reference.device());
  const auto trace =
      builder.Slide("slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                    MotionProfile::Constant(g_slide_seconds));

  std::vector<SessionId> ids;
  for (int i = 0; i < sessions; ++i) {
    const auto session = server.OpenSession();
    if (!session.ok()) {
      return {};
    }
    const auto object = server.CreateColumnObject(
        *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
    // Mixed fleet: even sessions slide-scan base data (every touch pins a
    // block of the shared BufferManager), odd sessions run the classic
    // sampled summary (reads shared sample copies instead).
    const ActionConfig action =
        i % 2 == 0 ? ActionConfig::Scan() : ActionConfig::Summary(10);
    if (!object.ok() ||
        !server.SetAction(*session, *object, action).ok()) {
      return {};
    }
    ids.push_back(*session);
  }

  const auto start_us = SteadyNowUs();
  TraceSubmitOptions options;
  options.paced = paced;
  for (const SessionId id : ids) {
    if (!server.SubmitTrace(id, trace, options).ok()) {
      return {};
    }
  }
  if (!server.Drain().ok()) {
    return {};
  }
  RunResult result;
  result.wall_s = static_cast<double>(SteadyNowUs() - start_us) / 1e6;
  result.stats = server.stats();
  result.touches_per_s =
      result.wall_s > 0.0
          ? static_cast<double>(result.stats.executed) / result.wall_s
          : 0.0;
  (void)server.Stop();
  return result;
}

void PrintRegime(const char* name, const std::vector<int>& sweep,
                 bool paced) {
  std::printf("\n[%s]\n", name);
  dbtouch::bench::Table table({"sessions", "touches/s", "speedup", "p50_ms",
                               "p99_ms", "misses", "dropped", "fairness",
                               "buf_hit", "buf_faults", "buf_res_KiB"});
  double base_throughput = 0.0;
  for (const int sessions : sweep) {
    const RunResult r = RunSessions(sessions, paced);
    if (sessions == sweep.front()) {
      base_throughput = r.touches_per_s;
    }
    table.Row({dbtouch::bench::Fmt(static_cast<std::int64_t>(sessions)),
               dbtouch::bench::Fmt(r.touches_per_s, 1),
               dbtouch::bench::Fmt(base_throughput > 0.0
                                       ? r.touches_per_s / base_throughput
                                       : 0.0,
                                   2),
               dbtouch::bench::Fmt(
                   static_cast<double>(r.stats.p50_latency_us) / 1e3, 2),
               dbtouch::bench::Fmt(
                   static_cast<double>(r.stats.p99_latency_us) / 1e3, 2),
               dbtouch::bench::Fmt(r.stats.deadline_misses),
               dbtouch::bench::Fmt(r.stats.dropped_quanta),
               dbtouch::bench::Fmt(r.stats.fairness, 3),
               dbtouch::bench::Fmt(r.stats.buffer.hit_rate(), 3),
               dbtouch::bench::Fmt(r.stats.buffer.faulted_blocks),
               dbtouch::bench::Fmt(r.stats.buffer.peak_resident_bytes /
                                   1024)});
  }
}

// ---- Cold tier: synchronous faults vs the async fetch pipeline -------------

/// A slow backing store: in-memory blocks served with an injected
/// per-fetch latency, advertised async() so the server may suspend on it.
class SlowTierProvider final : public dbtouch::cache::BlockProvider {
 public:
  SlowTierProvider(std::shared_ptr<const Table> table, std::size_t column,
                   std::int64_t rows_per_block, double latency_ms)
      : inner_(std::move(table), column, rows_per_block),
        latency_(latency_ms) {}

  const dbtouch::cache::BlockGeometry& geometry() const override {
    return inner_.geometry();
  }
  const dbtouch::storage::Dictionary* dictionary() const override {
    return inner_.dictionary();
  }
  bool async() const override { return true; }
  /// Block by block, each paying the latency: a ranged read is no
  /// cheaper per block on this tier.
  dbtouch::Status ReadBlocks(
      std::int64_t first_block,
      std::span<dbtouch::cache::Frame> frames) override {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(latency_));
      DBTOUCH_RETURN_IF_ERROR(inner_.ReadBlocks(
          first_block + static_cast<std::int64_t>(i), frames.subspan(i, 1)));
    }
    return dbtouch::Status::OK();
  }

 private:
  dbtouch::cache::TableBlockProvider inner_;
  double latency_;
};

RunResult RunColdTier(int sessions, bool async_fetch, double latency_ms,
                      bool tracing = false) {
  TouchServerConfig config;
  config.num_workers = 2;  // Few workers: a blocking fault hurts.
  config.async_fetch = async_fetch;
  config.enable_tracing = tracing;
  config.session_defaults.buffer.rows_per_block = 8'192;
  config.session_defaults.buffer.fetch.num_fetchers = 4;
  TouchServer server(config);
  // One cold table per session: every session faults its own blocks, as
  // a fleet of users exploring different datasets would.
  std::vector<SessionId> ids;
  Kernel reference;
  TraceBuilder builder(reference.device());
  for (int i = 0; i < sessions; ++i) {
    const std::string name = "cold" + std::to_string(i);
    std::vector<Column> cols;
    cols.push_back(dbtouch::storage::GenSequenceInt64("v", g_rows, 0, 1));
    auto table = *Table::FromColumns(name, std::move(cols));
    if (!server.RegisterTable(table).ok()) {
      return {};
    }
    auto provider = std::make_shared<SlowTierProvider>(
        table, 0, config.session_defaults.buffer.rows_per_block,
        latency_ms);
    if (!server.shared().SetColumnProvider(name, 0, provider).ok()) {
      return {};
    }
  }
  if (!server.Start().ok()) {
    return {};
  }
  for (int i = 0; i < sessions; ++i) {
    const auto session = server.OpenSession();
    if (!session.ok()) {
      return {};
    }
    const auto object = server.CreateColumnObject(
        *session, "cold" + std::to_string(i), "v",
        RectCm{2.0, 1.0, 2.0, 10.0});
    if (!object.ok() ||
        !server.SetAction(*session, *object, ActionConfig::Scan()).ok()) {
      return {};
    }
    ids.push_back(*session);
  }
  // Paced replay: latency measures what a live user would wait for each
  // touch, so a worker stuck under a synchronous fault shows up as tail
  // latency for every session it was supposed to serve.
  const auto start_us = SteadyNowUs();
  const auto trace =
      builder.Slide("slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                    MotionProfile::Constant(g_slide_seconds));
  for (const SessionId id : ids) {
    if (!server.SubmitTrace(id, trace, {/*paced=*/true}).ok()) {
      return {};
    }
  }
  if (!server.Drain().ok()) {
    return {};
  }
  RunResult result;
  result.wall_s = static_cast<double>(SteadyNowUs() - start_us) / 1e6;
  result.stats = server.stats();
  result.touches_per_s =
      result.wall_s > 0.0
          ? static_cast<double>(result.stats.executed) / result.wall_s
          : 0.0;
  (void)server.Stop();
  return result;
}

void PrintColdTier(const std::vector<int>& sweep, double latency_ms) {
  std::printf("\n[cold tier: %.1f ms/block backing store, 2 workers]\n",
              latency_ms);
  dbtouch::bench::Table table(
      {"sessions", "mode", "touches/s", "p99_ms", "suspended", "demand",
       "prefetch", "retries", "errors", "shed"});
  for (const int sessions : sweep) {
    for (const bool async_fetch : {false, true}) {
      const RunResult r = RunColdTier(sessions, async_fetch, latency_ms);
      table.Row(
          {dbtouch::bench::Fmt(static_cast<std::int64_t>(sessions)),
           async_fetch ? "async" : "sync",
           dbtouch::bench::Fmt(r.touches_per_s, 1),
           dbtouch::bench::Fmt(
               static_cast<double>(r.stats.p99_latency_us) / 1e3, 2),
           dbtouch::bench::Fmt(r.stats.fetch.suspended_quanta),
           dbtouch::bench::Fmt(r.stats.fetch.demand_fetches),
           dbtouch::bench::Fmt(r.stats.fetch.prefetch_fetches),
           dbtouch::bench::Fmt(r.stats.fetch.retries),
           dbtouch::bench::Fmt(r.stats.fetch.fetch_errors),
           dbtouch::bench::Fmt(r.stats.fetch.shed_on_fetch_error)});
    }
  }
  std::printf(
      "\nsync mode faults block the worker under the fetch; async mode\n"
      "parks the session on the FetchQueue (suspended column) and the\n"
      "worker serves other sessions, so p99 under cold faults drops and\n"
      "prefetch warms the extrapolated slide path before the finger\n"
      "arrives.\n\n");
}

// ---- ABL-DEADLINE: deadline-sacred partial answers under cold faults -------

struct AblResult {
  double hit_rate = 0.0;
  std::int64_t executed = 0;
  std::int64_t misses = 0;
  std::int64_t partials = 0;
  std::int64_t refinements = 0;
  std::int64_t refinements_shed = 0;
  double refine_p99_us = 0.0;
  /// Every partial answer accounted for: refined or explicitly shed.
  bool converged = false;
};

/// Cold-fault regime where every classic park is a guaranteed deadline
/// miss by construction: per-block fetch latency is several times the
/// frame budget. With partial_answers off the server can only park and
/// miss; with it on, every stalled slide quantum answers from the
/// resident sample level inside its deadline and refines when the blocks
/// land. Prefetch is disabled so the deadline mechanism is isolated —
/// every block the finger reaches is a cold fault at touch time.
AblResult RunAblDeadline(int sessions, bool partial_answers,
                         double latency_ms, dbtouch::sim::Micros budget_us) {
  TouchServerConfig config;
  config.num_workers = 2;
  config.async_fetch = true;
  config.partial_answers = partial_answers;
  config.base_frame_budget_us = budget_us;
  config.min_frame_budget_us = budget_us;
  config.session_defaults.buffer.rows_per_block = 8'192;
  config.session_defaults.buffer.fetch.num_fetchers = 4;
  config.session_defaults.prefetch_enabled = false;
  TouchServer server(config);
  Kernel reference;
  TraceBuilder builder(reference.device());
  for (int i = 0; i < sessions; ++i) {
    const std::string name = "abl" + std::to_string(i);
    std::vector<Column> cols;
    cols.push_back(dbtouch::storage::GenSequenceInt64("v", g_rows, 0, 1));
    auto table = *Table::FromColumns(name, std::move(cols));
    if (!server.RegisterTable(table).ok()) {
      return {};
    }
    auto provider = std::make_shared<SlowTierProvider>(
        table, 0, config.session_defaults.buffer.rows_per_block, latency_ms);
    if (!server.shared().SetColumnProvider(name, 0, provider).ok()) {
      return {};
    }
  }
  if (!server.Start().ok()) {
    return {};
  }
  std::vector<SessionId> ids;
  for (int i = 0; i < sessions; ++i) {
    const auto session = server.OpenSession();
    if (!session.ok()) {
      return {};
    }
    const auto object = server.CreateColumnObject(
        *session, "abl" + std::to_string(i), "v",
        RectCm{2.0, 1.0, 2.0, 10.0});
    if (!object.ok() ||
        !server.SetAction(*session, *object, ActionConfig::Scan()).ok()) {
      return {};
    }
    ids.push_back(*session);
  }
  // Warm-up: one tap at the slide's start point per session faults the
  // first block in and seeds the fetch-latency EWMA. The contract extends
  // deadlines only by MEASURED latency, so an unmeasured tier parks
  // classically — the measured run must begin with a truthful model.
  const auto tap = builder.Tap("warm", PointCm{3.0, 1.0});
  for (const SessionId id : ids) {
    if (!server.SubmitTrace(id, tap, {/*paced=*/false}).ok()) {
      return {};
    }
  }
  if (!server.Drain().ok()) {
    return {};
  }
  // Measure the slide regime as a delta past the warm-up's stats: the
  // warm-up taps park on an unmeasured tier and miss by design.
  const ServerStatsSnapshot before = server.stats();
  const auto trace =
      builder.Slide("slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                    MotionProfile::Constant(2.0));
  for (const SessionId id : ids) {
    if (!server.SubmitTrace(id, trace, {/*paced=*/true}).ok()) {
      return {};
    }
  }
  if (!server.Drain().ok()) {
    return {};
  }
  const ServerStatsSnapshot after = server.stats();
  AblResult r;
  r.executed = after.executed - before.executed;
  r.misses = after.deadline_misses - before.deadline_misses;
  r.partials = after.partial_answers - before.partial_answers;
  r.refinements = after.refinements - before.refinements;
  r.refinements_shed = after.refinements_shed - before.refinements_shed;
  r.hit_rate = r.executed > 0 ? 1.0 - static_cast<double>(r.misses) /
                                          static_cast<double>(r.executed)
                              : 0.0;
  r.refine_p99_us =
      static_cast<double>(after.stages.refine.Percentile(0.99));
  r.converged = r.partials == r.refinements + r.refinements_shed;
  (void)server.Stop();
  return r;
}

/// Returns false (and prints FAILED) when the deadline/fidelity contract
/// does not hold end-to-end; metrics + gates land in `report`.
bool AblDeadline(bool smoke, dbtouch::bench::BenchReport& report) {
  const int sessions = 8;
  const double latency_ms = smoke ? 15.0 : 25.0;
  const dbtouch::sim::Micros budget_us = 5'000;
  std::printf(
      "\n[ABL-DEADLINE: %d sessions, %.0f ms/block cold tier, %lld us "
      "frame budget]\n",
      sessions, latency_ms, static_cast<long long>(budget_us));
  const AblResult classic =
      RunAblDeadline(sessions, /*partial_answers=*/false, latency_ms,
                     budget_us);
  const AblResult partial =
      RunAblDeadline(sessions, /*partial_answers=*/true, latency_ms,
                     budget_us);
  dbtouch::bench::Table table({"mode", "executed", "hit_rate", "partials",
                               "refined", "shed", "refine_p99_ms"});
  const auto row = [&](const char* name, const AblResult& r) {
    table.Row({name, dbtouch::bench::Fmt(r.executed),
               dbtouch::bench::Fmt(r.hit_rate, 4),
               dbtouch::bench::Fmt(r.partials),
               dbtouch::bench::Fmt(r.refinements),
               dbtouch::bench::Fmt(r.refinements_shed),
               dbtouch::bench::Fmt(r.refine_p99_us / 1e3, 2)});
  };
  row("park (classic)", classic);
  row("partial+refine", partial);
  const bool abl_ok = partial.executed > 0 && partial.hit_rate >= 0.99 &&
                      partial.partials > 0 && partial.converged &&
                      partial.hit_rate > classic.hit_rate;
  std::printf(
      "\nABL-DEADLINE %s: fetch latency >> frame budget makes every classic\n"
      "park a guaranteed miss; the deadline-sacred path answers from the\n"
      "resident sample level inside the deadline (hit_rate >= 0.99) and\n"
      "every partial answer converges to full fidelity (partials ==\n"
      "refined + shed: %lld == %lld + %lld).\n",
      abl_ok ? "OK" : "FAILED", static_cast<long long>(partial.partials),
      static_cast<long long>(partial.refinements),
      static_cast<long long>(partial.refinements_shed));
  report.Metric("abl_deadline_hit_rate", partial.hit_rate);
  report.Metric("abl_classic_hit_rate", classic.hit_rate);
  report.Metric("abl_partial_answers", partial.partials);
  report.Metric("abl_refinements", partial.refinements);
  report.Metric("abl_refine_p99_us", partial.refine_p99_us);
  // The hit-rate gate is tight (it is the contract); refinement p99 is
  // wall-clock on a shared runner, so its gate only catches rot.
  report.Gate("abl_deadline_hit_rate", "higher", 0.01);
  report.Gate("abl_refine_p99_us", "lower", 1.0);
  return abl_ok;
}

// ---- Perf trajectory: BENCH_server.json + tracing-overhead A/B -------------

/// Runs the trajectory regimes, prints the tracing A/B, and writes
/// BENCH_server.json — the metric report CI diffs against the checked-in
/// baseline (bench/baselines/BENCH_server.json). Exits non-zero when the
/// observability layer itself is broken (no spans recorded, or the stage
/// histograms stop summing to the end-to-end latency).
/// Interleaved best-of-N flood A/B for the tracing overhead number.
/// The paced regime cannot resolve a ~ns-scale hook cost at the tail: its
/// p99 is the worst of tens of touches, and that worst touch is a multi-ms
/// OS timer/condvar wakeup outlier on whichever arm drew it. Flood is the
/// regime where p99 IS code cost: queue wait is deterministic backlog
/// depth (identical in both arms — and it *amplifies* any real per-quantum
/// overhead by the queue length), samples are cheap enough that p99 sits
/// ~12 samples inside the tail, and any hook cost lands directly in the
/// drain critical path. Arms are interleaved (later runs in a process are
/// systematically faster as allocator pools warm) and each arm keeps its
/// min-p99 run.
std::pair<RunResult, RunResult> RunTraceAb(int sessions, int reps) {
  RunResult best_off;
  RunResult best_on;
  for (int i = 0; i < reps; ++i) {
    RunResult off = RunSessions(sessions, /*paced=*/false, /*tracing=*/false);
    RunResult on = RunSessions(sessions, /*paced=*/false, /*tracing=*/true);
    if (i == 0 || off.stats.p99_latency_us < best_off.stats.p99_latency_us) {
      best_off = std::move(off);
    }
    if (i == 0 || on.stats.p99_latency_us < best_on.stats.p99_latency_us) {
      best_on = std::move(on);
    }
  }
  return {std::move(best_off), std::move(best_on)};
}

/// Nanoseconds per TraceRecorder::Record, timed over a large tight loop.
/// Wall-clock p99 A/Bs on shared runners have a ±15% noise floor — they
/// show statistical equivalence, but cannot resolve the 2% overhead
/// budget. This can: per-record cost × records-per-quantum / p99 is the
/// overhead tracing is even capable of adding to the tail.
double MeasureHookCostNs() {
  dbtouch::obs::TraceRecorderConfig config;
  dbtouch::obs::TraceRecorder recorder(config);
  constexpr int kRecords = 200'000;
  const auto start_us = SteadyNowUs();
  for (int i = 0; i < kRecords; ++i) {
    recorder.Record(dbtouch::obs::SpanStage::kExecuting,
                    /*quantum_id=*/i + 1, /*session_id=*/i % 16);
  }
  const auto wall_us = SteadyNowUs() - start_us;
  return static_cast<double>(wall_us) * 1e3 / kRecords;
}

void PerfTrajectory(bool smoke) {
  std::printf("\n[perf trajectory]\n");
  const int sessions = smoke ? 2 : 8;
  // Tracing A/B: identical flood load with the span ring off and on, a
  // long gesture for tail samples (flood ignores pacing, so a longer
  // trace costs touches, not seconds), and a discarded warmup run for
  // first-run thread/pool init.
  const double saved_slide_seconds = g_slide_seconds;
  g_slide_seconds = 5.0;
  const int ab_sessions = std::max(sessions, 12);
  (void)RunSessions(ab_sessions, /*paced=*/false, /*tracing=*/false);
  const auto [flood_off, flood] = RunTraceAb(ab_sessions, /*reps=*/10);
  g_slide_seconds = saved_slide_seconds;
  // Paced = what a live user waits; best-of-3 because a paced run's tail
  // is a handful of touches and rides OS wakeup outliers.
  RunResult paced_on;
  for (int i = 0; i < 3; ++i) {
    RunResult r = RunSessions(sessions, /*paced=*/true, /*tracing=*/true);
    if (i == 0 ||
        r.stats.p99_latency_us < paced_on.stats.p99_latency_us) {
      paced_on = std::move(r);
    }
  }
  // Cold tier exercises suspend/park/fetch/resume, so fetch_stall is a
  // real (non-zero) stage in this run.
  const RunResult cold =
      RunColdTier(2, /*async_fetch=*/true, smoke ? 1.0 : 5.0,
                  /*tracing=*/true);

  const auto p = [](const dbtouch::obs::HistogramSnapshot& h, double q) {
    return static_cast<double>(h.Percentile(q)) / 1e3;
  };
  dbtouch::bench::Table table({"regime", "p50_ms", "p99_ms", "queue_p99",
                               "exec_p99", "stall_p99"});
  const auto row = [&](const char* name, const RunResult& r) {
    table.Row({name,
               dbtouch::bench::Fmt(
                   static_cast<double>(r.stats.p50_latency_us) / 1e3, 2),
               dbtouch::bench::Fmt(
                   static_cast<double>(r.stats.p99_latency_us) / 1e3, 2),
               dbtouch::bench::Fmt(p(r.stats.stages.queue_wait, 0.99), 2),
               dbtouch::bench::Fmt(p(r.stats.stages.exec, 0.99), 2),
               dbtouch::bench::Fmt(p(r.stats.stages.fetch_stall, 0.99), 2)});
  };
  row("flood/trace-off", flood_off);
  row("flood/trace-on", flood);
  row("paced/trace-on", paced_on);
  row("cold/trace-on", cold);

  const double p99_off = static_cast<double>(flood_off.stats.p99_latency_us);
  const double p99_on = static_cast<double>(flood.stats.p99_latency_us);
  const double trace_delta_pct =
      p99_off > 0.0 ? (p99_on - p99_off) / p99_off * 100.0 : 0.0;
  std::printf("\ntracing p99 A/B delta: %.2f%% (off %.2f ms, on %.2f ms; "
              "shared-runner noise floor ~15%%)\n",
              trace_delta_pct, p99_off / 1e3, p99_on / 1e3);
  // The 2% overhead budget, resolved deterministically: even a quantum
  // that suspends once records ~10 spans, so 10x the measured per-record
  // cost bounds what tracing can add to a touch. Relate that to the
  // user-facing (paced) p99.
  const double hook_ns = MeasureHookCostNs();
  constexpr double kRecordsPerQuantum = 10.0;
  const double paced_p99_us =
      static_cast<double>(paced_on.stats.p99_latency_us);
  const double implied_pct =
      paced_p99_us > 0.0
          ? kRecordsPerQuantum * hook_ns / (paced_p99_us * 1e3) * 100.0
          : 100.0;
  std::printf("tracing hook cost: %.0f ns/record; %.0f records/quantum "
              "= %.3f%% of paced p99 %.2f ms (budget <2%%)\n",
              hook_ns, kRecordsPerQuantum, implied_pct, paced_p99_us / 1e3);

  // Observability self-checks — the smoke gate for this subsystem. The
  // stage sums are exact accumulations and the worker-loop timing tiles
  // [release, done] with no gaps, so the invariant is exact equality.
  const auto& st = flood.stats.stages;
  const std::int64_t stage_sum =
      st.queue_wait.sum + st.exec.sum + st.fetch_stall.sum;
  const bool spans_ok = flood.stats.executed > 0 &&
                        st.e2e.count == flood.stats.executed &&
                        stage_sum == st.e2e.sum &&
                        cold.stats.stages.fetch_stall.max > 0 &&
                        implied_pct < 2.0;
  std::printf(
      "observability %s: stage sums %lld us vs e2e %lld us over %lld "
      "touches; cold-tier stall p99 %.2f ms\n",
      spans_ok ? "OK" : "FAILED", static_cast<long long>(stage_sum),
      static_cast<long long>(st.e2e.sum),
      static_cast<long long>(st.e2e.count),
      p(cold.stats.stages.fetch_stall, 0.99));

  dbtouch::bench::BenchReport report("server");
  report.Metric("flood_touches_per_s", flood.touches_per_s);
  report.Metric("paced_touches_per_s", paced_on.touches_per_s);
  report.Metric("paced_p50_us", paced_on.stats.p50_latency_us);
  report.Metric("paced_p99_us", paced_on.stats.p99_latency_us);
  report.Metric("paced_miss_rate", paced_on.stats.miss_rate());
  report.Metric("trace_p99_delta_pct", trace_delta_pct);
  report.Metric("trace_hook_ns_per_record", hook_ns);
  report.Metric("trace_implied_p99_overhead_pct", implied_pct);
  // Stage percentiles come from the flood arm: its queue depth (and so
  // its stage mix) is structural, not OS-wakeup noise like paced.
  report.Metric("queue_wait_p50_us",
                flood.stats.stages.queue_wait.Percentile(0.50));
  report.Metric("queue_wait_p99_us",
                flood.stats.stages.queue_wait.Percentile(0.99));
  report.Metric("exec_p50_us", flood.stats.stages.exec.Percentile(0.50));
  report.Metric("exec_p99_us", flood.stats.stages.exec.Percentile(0.99));
  report.Metric("fetch_stall_p50_us",
                cold.stats.stages.fetch_stall.Percentile(0.50));
  report.Metric("fetch_stall_p99_us",
                cold.stats.stages.fetch_stall.Percentile(0.99));
  report.Metric("buffer_hit_rate", flood.stats.buffer.hit_rate());
  report.Metric("buffer_faults", flood.stats.buffer.faulted_blocks);
  report.Metric("cold_suspended_quanta",
                cold.stats.fetch.suspended_quanta);
  const double cold_blocks =
      static_cast<double>(cold.stats.fetch.demand_fetches +
                          cold.stats.fetch.prefetch_fetches);
  report.Metric("cold_ranged_read_ratio",
                cold_blocks > 0.0
                    ? static_cast<double>(cold.stats.fetch.ranged_blocks) /
                          cold_blocks
                    : 0.0);
  // Gates: counts and ratios are load-shaped (tight); wall-clock numbers
  // vary with the host (loose). Tolerances live in the baseline file;
  // see tools/compare_bench.py.
  // Wall-clock gates are wide (CI runners differ from the machine that
  // wrote the baseline); they exist to catch order-of-magnitude rot, not
  // host variance. The ratio gate keeps the ISSUE-default 20%.
  report.Gate("flood_touches_per_s", "higher", 0.7);
  report.Gate("paced_p50_us", "lower", 1.0);
  report.Gate("buffer_hit_rate", "higher", 0.2);
  const bool abl_ok = AblDeadline(smoke, report);
  report.Write("BENCH_server.json");
  if (!spans_ok || !abl_ok) {
    std::exit(1);  // The --smoke CI step must fail on observability rot
                   // or a broken deadline/fidelity contract.
  }
}

void PrintReport(int max_sessions, bool smoke) {
  dbtouch::bench::Banner(
      "SERVER", "multi-session touch server",
      "Aggregate touch throughput and tail latency vs. concurrent "
      "sessions over one shared catalog.");
  std::vector<int> sweep;
  for (int s = 1; s <= max_sessions; s *= 4) {
    sweep.push_back(s);
  }
  if (sweep.back() != max_sessions) {
    sweep.push_back(max_sessions);
  }
  PrintRegime("paced: events released at gesture speed", sweep, true);
  PrintRegime("flood: backlog drained at full tilt", sweep, false);
  std::printf(
      "\nPaced throughput is served load: it must scale ~linearly with\n"
      "sessions while p99 stays inside the frame budget (the deadline\n"
      "contract holds). Flood throughput is capacity: it scales with\n"
      "cores until sessions contend, after which EDF sheds late move\n"
      "quanta instead of stalling gesture streams. buf_* columns track\n"
      "the shared BufferManager: every session's base-data reads pin\n"
      "blocks of one bounded pool (buf_res_KiB <= its byte budget).\n\n");
  PrintColdTier(sweep, smoke ? 1.0 : 5.0);
}

// Micro-benchmark: scheduler push/pop round trip, the per-quantum
// overhead every touch pays on top of kernel execution.
void BM_SchedulerRoundTrip(benchmark::State& state) {
  FrameScheduler scheduler;
  std::int64_t seq = 0;
  for (auto _ : state) {
    TouchTask task;
    task.session_id = seq % 16;
    task.deadline_us = SteadyNowUs() + 1'000'000 + (seq % 7) * 100;
    ++seq;
    scheduler.Push(task);
    auto popped = scheduler.PopRunnable();
    benchmark::DoNotOptimize(popped);
    scheduler.OnTaskDone(popped->session_id);
  }
}
BENCHMARK(BM_SchedulerRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  int max_sessions = 16;
  bool smoke = false;
  for (int i = 1; i < argc;) {
    const char* prefix = "--max-sessions=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      max_sessions = std::atoi(argv[i] + std::strlen(prefix));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // CI bit-rot guard: tiny data and sweeps so every regime (incl. the
      // cold tier) runs in seconds, not minutes.
      smoke = true;
      max_sessions = 2;
      g_rows = 100'000;
      g_slide_seconds = 0.3;
    } else {
      ++i;
      continue;
    }
    for (int j = i; j + 1 < argc; ++j) {
      argv[j] = argv[j + 1];
    }
    --argc;
  }
  if (max_sessions < 1) {
    max_sessions = 1;
  }
  PrintReport(max_sessions, smoke);
  PerfTrajectory(smoke);
  benchmark::Initialize(&argc, argv);
  if (!smoke) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
