// Tests for the multi-session touch server: scheduler EDF semantics,
// session isolation (zero cross-session leakage), deadline accounting,
// load shedding and stats roll-up. Patterns are ThreadSanitizer-friendly:
// every cross-thread assertion happens after Drain()/Stop() joins, and
// in-flight state is only inspected through the locked WithSession door.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cache/block_provider.h"
#include "core/kernel.h"
#include "remote/remote_store.h"
#include "sampling/level_policy.h"
#include "server/frame_scheduler.h"
#include "server/session_manager.h"
#include "server/server_stats.h"
#include "server/touch_server.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

namespace dbtouch::server {
namespace {

using core::ActionConfig;
using core::Kernel;
using core::KernelConfig;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::Table;
using touch::RectCm;

constexpr std::int64_t kRows = 20'000;
/// Disjoint value ranges per session table: any value observed outside a
/// session's own range is cross-session leakage.
constexpr std::int64_t kRangeStride = 1'000'000;

std::shared_ptr<Table> SequenceTable(const std::string& name,
                                     std::int64_t start) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", kRows, start, 1));
  auto table = Table::FromColumns(name, std::move(cols));
  EXPECT_TRUE(table.ok());
  return *table;
}

/// A generous config: budgets far above any realistic execution time, so
/// nothing sheds or drops and behaviour is deterministic.
TouchServerConfig RelaxedConfig(int workers) {
  TouchServerConfig config;
  config.num_workers = workers;
  config.base_frame_budget_us = 10'000'000;  // 10 s.
  config.min_frame_budget_us = 10'000'000;
  config.est_row_ns = 0.0;
  config.drop_slack_us = 3'600'000'000;  // Effectively never drop.
  return config;
}

sim::GestureTrace SlideOver(const TouchServer& /*server*/,
                            const Kernel& reference, double duration_s) {
  TraceBuilder builder(reference.device());
  return builder.Slide("slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                       MotionProfile::Constant(duration_s));
}

/// A slow-tier provider for async tests: delegates to an in-memory
/// TableBlockProvider but advertises async() (so the kernel suspends on
/// its cold blocks) and blocks each fetch on a gate the test controls.
class GatedSlowProvider final : public cache::BlockProvider {
 public:
  GatedSlowProvider(std::shared_ptr<const Table> table, std::size_t column,
                    std::int64_t rows_per_block)
      : inner_(std::move(table), column, rows_per_block) {}

  const cache::BlockGeometry& geometry() const override {
    return inner_.geometry();
  }
  const storage::Dictionary* dictionary() const override {
    return inner_.dictionary();
  }
  bool async() const override { return true; }

  /// Block by block, each waiting at the gate.
  Status ReadBlocks(std::int64_t first_block,
                    std::span<cache::Frame> frames) override {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        ++fetches_started_;
        started_cv_.notify_all();
        // Safety valve: a wedged test run releases itself instead of
        // hanging the suite.
        gate_cv_.wait_for(lock, std::chrono::seconds(10),
                          [this] { return open_; });
      }
      fetches_.fetch_add(1, std::memory_order_relaxed);
      DBTOUCH_RETURN_IF_ERROR(inner_.ReadBlocks(
          first_block + static_cast<std::int64_t>(i), frames.subspan(i, 1)));
    }
    return Status::OK();
  }

  void OpenGate() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }

  /// Blocks until at least `n` fetches have entered the gate.
  void AwaitFetchStarted(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait_for(lock, std::chrono::seconds(10),
                         [&] { return fetches_started_ >= n; });
  }

  std::int64_t fetches() const {
    return fetches_.load(std::memory_order_relaxed);
  }

 private:
  cache::TableBlockProvider inner_;
  std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable started_cv_;
  bool open_ = false;
  int fetches_started_ = 0;
  std::atomic<std::int64_t> fetches_{0};
};

// ---- FrameScheduler unit tests --------------------------------------------

TouchTask MakeTask(std::int64_t session, sim::Micros deadline,
                   sim::Micros release = 0, bool droppable = false) {
  TouchTask task;
  task.session_id = session;
  task.release_us = release;
  task.deadline_us = deadline;
  task.droppable = droppable;
  return task;
}

TEST(FrameSchedulerTest, PopsEarliestDeadlineFirst) {
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.Push(MakeTask(1, now + 300));
  scheduler.Push(MakeTask(2, now + 100));
  scheduler.Push(MakeTask(3, now + 200));
  const auto first = scheduler.PopRunnable();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->session_id, 2);
  scheduler.OnTaskDone(2);
  const auto second = scheduler.PopRunnable();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->session_id, 3);
  scheduler.OnTaskDone(3);
}

TEST(FrameSchedulerTest, SessionOrderIsFifoEvenWithDeadlineInversion) {
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  // Session 1 queues a late-deadline task before an early-deadline one;
  // FIFO within the session must win (gesture order is sacred).
  scheduler.Push(MakeTask(1, now + 500));
  auto second_task = MakeTask(1, now + 10);
  second_task.event.finger_id = 42;  // Marker.
  scheduler.Push(second_task);
  const auto first = scheduler.PopRunnable();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->event.finger_id, 0);
  scheduler.OnTaskDone(1);
  const auto second = scheduler.PopRunnable();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->event.finger_id, 42);
  scheduler.OnTaskDone(1);
}

TEST(FrameSchedulerTest, BusySessionIsSkipped) {
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.Push(MakeTask(1, now + 10));
  scheduler.Push(MakeTask(1, now + 20));
  scheduler.Push(MakeTask(2, now + 500));
  const auto first = scheduler.PopRunnable();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->session_id, 1);
  // Session 1 is busy; its earlier-deadline second task must not run, so
  // session 2 is next despite the later deadline.
  const auto second = scheduler.PopRunnable();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->session_id, 2);
  scheduler.OnTaskDone(1);
  scheduler.OnTaskDone(2);
  const auto third = scheduler.PopRunnable();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->session_id, 1);
  scheduler.OnTaskDone(1);
}

TEST(FrameSchedulerTest, ReleaseTimeGatesRunnability) {
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.Push(MakeTask(1, now + 100'000, now + 20'000));  // Future.
  scheduler.Push(MakeTask(2, now + 500'000, now));           // Released.
  const auto first = scheduler.PopRunnable();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->session_id, 2);
  scheduler.OnTaskDone(2);
  // Blocks until session 1's release time passes, then returns it.
  const auto second = scheduler.PopRunnable();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->session_id, 1);
  EXPECT_GE(SteadyNowUs(), second->release_us);
  scheduler.OnTaskDone(1);
}

TEST(FrameSchedulerTest, DropSessionDiscardsQueue) {
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.Push(MakeTask(7, now + 10));
  scheduler.Push(MakeTask(7, now + 20));
  EXPECT_EQ(scheduler.PendingOf(7), 2u);
  EXPECT_EQ(scheduler.DropSession(7), 2u);
  EXPECT_EQ(scheduler.PendingOf(7), 0u);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(FrameSchedulerTest, ShutdownUnblocksPop) {
  FrameScheduler scheduler;
  std::thread closer([&scheduler] { scheduler.Shutdown(); });
  EXPECT_FALSE(scheduler.PopRunnable().has_value());
  closer.join();
}

TEST(FrameSchedulerTest, ParkedSessionYieldsToOthersAndResumesOnUnpark) {
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.Push(MakeTask(1, now + 10));
  scheduler.Push(MakeTask(2, now + 500));
  const auto first = scheduler.PopRunnable();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->session_id, 1);
  // Session 1's quantum suspends on a fetch: parked, its worker freed.
  scheduler.ParkForFetch(*first);
  EXPECT_EQ(scheduler.parked(), 1u);
  // Session 2 runs although session 1's (parked) head has the earlier
  // deadline — that is the idle slot the fetch fills.
  const auto second = scheduler.PopRunnable();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->session_id, 2);
  scheduler.OnTaskDone(2);
  // Fetch completes: the suspended quantum comes back first, marked as a
  // resume so the worker re-enters instead of re-feeding the recognizer.
  scheduler.Unpark(1);
  EXPECT_EQ(scheduler.parked(), 0u);
  const auto third = scheduler.PopRunnable();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->session_id, 1);
  EXPECT_TRUE(third->resume);
  scheduler.OnTaskDone(1);
  // Unparking an unknown session is a harmless no-op.
  scheduler.Unpark(42);
}

// ---- Stats helpers ---------------------------------------------------------

TEST(ServerStatsTest, PercentilesAndFairness) {
  std::vector<sim::Micros> samples;
  for (sim::Micros v = 1; v <= 100; ++v) {
    samples.push_back(v);
  }
  EXPECT_EQ(LatencyPercentile(samples, 0.5), 50);
  EXPECT_EQ(LatencyPercentile(samples, 0.99), 99);
  EXPECT_EQ(LatencyPercentile({}, 0.99), 0);
  EXPECT_DOUBLE_EQ(JainFairness({5, 5, 5, 5}), 1.0);
  EXPECT_NEAR(JainFairness({10, 0, 0, 0}), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(JainFairness({}), 1.0);
}

// ---- TouchServer integration ----------------------------------------------

TEST(TouchServerTest, SessionsShareOneHierarchyPerColumn) {
  TouchServer server(RelaxedConfig(2));
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 4; ++i) {
    const auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    const auto object = server.CreateColumnObject(
        *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
    ASSERT_TRUE(object.ok());
  }
  // Four sessions, one shared sample hierarchy: the memory story of the
  // server — samples are paid for once, not per user.
  EXPECT_EQ(server.shared().hierarchy_count(), 1u);
  EXPECT_GT(server.shared().sample_bytes(), 0u);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerTest, NoCrossSessionLeakageAndResultsMatchSingleUser) {
  constexpr int kSessions = 6;
  TouchServer server(RelaxedConfig(4));
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(server
                    .RegisterTable(SequenceTable("t" + std::to_string(i),
                                                 i * kRangeStride))
                    .ok());
  }
  ASSERT_TRUE(server.Start().ok());

  std::vector<SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    const auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    ids.push_back(*session);
    const auto object = server.CreateColumnObject(
        *session, "t" + std::to_string(i), "v",
        RectCm{2.0, 1.0, 2.0, 10.0});
    ASSERT_TRUE(object.ok());
  }

  // Golden: the identical exploration in a single-user kernel.
  KernelConfig golden_config;
  Kernel golden(golden_config);
  ASSERT_TRUE(golden.RegisterTable(SequenceTable("g", 0)).ok());
  ASSERT_TRUE(
      golden.CreateColumnObject("g", "v", RectCm{2.0, 1.0, 2.0, 10.0})
          .ok());
  const sim::GestureTrace trace = SlideOver(server, golden, 1.0);
  golden.Replay(trace);

  for (const SessionId id : ids) {
    ASSERT_TRUE(server.SubmitTrace(id, trace, {/*paced=*/false}).ok());
  }
  ASSERT_TRUE(server.Drain().ok());

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(server
                    .WithSession(ids[i],
                                 [&](Kernel& kernel) {
                                   const auto& items =
                                       kernel.results().items();
                                   ASSERT_EQ(
                                       items.size(),
                                       golden.results().items().size());
                                   const std::int64_t lo =
                                       i * kRangeStride;
                                   for (std::size_t j = 0;
                                        j < items.size(); ++j) {
                                     // Same rows as the single-user run,
                                     // values offset into this session's
                                     // private range — any value outside
                                     // it would be leakage.
                                     EXPECT_EQ(
                                         items[j].row,
                                         golden.results().items()[j].row);
                                     EXPECT_EQ(items[j].value.AsInt(),
                                               golden.results()
                                                       .items()[j]
                                                       .value.AsInt() +
                                                   lo);
                                     EXPECT_GE(items[j].value.AsInt(), lo);
                                     EXPECT_LT(items[j].value.AsInt(),
                                               lo + kRows);
                                   }
                                   EXPECT_EQ(
                                       kernel.stats().entries_returned,
                                       golden.stats().entries_returned);
                                   EXPECT_EQ(kernel.stats().rows_scanned,
                                             golden.stats().rows_scanned);
                                 })
                    .ok());
  }

  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.dropped_quanta, 0);
  EXPECT_EQ(stats.executed, stats.submitted);
  EXPECT_EQ(stats.sessions_active, kSessions);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerTest, StatsRollUpAndFairness) {
  constexpr int kSessions = 4;
  TouchServer server(RelaxedConfig(2));
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  ASSERT_TRUE(server.Start().ok());
  Kernel reference;  // Only for the device geometry in trace building.
  const sim::GestureTrace trace = SlideOver(server, reference, 1.0);

  std::vector<SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    const auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    const auto object = server.CreateColumnObject(
        *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
    ASSERT_TRUE(object.ok());
    ids.push_back(*session);
    ASSERT_TRUE(server.SubmitTrace(*session, trace, {/*paced=*/false}).ok());
  }
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();

  EXPECT_EQ(stats.submitted,
            static_cast<std::int64_t>(kSessions * trace.events.size()));
  EXPECT_EQ(stats.executed + stats.dropped_quanta, stats.submitted);
  std::int64_t executed_sum = 0;
  for (const auto& [id, per] : stats.per_session) {
    executed_sum += per.executed;
    EXPECT_EQ(per.submitted,
              static_cast<std::int64_t>(trace.events.size()));
    EXPECT_GT(per.touch_events, 0);
  }
  EXPECT_EQ(executed_sum, stats.executed);
  // Identical workloads, relaxed deadlines: service must be even.
  EXPECT_GT(stats.fairness, 0.99);
  EXPECT_GE(stats.p99_latency_us, stats.p50_latency_us);
  EXPECT_GE(stats.max_latency_us, stats.p99_latency_us);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerTest, StageHistogramsTileEndToEndLatencyExactly) {
  // The worker loop accounts every quantum's lifetime into exactly one of
  // queue-wait / exec / fetch-stall at any instant, so the stage sums must
  // equal the end-to-end sum to the microsecond — no tolerance.
  TouchServer server(RelaxedConfig(2));
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  ASSERT_TRUE(server.Start().ok());
  Kernel reference;
  const sim::GestureTrace trace = SlideOver(server, reference, 1.0);
  for (int i = 0; i < 3; ++i) {
    const auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(server
                    .CreateColumnObject(*session, "t", "v",
                                        RectCm{2.0, 1.0, 2.0, 10.0})
                    .ok());
    ASSERT_TRUE(server.SubmitTrace(*session, trace, {/*paced=*/false}).ok());
  }
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();
  ASSERT_GT(stats.executed, 0);
  EXPECT_EQ(stats.stages.e2e.count, stats.executed);
  EXPECT_EQ(stats.stages.queue_wait.count, stats.executed);
  EXPECT_EQ(stats.stages.exec.count, stats.executed);
  EXPECT_EQ(stats.stages.fetch_stall.count, stats.executed);
  EXPECT_EQ(stats.stages.queue_wait.sum + stats.stages.exec.sum +
                stats.stages.fetch_stall.sum,
            stats.stages.e2e.sum);
  // In-memory tables never suspend, so the stall stage is all zeros.
  EXPECT_EQ(stats.stages.fetch_stall.max, 0);
  // The legacy headline percentiles are now derived from the e2e stage.
  EXPECT_EQ(stats.p50_latency_us, stats.stages.e2e.Percentile(0.50));
  EXPECT_EQ(stats.p99_latency_us, stats.stages.e2e.Percentile(0.99));
  EXPECT_EQ(stats.max_latency_us, stats.stages.e2e.max);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerTest, TracedRunRecordsFullQuantumLifecycles) {
  TouchServerConfig config = RelaxedConfig(2);
  config.enable_tracing = true;
  TouchServer server(config);
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  ASSERT_TRUE(server.Start().ok());
  Kernel reference;
  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server
                  .CreateColumnObject(*session, "t", "v",
                                      RectCm{2.0, 1.0, 2.0, 10.0})
                  .ok());
  ASSERT_TRUE(server
                  .SubmitTrace(*session, SlideOver(server, reference, 1.0),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();
  ASSERT_NE(server.trace_recorder(), nullptr);
  const std::vector<obs::SpanEvent> events =
      server.trace_recorder()->Snapshot();
  ASSERT_FALSE(events.empty());
  // Every executed quantum logged a full submit->dispatch->execute->
  // complete lifecycle, in that order.
  std::map<std::int64_t, std::vector<obs::SpanStage>> lifecycles;
  for (const obs::SpanEvent& event : events) {
    if (event.quantum != 0) {
      lifecycles[event.quantum].push_back(event.stage);
    }
  }
  EXPECT_EQ(lifecycles.size(), static_cast<std::size_t>(stats.executed));
  std::int64_t completed = 0;
  for (const auto& [quantum, stages] : lifecycles) {
    ASSERT_GE(stages.size(), 4u);
    EXPECT_EQ(stages.front(), obs::SpanStage::kSubmitted);
    EXPECT_EQ(stages[1], obs::SpanStage::kDispatched);
    EXPECT_EQ(stages[2], obs::SpanStage::kExecuting);
    if (stages.back() == obs::SpanStage::kCompleted) {
      ++completed;
    }
  }
  EXPECT_EQ(completed, stats.executed);
  // The slowest completions were retained as exemplars, and each exemplar
  // roll-up obeys the same stage-partition identity as the histograms.
  const auto exemplars = server.trace_recorder()->Exemplars();
  ASSERT_FALSE(exemplars.empty());
  for (const auto& exemplar : exemplars) {
    EXPECT_EQ(exemplar.queue_wait_us + exemplar.exec_us +
                  exemplar.fetch_stall_us,
              exemplar.e2e_us);
  }
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerTest, ImpossibleDeadlinesAreCountedAndShed) {
  TouchServerConfig config;
  config.num_workers = 1;
  config.base_frame_budget_us = 1;  // Unmeetable on purpose.
  config.min_frame_budget_us = 1;
  config.est_row_ns = 0.0;
  config.drop_slack_us = 0;  // Late droppable quanta are shed.
  TouchServer server(config);
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  const auto object = server.CreateColumnObject(
      *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(object.ok());
  ASSERT_TRUE(
      server.SetAction(*session, *object, ActionConfig::Summary(10)).ok());

  Kernel reference;
  const sim::GestureTrace trace = SlideOver(server, reference, 2.0);
  // Submit touch-by-touch: each deadline is one microsecond after its
  // submission, so every executed touch misses and queued move quanta
  // exceed the drop slack.
  for (const sim::TouchEvent& event : trace.events) {
    ASSERT_TRUE(server.Submit(*session, event).ok());
  }
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();

  EXPECT_EQ(stats.executed + stats.dropped_quanta, stats.submitted);
  EXPECT_GT(stats.deadline_misses, 0);
  // Begin/end quanta always execute — a session can fall behind but its
  // recognizer state machine never wedges.
  EXPECT_GE(stats.executed, 2);
  const SessionStatsSnapshot& per = stats.per_session.at(*session);
  EXPECT_GT(per.deadline_misses + per.dropped_quanta, 0);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerTest, CloseSessionDropsPendingWork) {
  TouchServer server(RelaxedConfig(1));
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  const auto object = server.CreateColumnObject(
      *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(object.ok());

  Kernel reference;
  const sim::GestureTrace trace = SlideOver(server, reference, 1.0);
  // Paced far into the future: tasks sit queued, then the session closes.
  ASSERT_TRUE(server.SubmitTrace(*session, trace, {/*paced=*/true}).ok());
  ASSERT_TRUE(server.CloseSession(*session).ok());
  EXPECT_TRUE(server.CloseSession(*session).IsNotFound());
  EXPECT_TRUE(
      server.WithSession(*session, [](Kernel&) {}).IsNotFound());
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.sessions_active, 0);
  EXPECT_EQ(stats.executed + stats.dropped_quanta, stats.submitted);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerTest, LifecycleGuards) {
  TouchServer server(RelaxedConfig(1));
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  sim::TouchEvent event;
  EXPECT_TRUE(server.Submit(*session, event).IsFailedPrecondition());
  EXPECT_TRUE(server.Drain().IsFailedPrecondition());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.Start().IsFailedPrecondition());
  ASSERT_TRUE(server.Stop().ok());
  ASSERT_TRUE(server.Stop().ok());  // Idempotent.
}

TEST(TouchServerTest, RestartAfterStopServesAgain) {
  TouchServer server(RelaxedConfig(1));
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Stop().ok());
  // Second run: the scheduler's shutdown latch must clear, or workers
  // would exit immediately and the server would silently serve nothing.
  ASSERT_TRUE(server.Start().ok());
  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  const auto object = server.CreateColumnObject(
      *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(object.ok());
  Kernel reference;
  TraceBuilder builder(reference.device());
  ASSERT_TRUE(
      server
          .SubmitTrace(*session, builder.Tap("tap", PointCm{3.0, 6.0}),
                       {/*paced=*/false})
          .ok());
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();
  EXPECT_GT(stats.executed, 0);
  std::int64_t results = 0;
  ASSERT_TRUE(server
                  .WithSession(*session,
                               [&results](Kernel& kernel) {
                                 results = kernel.results().size();
                               })
                  .ok());
  EXPECT_EQ(results, 1);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(SharedStateTest, ReRegisteredTableRebuildsHierarchy) {
  core::SharedState shared;
  ASSERT_TRUE(shared.RegisterTable(SequenceTable("t", 0)).ok());
  const auto first = shared.GetOrBuildHierarchy("t", 0);
  ASSERT_TRUE(first.ok());
  const auto first_again = shared.GetOrBuildHierarchy("t", 0);
  ASSERT_TRUE(first_again.ok());
  EXPECT_EQ(first->get(), first_again->get());  // Cached.
  const auto zone_map = shared.GetOrBuildBaseZoneMap(*first);
  ASSERT_NE(zone_map, nullptr);
  EXPECT_EQ(shared.GetOrBuildBaseZoneMap(*first).get(),
            zone_map.get());  // Cached by hierarchy identity.
  // Drop and re-register the name with different data: the cache must
  // rebuild instead of serving the stale (and, without the table pin,
  // dangling) hierarchy.
  ASSERT_TRUE(shared.catalog().Drop("t").ok());
  ASSERT_TRUE(shared.RegisterTable(SequenceTable("t", 500)).ok());
  const auto rebuilt = shared.GetOrBuildHierarchy("t", 0);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(first->get(), rebuilt->get());
  // The old zone map handle stays valid (aliasing pin) and still answers
  // for the old data: rows of value < 500 existed only there.
  EXPECT_TRUE(zone_map->MayMatch(0, 0.0, 10.0));
  // An object bound to the new hierarchy prunes with a map over the new
  // data, never the old table that happens to share the name.
  const auto new_zone_map = shared.GetOrBuildBaseZoneMap(*rebuilt);
  ASSERT_NE(new_zone_map, nullptr);
  EXPECT_NE(new_zone_map.get(), zone_map.get());
  EXPECT_FALSE(new_zone_map->MayMatch(0, 0.0, 10.0));
  EXPECT_TRUE(new_zone_map->MayMatch(0, 500.0, 510.0));
}

TEST(TouchServerTest, ConcurrentSubmittersAreSafe) {
  constexpr int kSessions = 8;
  TouchServer server(RelaxedConfig(4));
  ASSERT_TRUE(server.RegisterTable(SequenceTable("t", 0)).ok());
  ASSERT_TRUE(server.Start().ok());
  Kernel reference;
  const sim::GestureTrace trace = SlideOver(server, reference, 0.5);

  std::vector<SessionId> ids(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    const auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    ids[i] = *session;
    const auto object = server.CreateColumnObject(
        *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
    ASSERT_TRUE(object.ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    submitters.emplace_back([&, i] {
      if (!server.SubmitTrace(ids[i], trace, {/*paced=*/false}).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::int64_t>(kSessions * trace.events.size()));
  EXPECT_EQ(stats.executed + stats.dropped_quanta, stats.submitted);
  ASSERT_TRUE(server.Stop().ok());
}

// ---- Kernel-level shedding semantics ---------------------------------------

TEST(ShedLevelsTest, LevelPolicyAppliesShed) {
  sampling::LevelPolicyConfig config;
  // 1M rows over 4000 positions, finger on adjacent positions: a middling
  // level with headroom above it.
  const int base = sampling::ChooseLevel(1'000'000, 4'000, 1.0, 12, config);
  ASSERT_GT(base, 0);
  ASSERT_LT(base, 9);
  config.shed_levels = 2;
  EXPECT_EQ(sampling::ChooseLevel(1'000'000, 4'000, 1.0, 12, config),
            base + 2);
  // Shedding coarsens even when positions resolve individual tuples.
  EXPECT_EQ(sampling::ChooseLevel(100, 521, 1.0, 5, config), 2);
  // And clamps at the top of the hierarchy.
  config.shed_levels = 50;
  EXPECT_EQ(sampling::ChooseLevel(1'000'000, 521, 1.0, 12, config), 11);
}

TEST(ShedLevelsTest, CoarsensSummaryLevelAndWidensBands) {
  // A very slow slide (no speed coarsening) over a large column leaves
  // headroom above the policy's normal level choice, so shedding is
  // visible in the executed touches.
  auto run = [](int shed) {
    KernelConfig config;
    Kernel kernel(config);
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("v", 1'000'000, 0, 1));
    EXPECT_TRUE(
        kernel.RegisterTable(*Table::FromColumns("t", std::move(cols)))
            .ok());
    const auto object = kernel.CreateColumnObject(
        "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
    EXPECT_TRUE(object.ok());
    EXPECT_TRUE(
        kernel.SetAction(*object, ActionConfig::Summary(10)).ok());
    kernel.set_shed_levels(shed);
    TraceBuilder builder(kernel.device());
    // 2cm in 8s: ~0.25 cm/s, under one position per registered event.
    kernel.Replay(builder.Slide("s", PointCm{3.0, 5.0}, PointCm{3.0, 7.0},
                                MotionProfile::Constant(8.0)));
    const auto stats = kernel.object_stats(*object);
    EXPECT_TRUE(stats.ok());
    const auto& back = kernel.results().back();
    return std::pair<int, std::int64_t>(
        (*stats)->last_level_used, back.band_last - back.band_first + 1);
  };
  const auto [level_normal, band_normal] = run(0);
  const auto [level_shed, band_shed] = run(1);
  EXPECT_EQ(level_shed, level_normal + 1);
  EXPECT_GT(band_shed, band_normal);
}

TEST(TouchServerTest, BufferManagerStatsSurfaceInSnapshot) {
  TouchServerConfig config = RelaxedConfig(2);
  config.session_defaults.buffer.budget_bytes = 256 << 10;
  config.session_defaults.buffer.rows_per_block = 1'024;
  TouchServer server(config);
  const auto table = SequenceTable("t", 0);
  ASSERT_TRUE(server.RegisterTable(table).ok());
  // Resident tables read in place; bind the column to a table provider so
  // its reads go through the pool.
  auto provider = std::make_shared<cache::TableBlockProvider>(table, 0,
                                                              1'024);
  ASSERT_TRUE(server.shared().SetColumnProvider("t", 0, provider).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  const auto object = server.CreateColumnObject(*session, "t", "v",
                                                RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(object.ok());

  Kernel reference{KernelConfig{}};
  ASSERT_TRUE(server
                  .SubmitTrace(*session, SlideOver(server, reference, 1.0),
                               {.paced = false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());

  // Every scan touch read its row through the shared buffer pool.
  const ServerStatsSnapshot stats = server.stats();
  EXPECT_GT(stats.buffer.lookups, 0);
  EXPECT_GT(stats.buffer.faulted_blocks, 0);
  EXPECT_EQ(stats.buffer.budget_bytes, 256 << 10);
  EXPECT_LE(stats.buffer.resident_bytes, stats.buffer.budget_bytes);
  EXPECT_LE(stats.buffer.peak_resident_bytes, stats.buffer.budget_bytes);
  EXPECT_GE(stats.buffer.hit_rate(), 0.0);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerTest, ResidentColumnsReadInPlaceAndMatchPoolBoundReads) {
  // Two sessions slide over one resident column: a scan and a base-data
  // summary. Read in place, the pool sees no lookup and holds no byte.
  // Bound to a TableBlockProvider, the same slides go through the pool.
  // The answers are bit-identical either way.
  using Answer = std::pair<storage::RowId, std::uint64_t>;
  struct Run {
    std::vector<std::vector<Answer>> answers;
    ServerStatsSnapshot stats;
  };
  const auto run = [](bool pool_bound) {
    TouchServerConfig config = RelaxedConfig(2);
    config.session_defaults.use_sampling = false;  // Bands read base data.
    config.session_defaults.buffer.rows_per_block = 1'024;
    TouchServer server(config);
    const auto table = SequenceTable("t", 0);
    EXPECT_TRUE(server.RegisterTable(table).ok());
    if (pool_bound) {
      auto provider =
          std::make_shared<cache::TableBlockProvider>(table, 0, 1'024);
      EXPECT_TRUE(server.shared().SetColumnProvider("t", 0, provider).ok());
    }
    EXPECT_TRUE(server.Start().ok());
    Kernel reference{KernelConfig{}};
    const sim::GestureTrace trace = SlideOver(server, reference, 1.0);
    std::vector<SessionId> ids;
    for (const ActionConfig& action :
         {ActionConfig::Scan(), ActionConfig::Summary(200)}) {
      const auto session = server.OpenSession();
      EXPECT_TRUE(session.ok());
      const auto object = server.CreateColumnObject(
          *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
      EXPECT_TRUE(object.ok());
      EXPECT_TRUE(server.SetAction(*session, *object, action).ok());
      ids.push_back(*session);
    }
    for (const SessionId id : ids) {
      EXPECT_TRUE(server.SubmitTrace(id, trace, {.paced = false}).ok());
    }
    EXPECT_TRUE(server.Drain().ok());
    Run out;
    for (const SessionId id : ids) {
      api::SessionSnapshotReq req;
      req.session = id;
      req.max_results = 1'000'000;
      const auto snapshot = server.Call(req);
      EXPECT_TRUE(snapshot.ok());
      std::vector<Answer>& answers = out.answers.emplace_back();
      for (const api::ResultInfo& item : snapshot->results) {
        answers.emplace_back(item.row,
                             std::bit_cast<std::uint64_t>(item.value));
      }
    }
    out.stats = server.stats();
    EXPECT_TRUE(server.Stop().ok());
    return out;
  };

  const Run in_place = run(/*pool_bound=*/false);
  const Run pooled = run(/*pool_bound=*/true);
  EXPECT_EQ(in_place.stats.buffer.lookups, 0);
  EXPECT_EQ(in_place.stats.buffer.resident_bytes, 0);
  EXPECT_GT(pooled.stats.buffer.lookups, 0);
  EXPECT_GT(pooled.stats.buffer.resident_bytes, 0);
  ASSERT_EQ(in_place.answers.size(), 2u);
  EXPECT_GT(in_place.answers[0].size(), 10u);
  EXPECT_GT(in_place.answers[1].size(), 10u);
  EXPECT_EQ(in_place.answers, pooled.answers);
}

TEST(TouchServerTest, LayoutRotationWaitsForOtherSessionsZeroCopyPins) {
  // Session A scans a resident column in place, so mid-gesture it holds
  // zero-copy pins into the table's matrix. Session B rotates the same
  // table. Moving the matrix under A's pins would dangle them: the swap
  // waits for A's finger lift and lands on B's next touch. Then both
  // sessions run concurrently; A's answers stay exact throughout.
  TouchServerConfig config = RelaxedConfig(2);
  config.allow_layout_rotation = true;
  config.session_defaults.rotation_rows_per_step = 4'000;
  TouchServer server(config);
  const auto table = SequenceTable("t", 0);
  ASSERT_TRUE(server.RegisterTable(table).ok());
  ASSERT_TRUE(server.Start().ok());
  const storage::MajorOrder initial = table->layout();
  Kernel reference{KernelConfig{}};
  TraceBuilder builder(reference.device());

  const auto a = server.OpenSession();
  ASSERT_TRUE(a.ok());
  const auto column =
      server.CreateColumnObject(*a, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(column.ok());
  ASSERT_TRUE(server.SetAction(*a, *column, ActionConfig::Scan()).ok());
  const auto b = server.OpenSession();
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(
      server.CreateTableObject(*b, "t", RectCm{6.0, 1.0, 4.0, 10.0}).ok());
  // Fingers at (7..9, 3) hit the table object in either orientation.
  const auto rotate = [&](sim::Micros start_us) {
    return builder.TwoFingerRotate("rotate", PointCm{8.0, 3.0}, 1.0, 0.0,
                                   M_PI / 2.0, 1.0, start_us);
  };
  const auto tap = [&](sim::Micros start_us) {
    return builder.Tap("tap", PointCm{8.0, 3.0}, 0.05, start_us);
  };
  const auto slide = [&](sim::Micros start_us) {
    return builder.Slide("slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                         MotionProfile::Constant(1.0), start_us);
  };

  sim::GestureTrace held = slide(0);
  ASSERT_GT(held.events.size(), 2u);
  sim::GestureTrace lift;
  lift.events.push_back(held.events.back());
  held.events.pop_back();
  ASSERT_TRUE(server.SubmitTrace(*a, held, {.paced = false}).ok());
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_TRUE(server.SubmitTrace(*b, rotate(0), {.paced = false}).ok());
  ASSERT_TRUE(server.SubmitTrace(*b, tap(2'000'000), {.paced = false}).ok());
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_EQ(table->layout(), initial);  // Converted, swap held off.
  ASSERT_TRUE(server.SubmitTrace(*a, lift, {.paced = false}).ok());
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_TRUE(server.SubmitTrace(*b, tap(4'000'000), {.paced = false}).ok());
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_NE(table->layout(), initial);  // Landed once A's pins dropped.

  for (int round = 0; round < 4; ++round) {
    const sim::Micros start_us = 10'000'000 + round * 5'000'000;
    ASSERT_TRUE(
        server.SubmitTrace(*a, slide(start_us), {.paced = false}).ok());
    ASSERT_TRUE(
        server.SubmitTrace(*b, rotate(start_us), {.paced = false}).ok());
    ASSERT_TRUE(server.SubmitTrace(*b, tap(start_us + 2'000'000),
                                   {.paced = false})
                    .ok());
  }
  ASSERT_TRUE(server.Drain().ok());

  api::SessionSnapshotReq req;
  req.session = *a;
  req.max_results = 1'000'000;
  const auto snapshot = server.Call(req);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT(snapshot->results.size(), 50u);
  for (const api::ResultInfo& item : snapshot->results) {
    EXPECT_EQ(item.value, static_cast<double>(item.row));
  }
  EXPECT_EQ(table->GetValue(7'777, 0).AsInt(), 7'777);
  ASSERT_TRUE(server.Stop().ok());
}

// ---- Async block fetch: suspend / resume / retry ----------------------------

/// Server config for cold-tier tests: small blocks so single-table data
/// spans several, fast retry backoff, relaxed deadlines.
TouchServerConfig ColdTierConfig(int workers) {
  TouchServerConfig config = RelaxedConfig(workers);
  config.session_defaults.buffer.rows_per_block = 1'024;
  config.session_defaults.buffer.fetch.retry_backoff_us = 100;
  return config;
}

TEST(TouchServerAsyncTest, SuspendOnMissWorkerServesOtherSessions) {
  // ONE worker, two sessions: if a cold fault blocked the worker, the
  // fast session could not execute until the slow fetch finished.
  TouchServer server(ColdTierConfig(1));
  auto slow_table = SequenceTable("slow", 0);
  ASSERT_TRUE(server.RegisterTable(slow_table).ok());
  ASSERT_TRUE(server.RegisterTable(SequenceTable("fast", 0)).ok());
  auto provider = std::make_shared<GatedSlowProvider>(slow_table, 0, 1'024);
  ASSERT_TRUE(server.shared().SetColumnProvider("slow", 0, provider).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto slow_session = server.OpenSession();
  const auto fast_session = server.OpenSession();
  ASSERT_TRUE(slow_session.ok());
  ASSERT_TRUE(fast_session.ok());
  ASSERT_TRUE(server
                  .CreateColumnObject(*slow_session, "slow", "v",
                                      RectCm{2.0, 1.0, 2.0, 10.0})
                  .ok());
  ASSERT_TRUE(server
                  .CreateColumnObject(*fast_session, "fast", "v",
                                      RectCm{2.0, 1.0, 2.0, 10.0})
                  .ok());

  Kernel reference;
  TraceBuilder builder(reference.device());
  const auto tap = builder.Tap("tap", PointCm{3.0, 6.0});
  // The slow session's tap suspends on the gated fetch...
  ASSERT_TRUE(
      server.SubmitTrace(*slow_session, tap, {/*paced=*/false}).ok());
  provider->AwaitFetchStarted(1);
  // ...and with the fetch still in flight, the single worker picks up and
  // fully executes the fast session's tap — no worker blocks on a fetch.
  ASSERT_TRUE(
      server.SubmitTrace(*fast_session, tap, {/*paced=*/false}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const ServerStatsSnapshot stats = server.stats();
    const SessionStatsSnapshot& fast = stats.per_session.at(*fast_session);
    if (fast.submitted > 0 && fast.executed == fast.submitted) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "fast session starved behind a slow-tier fetch";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    const ServerStatsSnapshot stats = server.stats();
    const SessionStatsSnapshot& slow = stats.per_session.at(*slow_session);
    EXPECT_LT(slow.executed, slow.submitted);  // Still parked on the gate.
    EXPECT_GE(stats.fetch.suspended_quanta, 1);
  }

  // Fetch completes: the parked quantum resumes and answers correctly.
  provider->OpenGate();
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();
  EXPECT_GE(stats.fetch.resumed_quanta, 1);
  EXPECT_GE(stats.fetch.demand_fetches, 1);
  EXPECT_EQ(stats.fetch.fetch_errors, 0);
  ASSERT_TRUE(server
                  .WithSession(*slow_session,
                               [](Kernel& kernel) {
                                 ASSERT_EQ(kernel.results().size(), 1u);
                                 const auto& item =
                                     kernel.results().items().front();
                                 // Sequence table: value == row id.
                                 EXPECT_EQ(item.value.AsInt(), item.row);
                                 EXPECT_FALSE(
                                     kernel.has_pending_gestures());
                               })
                  .ok());
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerAsyncTest, RetriesTransientRemoteFailuresThenAnswers) {
  TouchServer server(ColdTierConfig(2));
  auto table = SequenceTable("t", 0);
  ASSERT_TRUE(server.RegisterTable(table).ok());
  remote::RemoteServer remote_server(table->ColumnViewAt(0));
  auto provider = std::make_shared<cache::RemoteBlockProvider>(
      &remote_server, storage::DataType::kInt64, 1'024);
  ASSERT_TRUE(server.shared().SetColumnProvider("t", 0, provider).ok());
  // The next two reads lose their response on the wire; the fetcher must
  // classify the short read as transient and retry with backoff.
  remote_server.FailNextReads(2);
  ASSERT_TRUE(server.Start().ok());

  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server
                  .CreateColumnObject(*session, "t", "v",
                                      RectCm{2.0, 1.0, 2.0, 10.0})
                  .ok());
  Kernel reference;
  TraceBuilder builder(reference.device());
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap", PointCm{3.0, 6.0}),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());

  const ServerStatsSnapshot stats = server.stats();
  EXPECT_GE(stats.fetch.retries, 2);
  EXPECT_EQ(stats.fetch.fetch_errors, 0);
  EXPECT_EQ(stats.fetch.shed_on_fetch_error, 0);
  ASSERT_TRUE(server
                  .WithSession(*session,
                               [](Kernel& kernel) {
                                 ASSERT_EQ(kernel.results().size(), 1u);
                                 const auto& item =
                                     kernel.results().items().front();
                                 EXPECT_EQ(item.value.AsInt(), item.row);
                               })
                  .ok());
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerAsyncTest, PermanentFetchFailureShedsQuantumNotSession) {
  TouchServerConfig config = ColdTierConfig(1);
  config.session_defaults.buffer.fetch.max_retries = 1;
  TouchServer server(config);
  auto table = SequenceTable("t", 0);
  ASSERT_TRUE(server.RegisterTable(table).ok());
  remote::RemoteServer remote_server(table->ColumnViewAt(0));
  auto provider = std::make_shared<cache::RemoteBlockProvider>(
      &remote_server, storage::DataType::kInt64, 1'024);
  ASSERT_TRUE(server.shared().SetColumnProvider("t", 0, provider).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server
                  .CreateColumnObject(*session, "t", "v",
                                      RectCm{2.0, 1.0, 2.0, 10.0})
                  .ok());
  Kernel reference;
  TraceBuilder builder(reference.device());
  // Every read fails: the first tap's fetch exhausts its retries, the
  // resume sheds the parked gesture, and the session stays serviceable.
  remote_server.FailNextReads(1'000);
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap", PointCm{3.0, 6.0}),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  {
    const ServerStatsSnapshot stats = server.stats();
    EXPECT_GE(stats.fetch.fetch_errors, 1);
    EXPECT_GE(stats.fetch.shed_on_fetch_error, 1);
  }
  // The tier heals; the same session answers the next touch normally.
  remote_server.FailNextReads(0);
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap2", PointCm{3.0, 8.0}, 0.05,
                                           /*start_time_us=*/1'000'000),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_TRUE(server
                  .WithSession(*session,
                               [](Kernel& kernel) {
                                 ASSERT_EQ(kernel.results().size(), 1u);
                                 const auto& item =
                                     kernel.results().items().front();
                                 EXPECT_EQ(item.value.AsInt(), item.row);
                                 EXPECT_FALSE(
                                     kernel.has_pending_gestures());
                               })
                  .ok());
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerAsyncTest, CloseSessionCancelsQueuedFetchTickets) {
  // ONE fetcher: session A's fetch is in flight at the gate, session B's
  // is still queued behind it. Closing B must retract B's ticket — the
  // provider never reads B's block — while A's in-flight fetch settles
  // normally.
  TouchServerConfig config = ColdTierConfig(1);
  config.session_defaults.buffer.fetch.num_fetchers = 1;
  TouchServer server(config);
  auto table = SequenceTable("t", 0);
  ASSERT_TRUE(server.RegisterTable(table).ok());
  auto provider = std::make_shared<GatedSlowProvider>(table, 0, 1'024);
  ASSERT_TRUE(server.shared().SetColumnProvider("t", 0, provider).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto a = server.OpenSession();
  const auto b = server.OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());
  for (const auto& session : {a, b}) {
    ASSERT_TRUE(server
                    .CreateColumnObject(*session, "t", "v",
                                        RectCm{2.0, 1.0, 2.0, 10.0})
                    .ok());
  }
  Kernel reference;
  TraceBuilder builder(reference.device());
  // Taps at different heights -> different rows -> different blocks.
  ASSERT_TRUE(server
                  .SubmitTrace(*a, builder.Tap("a", PointCm{3.0, 2.0}),
                               {/*paced=*/false})
                  .ok());
  provider->AwaitFetchStarted(1);  // A's fetch holds the only fetcher.
  ASSERT_TRUE(server
                  .SubmitTrace(*b, builder.Tap("b", PointCm{3.0, 10.0}),
                               {/*paced=*/false})
                  .ok());
  // Wait until B's demand ticket is actually in the queue (the enqueue
  // counter, not the suspend counter — the suspend is recorded just
  // before the tickets are filed).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().fetch.demand_fetches < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "session B's fetch ticket never queued";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ASSERT_TRUE(server.CloseSession(*b).ok());
  {
    const ServerStatsSnapshot stats = server.stats();
    EXPECT_EQ(stats.fetch.cancelled_fetches, 1);
  }
  provider->OpenGate();
  ASSERT_TRUE(server.Drain().ok());

  // Only A's block was ever read from the cold tier.
  EXPECT_EQ(provider->fetches(), 1);
  ASSERT_TRUE(server
                  .WithSession(*a,
                               [](Kernel& kernel) {
                                 ASSERT_EQ(kernel.results().size(), 1u);
                                 const auto& item =
                                     kernel.results().items().front();
                                 EXPECT_EQ(item.value.AsInt(), item.row);
                               })
                  .ok());
  ASSERT_TRUE(server.Stop().ok());
}

TEST(TouchServerAsyncTest, ManySessionsColdTierStress) {
  // Many sessions sliding over a flaky cold tier with few workers: the
  // TSan job runs this to shake out races between workers, fetchers,
  // completions and stats snapshots.
  constexpr int kSessions = 6;
  TouchServerConfig config = ColdTierConfig(3);
  config.session_defaults.buffer.fetch.num_fetchers = 2;
  TouchServer server(config);
  auto table = SequenceTable("t", 0);
  ASSERT_TRUE(server.RegisterTable(table).ok());
  remote::RemoteServer remote_server(table->ColumnViewAt(0));
  auto provider = std::make_shared<cache::RemoteBlockProvider>(
      &remote_server, storage::DataType::kInt64, 1'024);
  ASSERT_TRUE(server.shared().SetColumnProvider("t", 0, provider).ok());
  remote_server.set_fail_every(7);  // Steady transient flakiness.
  ASSERT_TRUE(server.Start().ok());

  Kernel reference;
  const sim::GestureTrace trace = SlideOver(server, reference, 0.5);
  std::vector<SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    const auto session = server.OpenSession();
    ASSERT_TRUE(session.ok());
    ids.push_back(*session);
    const auto object = server.CreateColumnObject(
        *session, "t", "v", RectCm{2.0, 1.0, 2.0, 10.0});
    ASSERT_TRUE(object.ok());
  }
  std::vector<std::thread> submitters;
  submitters.reserve(kSessions);
  for (const SessionId id : ids) {
    submitters.emplace_back([&server, &trace, id] {
      EXPECT_TRUE(server.SubmitTrace(id, trace, {/*paced=*/false}).ok());
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  ASSERT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.executed + stats.dropped_quanta, stats.submitted);
  EXPECT_GE(stats.fetch.suspended_quanta, 1);
  EXPECT_EQ(stats.fetch.suspended_quanta, stats.fetch.resumed_quanta);
  // Sequence data: every answered value equals its row id, whichever
  // worker/fetcher interleaving produced it.
  for (const SessionId id : ids) {
    ASSERT_TRUE(server
                    .WithSession(id,
                                 [](Kernel& kernel) {
                                   for (const auto& item :
                                        kernel.results().items()) {
                                     EXPECT_EQ(item.value.AsInt(),
                                               item.row);
                                   }
                                   EXPECT_FALSE(
                                       kernel.has_pending_gestures());
                                 })
                    .ok());
  }
  ASSERT_TRUE(server.Stop().ok());
}

}  // namespace
}  // namespace dbtouch::server
