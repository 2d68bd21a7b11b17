// Experiment: the wire-protocol gateway under interactive load.
//
// The paper's system is one user touching one screen. The gateway puts
// the server behind real sockets, so the question becomes: how many
// *concurrent paced users* can one host sustain while every touch still
// lands inside its display-frame budget — and what does the wire itself
// (framing, syscalls, roundtrips) cost on top of the in-process path
// that bench_server measures?
//
// Regimes:
//   churn  — connect / open / stats / close / disconnect cycles; the
//            session-lifecycle rate the front door sustains.
//   paced  — N sessions each replaying a seeded ICEBOAT-style gesture
//            timeline at gesture speed over its own connection
//            (src/gateway/replay.h); the headline regime, swept up
//            through 1k+ concurrent sessions.
//   flood  — the same timelines fired back-to-back with server pacing
//            off: wire throughput with admission control visible in
//            SubmitBatchResp.rejected.
//
// --smoke shrinks data and timelines so the whole report runs in
// seconds, dumps BENCH_gateway.json for the perf-trajectory gate
// (bench/baselines/BENCH_gateway.json), and exits non-zero when a
// self-check fails: paced p99 over the frame budget, wire protocol
// errors, leaked sessions or leaked connections.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "gateway/replay.h"
#include "gateway/wire.h"
#include "server/touch_server.h"
#include "sim/touch_device.h"
#include "storage/datagen.h"

namespace {

using dbtouch::Status;
using dbtouch::gateway::Client;
using dbtouch::gateway::Gateway;
using dbtouch::gateway::GatewayConfig;
using dbtouch::gateway::GatewayStatsSnapshot;
using dbtouch::gateway::ReplayConfig;
using dbtouch::gateway::ReplayHarness;
using dbtouch::gateway::ReplayResult;
using dbtouch::server::TouchServer;
using dbtouch::server::TouchServerConfig;
using dbtouch::storage::Column;
using dbtouch::storage::Table;
namespace api = dbtouch::server::api;

std::int64_t g_rows = 1'000'000;
double g_slide_min_s = 0.4;
double g_slide_max_s = 1.2;
int g_gestures = 2;
bool g_failed = false;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("SELF-CHECK FAILED: %s\n", what);
    g_failed = true;
  }
}

/// Lifts the fd ceiling: the paced regime holds >1k client sockets plus
/// the gateway's accepted side in one process.
void RaiseFdLimit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < 16384) {
    lim.rlim_cur = lim.rlim_max < 16384 ? lim.rlim_max : 16384;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
}

struct Stack {
  std::unique_ptr<TouchServer> server;
  std::unique_ptr<Gateway> gateway;

  static std::unique_ptr<Stack> Up() {
    auto stack = std::make_unique<Stack>();
    TouchServerConfig config;
    config.num_workers = 0;  // Hardware concurrency.
    stack->server = std::make_unique<TouchServer>(config);
    std::vector<Column> cols;
    cols.push_back(dbtouch::storage::GenSequenceInt64("v", g_rows, 0, 1));
    if (!stack->server->RegisterTable(*Table::FromColumns("t", std::move(cols)))
             .ok() ||
        !stack->server->Start().ok()) {
      return nullptr;
    }
    GatewayConfig gw;
    gw.num_loops = 2;
    stack->gateway = std::make_unique<Gateway>(*stack->server, gw);
    if (!stack->gateway->Start().ok()) return nullptr;
    return stack;
  }

  ~Stack() {
    if (gateway) (void)gateway->Stop();
    if (server) (void)server->Stop();
  }
};

// ---- churn -----------------------------------------------------------------

double RunChurn(const Stack& stack, int threads, int cycles_per_thread) {
  const std::uint16_t port = stack.gateway->port();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < cycles_per_thread; ++i) {
        Client client;
        if (!client.Connect("127.0.0.1", port).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto open = client.OpenSession();
        if (!open.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!client.Stats().ok() ||
            !client.CloseSession(open->session).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  Check(failures.load() == 0, "churn cycles all succeed");
  return threads * cycles_per_thread / wall_s;
}

// ---- paced / flood ---------------------------------------------------------

ReplayResult RunReplay(const Stack& stack, int sessions, bool paced_wire,
                       bool pace_sends) {
  ReplayConfig config;
  config.port = stack.gateway->port();
  config.sessions = sessions;
  config.threads = 8;
  config.gestures_per_session = g_gestures;
  config.slide_min_s = g_slide_min_s;
  config.slide_max_s = g_slide_max_s;
  config.paced = paced_wire;
  config.pace_sends = pace_sends;
  config.table = "t";
  config.column = "v";
  config.snapshot_tail = 4;
  ReplayHarness harness(config);
  auto result = harness.Run();
  if (!result.ok()) {
    std::printf("replay failed: %s\n", result.status().message().c_str());
    Check(false, "replay harness runs");
    return {};
  }
  return *result;
}

}  // namespace

// ---- Report ----------------------------------------------------------------

int main(int argc, char** argv) {
  bool smoke = false;
  int max_sessions = 1024;
  for (int i = 1; i < argc;) {
    const char* prefix = "--max-sessions=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      max_sessions = std::atoi(argv[i] + std::strlen(prefix));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // CI guard: small table, one short gesture per session — the 1k+
      // session sweep still runs (that IS the acceptance bar), it just
      // replays ~half a second of timeline.
      smoke = true;
      g_rows = 100'000;
      g_slide_min_s = 0.3;
      g_slide_max_s = 0.5;
      g_gestures = 1;
    } else {
      ++i;
      continue;
    }
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
  }
  if (max_sessions < 1) max_sessions = 1;
  RaiseFdLimit();

  dbtouch::bench::Banner(
      "gateway", "conf_cidr_IdreosL13 Sections 2.4, 4",
      "One host serves 1k+ concurrent paced touch sessions over the wire "
      "with per-touch latency inside the display-frame budget.");

  const dbtouch::sim::TouchDevice device{dbtouch::sim::TouchDeviceConfig{}};
  const std::int64_t frame_budget_us = device.event_interval_us();

  // -- churn --
  std::printf("\n-- connection churn --\n");
  double churn_conns_per_s = 0.0;
  {
    auto stack = Stack::Up();
    if (stack == nullptr) {
      std::printf("FATAL: stack failed to start\n");
      return 1;
    }
    churn_conns_per_s = RunChurn(*stack, 8, smoke ? 64 : 512);
    std::printf("churn: %.0f conns/s (8 threads)\n", churn_conns_per_s);
    // The clients have closed their sockets, but the loop thread may not
    // have handled every EOF yet: wait (at most 5 s) for it to publish
    // the closes before checking for leaks.
    const auto settle_by =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((stack->gateway->stats().connections_active != 0 ||
            stack->server->session_count() != 0) &&
           std::chrono::steady_clock::now() < settle_by) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    GatewayStatsSnapshot gw = stack->gateway->stats();
    Check(gw.protocol_errors == 0, "churn: no protocol errors");
    Check(gw.connections_active == 0, "churn: no leaked connections");
    Check(stack->server->session_count() == 0, "churn: no leaked sessions");
  }

  // -- paced sweep up through the 1k+ headline --
  std::printf("\n-- paced sessions (server pacing on, client pacing on) --\n");
  dbtouch::bench::Table table({"sessions", "touches/s", "p99_us", "ack_p99_us",
                               "send_lag_p99", "missed", "shed", "rejected"});
  double paced_touches_per_s = 0.0;
  std::int64_t paced_p99_us = 0;
  std::int64_t paced_ack_p99_us = 0;
  std::int64_t paced_send_lag_p99_us = 0;
  std::int64_t paced_sessions = 0;
  std::vector<int> sweep;
  if (smoke) {
    sweep = {128, max_sessions};
  } else {
    sweep = {64, 256, max_sessions};
  }
  for (int sessions : sweep) {
    auto stack = Stack::Up();
    if (stack == nullptr) {
      std::printf("FATAL: stack failed to start\n");
      return 1;
    }
    ReplayResult r = RunReplay(*stack, sessions, /*paced_wire=*/true,
                               /*pace_sends=*/true);
    const double touches_per_s =
        r.replay_wall_s > 0 ? r.server_stats.executed / r.replay_wall_s : 0;
    table.Row({dbtouch::bench::Fmt(static_cast<std::int64_t>(sessions)),
               dbtouch::bench::Fmt(touches_per_s, 0),
               dbtouch::bench::Fmt(r.server_stats.p99_latency_us),
               dbtouch::bench::Fmt(r.ack_rtt_us.Percentile(0.99)),
               dbtouch::bench::Fmt(r.send_lag_us.Percentile(0.99)),
               dbtouch::bench::Fmt(r.server_stats.deadline_misses),
               dbtouch::bench::Fmt(r.server_stats.dropped_quanta),
               dbtouch::bench::Fmt(r.events_rejected)});
    GatewayStatsSnapshot gw = stack->gateway->stats();
    Check(r.errors == 0, "paced: no client errors");
    Check(gw.protocol_errors == 0, "paced: no protocol errors");
    Check(stack->server->session_count() == 0, "paced: no leaked sessions");
    if (sessions == max_sessions) {
      paced_sessions = sessions;
      paced_touches_per_s = touches_per_s;
      paced_p99_us = r.server_stats.p99_latency_us;
      paced_ack_p99_us = r.ack_rtt_us.Percentile(0.99);
      paced_send_lag_p99_us = r.send_lag_us.Percentile(0.99);
      // THE acceptance bar: every touch of the headline sweep answered
      // inside the display-frame budget at the 99th percentile, and the
      // harness itself kept pace (send lag far below one frame, so the
      // p99 measured the server, not a lagging client).
      Check(paced_p99_us <= frame_budget_us,
            "paced: p99 latency within the frame budget at max sessions");
      Check(paced_send_lag_p99_us <= frame_budget_us,
            "paced: client kept its send schedule");
      Check(r.snapshot_results > 0, "paced: sessions produced results");
    }
  }
  std::printf("frame budget: %lld us\n",
              static_cast<long long>(frame_budget_us));

  // -- flood --
  std::printf("\n-- flood (no pacing anywhere) --\n");
  double flood_events_per_s = 0.0;
  std::int64_t flood_rejected = 0;
  {
    auto stack = Stack::Up();
    if (stack == nullptr) {
      std::printf("FATAL: stack failed to start\n");
      return 1;
    }
    const int sessions = smoke ? 64 : 256;
    ReplayResult r = RunReplay(*stack, sessions, /*paced_wire=*/false,
                               /*pace_sends=*/false);
    flood_events_per_s =
        r.replay_wall_s > 0 ? r.events_sent / r.replay_wall_s : 0;
    flood_rejected = r.events_rejected;
    std::printf("flood: %.0f events/s over the wire, %lld rejected "
                "(admission control)\n",
                flood_events_per_s, static_cast<long long>(flood_rejected));
    GatewayStatsSnapshot gw = stack->gateway->stats();
    Check(gw.protocol_errors == 0, "flood: no protocol errors");
    Check(stack->server->session_count() == 0, "flood: no leaked sessions");
  }

  // -- BENCH_gateway.json ----------------------------------------------------
  dbtouch::bench::BenchReport report("gateway");
  report.Metric("paced_sessions", paced_sessions);
  report.Metric("paced_touches_per_s", paced_touches_per_s);
  report.Metric("paced_p99_us", paced_p99_us);
  report.Metric("paced_ack_p99_us", paced_ack_p99_us);
  report.Metric("paced_send_lag_p99_us", paced_send_lag_p99_us);
  report.Metric("frame_budget_us", frame_budget_us);
  report.Metric("churn_conns_per_s", churn_conns_per_s);
  report.Metric("flood_events_per_s", flood_events_per_s);
  report.Metric("flood_rejected_events", flood_rejected);
  // Direction + tolerance live in the checked-in baseline; loopback wire
  // latencies on shared CI runners are noisy, hence the loose tols.
  report.Gate("paced_sessions", "higher", 0.0);
  report.Gate("paced_touches_per_s", "higher", 0.5);
  report.Gate("paced_p99_us", "lower", 1.0);
  report.Gate("paced_ack_p99_us", "lower", 2.0);
  report.Gate("churn_conns_per_s", "higher", 0.5);
  report.Gate("flood_events_per_s", "higher", 0.5);
  report.Write("BENCH_gateway.json");
  if (g_failed) {
    std::exit(1);  // The --smoke CI step must fail on gateway rot.
  }

  benchmark::Initialize(&argc, argv);
  if (!smoke) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
