// Gateway tests: the wire path end-to-end over real sockets, plus the
// protocol-robustness matrix — truncated / oversized / garbage frames,
// version rejection, mid-frame disconnects (sessions closed, in-flight
// fetches cancelled), slow-reader backpressure and admission rejection.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_provider.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "gateway/replay.h"
#include "gateway/wire.h"
#include "server/touch_server.h"
#include "storage/datagen.h"
#include "storage/table.h"

namespace dbtouch::gateway {
namespace {

using server::TouchServer;
using server::TouchServerConfig;
using storage::Column;
using storage::Table;

constexpr std::int64_t kRows = 20'000;

std::shared_ptr<Table> SequenceTable(const std::string& name) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", kRows, 0, 1));
  auto table = Table::FromColumns(name, std::move(cols));
  EXPECT_TRUE(table.ok());
  return *table;
}

TouchServerConfig RelaxedConfig(int workers = 2) {
  TouchServerConfig config;
  config.num_workers = workers;
  config.base_frame_budget_us = 10'000'000;
  config.min_frame_budget_us = 10'000'000;
  config.est_row_ns = 0.0;
  config.drop_slack_us = 3'600'000'000;
  return config;
}

/// Async cold-tier provider whose fetches block on a test-controlled
/// gate (same shape as the server_test helper): lets a test park a
/// session mid-fetch, disconnect its connection, and observe the abort.
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

struct Stack {
  std::unique_ptr<TouchServer> server;
  std::unique_ptr<Gateway> gateway;

  static std::unique_ptr<Stack> Up(
      TouchServerConfig server_config = RelaxedConfig(),
      GatewayConfig gateway_config = {},
      const std::shared_ptr<Table>& table = nullptr) {
    auto stack = std::make_unique<Stack>();
    stack->server = std::make_unique<TouchServer>(server_config);
    EXPECT_TRUE(
        stack->server->RegisterTable(table ? table : SequenceTable("t")).ok());
    EXPECT_TRUE(stack->server->Start().ok());
    stack->gateway =
        std::make_unique<Gateway>(*stack->server, std::move(gateway_config));
    EXPECT_TRUE(stack->gateway->Start().ok());
    return stack;
  }

  ~Stack() {
    if (gateway) (void)gateway->Stop();
    if (server) (void)server->Stop();
  }

  Client Connect() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", gateway->port()).ok());
    return client;
  }
};

/// Spin-waits (bounded) for a gateway/server-side condition that follows
/// a socket event asynchronously.
template <typename Fn>
bool Eventually(Fn&& condition, int timeout_ms = 5'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

api::SubmitBatchReq FloodBatch(api::SessionId session, int moves,
                               double y0 = 2.0, double y1 = 12.0) {
  api::SubmitBatchReq req;
  req.session = session;
  req.paced = false;
  api::WireTouchEvent event;
  event.finger_id = 0;
  event.phase = 0;  // kBegan
  event.x_cm = 3.0;
  event.y_cm = y0;
  req.events.push_back(event);
  for (int i = 1; i <= moves; ++i) {
    event.phase = 1;  // kMoved
    event.timestamp_us = static_cast<std::int64_t>(i) * 1'000;
    event.y_cm = y0 + (y1 - y0) * i / moves;
    req.events.push_back(event);
  }
  event.phase = 2;  // kEnded
  event.timestamp_us = static_cast<std::int64_t>(moves + 1) * 1'000;
  req.events.push_back(event);
  return req;
}

// ---- Happy path ------------------------------------------------------------

TEST(GatewayTest, EndToEndSessionOverTheWire) {
  auto stack = Stack::Up();
  Client client = stack->Connect();

  auto open = client.OpenSession();
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(stack->server->session_count(), 1u);

  api::CreateObjectReq create;
  create.session = open->session;
  create.kind = 0;
  create.table = "t";
  create.column = "v";
  create.frame = api::WireRect{2.0, 1.0, 2.0, 10.0};
  auto object = client.CreateObject(create);
  ASSERT_TRUE(object.ok());

  api::SetActionReq set;
  set.session = open->session;
  set.object = object->object;
  set.action.kind = 0;  // Scan.
  ASSERT_TRUE(client.SetAction(set).ok());

  auto submitted = client.SubmitBatch(FloodBatch(open->session, 30));
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(submitted->accepted, 32);
  EXPECT_EQ(submitted->rejected, 0);
  ASSERT_TRUE(client.WaitIdle().ok());

  api::SessionSnapshotReq snap;
  snap.session = open->session;
  snap.max_results = 100;
  auto snapshot = client.SessionSnapshot(snap);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT(snapshot->result_count, 0);
  EXPECT_FALSE(snapshot->results.empty());
  ASSERT_EQ(snapshot->objects.size(), 1u);
  EXPECT_EQ(snapshot->objects[0].table, "t");
  EXPECT_EQ(snapshot->objects[0].tuple_count, kRows);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sessions_active, 1);
  EXPECT_GE(stats->executed, 32);

  ASSERT_TRUE(client.CloseSession(open->session).ok());
  EXPECT_EQ(stack->server->session_count(), 0u);

  GatewayStatsSnapshot gw = stack->gateway->stats();
  EXPECT_EQ(gw.protocol_errors, 0);
  EXPECT_GT(gw.frames_received, 0);
}

TEST(GatewayTest, ManyConnectionsAcrossLoops) {
  GatewayConfig gateway_config;
  gateway_config.num_loops = 3;
  auto stack = Stack::Up(RelaxedConfig(), gateway_config);
  constexpr int kClients = 24;
  std::vector<Client> clients(kClients);
  std::vector<api::SessionId> sessions;
  for (int i = 0; i < kClients; ++i) {
    clients[i] = stack->Connect();
    auto open = clients[i].OpenSession();
    ASSERT_TRUE(open.ok());
    sessions.push_back(open->session);
  }
  EXPECT_EQ(stack->server->session_count(), kClients);
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i].CloseSession(sessions[i]).ok());
  }
  EXPECT_EQ(stack->server->session_count(), 0u);
}

// ---- Robustness: malformed input -------------------------------------------

TEST(GatewayTest, GarbageBytesRejectedAndClosed) {
  auto stack = Stack::Up();
  Client client = stack->Connect();
  ASSERT_TRUE(client.SendRaw("this is definitely not a dbtouch frame").ok());

  FrameHeader header;
  auto payload = client.TryReadFrame(&header);
  ASSERT_TRUE(payload.ok());
  auto envelope = DecodeResponsePayload(*payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->code, api::WireCode::kMalformedFrame);
  // And then the server hangs up.
  EXPECT_EQ(client.TryReadFrame(nullptr).status().code(),
            StatusCode::kAborted);
  EXPECT_TRUE(Eventually(
      [&] { return stack->gateway->stats().connections_active == 0; }));
  EXPECT_EQ(stack->gateway->stats().protocol_errors, 1);
}

TEST(GatewayTest, OversizedFrameRejected) {
  auto stack = Stack::Up();
  Client client = stack->Connect();
  // Valid magic/version, payload_len over the cap: must be refused
  // before the gateway tries to buffer 100 MB.
  WireWriter w;
  w.U32(kMagic);
  w.U16(kWireVersion);
  w.U16(static_cast<std::uint16_t>(MessageType::kSubmitBatch));
  w.U32(1);              // request id
  w.U32(100'000'000u);   // payload_len: hostile
  ASSERT_TRUE(client.SendRaw(w.buffer()).ok());

  FrameHeader header;
  auto payload = client.TryReadFrame(&header);
  ASSERT_TRUE(payload.ok());
  auto envelope = DecodeResponsePayload(*payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->code, api::WireCode::kMalformedFrame);
  EXPECT_EQ(client.TryReadFrame(nullptr).status().code(),
            StatusCode::kAborted);
}

TEST(GatewayTest, TruncatedPayloadRejected) {
  auto stack = Stack::Up();
  Client client = stack->Connect();
  // Header promises a CreateObject payload of 4 bytes — far too short
  // for the struct. Framing is intact; the typed decode must fail.
  WireWriter w;
  w.U32(kMagic);
  w.U16(kWireVersion);
  w.U16(static_cast<std::uint16_t>(MessageType::kCreateObject));
  w.U32(9);
  w.U32(4);
  w.U32(0xdeadbeef);
  ASSERT_TRUE(client.SendRaw(w.buffer()).ok());

  FrameHeader header;
  auto payload = client.TryReadFrame(&header);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(header.request_id, 9u);
  EXPECT_EQ(header.message_type(), MessageType::kCreateObject);
  auto envelope = DecodeResponsePayload(*payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->code, api::WireCode::kMalformedFrame);
  EXPECT_EQ(client.TryReadFrame(nullptr).status().code(),
            StatusCode::kAborted);
}

TEST(GatewayTest, UnknownTypeRejected) {
  auto stack = Stack::Up();
  Client client = stack->Connect();
  WireWriter w;
  w.U32(kMagic);
  w.U16(kWireVersion);
  w.U16(500);  // No such MessageType.
  w.U32(3);
  w.U32(0);
  ASSERT_TRUE(client.SendRaw(w.buffer()).ok());

  FrameHeader header;
  auto payload = client.TryReadFrame(&header);
  ASSERT_TRUE(payload.ok());
  auto envelope = DecodeResponsePayload(*payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->code, api::WireCode::kMalformedFrame);
  EXPECT_EQ(client.TryReadFrame(nullptr).status().code(),
            StatusCode::kAborted);
}

TEST(GatewayTest, UnsupportedVersionRejected) {
  auto stack = Stack::Up();
  Client client = stack->Connect();
  // A well-formed OpenSession frame from a hypothetical v99 client.
  WireWriter w;
  w.U32(kMagic);
  w.U16(99);
  w.U16(static_cast<std::uint16_t>(MessageType::kOpenSession));
  w.U32(7);
  w.U32(0);
  ASSERT_TRUE(client.SendRaw(w.buffer()).ok());

  FrameHeader header;
  auto payload = client.TryReadFrame(&header);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(header.request_id, 7u);  // Rejection echoes the request id.
  auto envelope = DecodeResponsePayload(*payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->code, api::WireCode::kUnsupportedVersion);
  // Version rejection closes the connection: no session leaked, v99
  // frames after the first are never interpreted.
  EXPECT_EQ(client.TryReadFrame(nullptr).status().code(),
            StatusCode::kAborted);
  EXPECT_EQ(stack->server->session_count(), 0u);
  EXPECT_EQ(stack->gateway->stats().version_rejections, 1);
}

// ---- Robustness: disconnects -----------------------------------------------

TEST(GatewayTest, MidFrameDisconnectClosesSessions) {
  auto stack = Stack::Up();
  Client client = stack->Connect();
  auto open = client.OpenSession();
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(stack->server->session_count(), 1u);

  // Send half a frame — header promising 64 payload bytes, then only a
  // few — and vanish.
  WireWriter w;
  w.U32(kMagic);
  w.U16(kWireVersion);
  w.U16(static_cast<std::uint16_t>(MessageType::kSubmitBatch));
  w.U32(2);
  w.U32(64);
  w.U64(0x1234);
  ASSERT_TRUE(client.SendRaw(w.buffer()).ok());
  client.Close();

  // The gateway must notice and close the connection-owned session.
  EXPECT_TRUE(
      Eventually([&] { return stack->server->session_count() == 0; }));
  EXPECT_TRUE(Eventually([&] {
    return stack->gateway->stats().sessions_closed_on_disconnect == 1;
  }));
}

TEST(GatewayTest, DisconnectCancelsInFlightFetches) {
  // Cold-tier variant of the mid-frame disconnect: one fetcher, two
  // sessions on one connection. Session A's touch holds the fetcher at
  // the provider gate; session B's touch files a demand-fetch ticket
  // behind it. Dropping the connection closes both sessions, which must
  // cancel B's queued fetch through the server's abort path — after the
  // gate opens, the cold tier has served exactly A's block, nothing for B.
  TouchServerConfig config = RelaxedConfig(1);
  config.session_defaults.buffer.rows_per_block = 1'024;
  config.session_defaults.buffer.fetch.retry_backoff_us = 100;
  config.session_defaults.buffer.fetch.num_fetchers = 1;
  auto table = SequenceTable("t");
  auto provider = std::make_shared<GatedSlowProvider>(table, 0, 1'024);
  auto stack = Stack::Up(config, {}, table);
  ASSERT_TRUE(stack->server->shared().SetColumnProvider("t", 0, provider).ok());

  Client client = stack->Connect();
  auto a = client.OpenSession();
  auto b = client.OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());
  for (const auto& open : {a, b}) {
    api::CreateObjectReq create;
    create.session = open->session;
    create.kind = 0;
    create.table = "t";
    create.column = "v";
    create.frame = api::WireRect{2.0, 1.0, 2.0, 10.0};
    ASSERT_TRUE(client.CreateObject(create).ok());
  }
  // Taps at different heights -> different rows -> different blocks.
  ASSERT_TRUE(client.SubmitBatch(FloodBatch(a->session, 1, 2.0, 2.1)).ok());
  provider->AwaitFetchStarted(1);  // A's fetch holds the only fetcher.
  ASSERT_TRUE(client.SubmitBatch(FloodBatch(b->session, 1, 10.0, 10.1)).ok());
  ASSERT_TRUE(Eventually(
      [&] { return stack->server->stats().fetch.demand_fetches >= 2; }))
      << "session B's fetch ticket never queued";

  client.Close();  // Mid-fetch disconnect takes both sessions down.
  EXPECT_TRUE(
      Eventually([&] { return stack->server->session_count() == 0; }));
  EXPECT_TRUE(Eventually([&] {
    return stack->server->stats().fetch.cancelled_fetches >= 1;
  }));
  provider->OpenGate();
  ASSERT_TRUE(stack->server->Drain().ok());
  EXPECT_EQ(stack->gateway->stats().sessions_closed_on_disconnect, 2);
}

// ---- Backpressure ----------------------------------------------------------

TEST(GatewayTest, SlowReaderIsDisconnected) {
  GatewayConfig gateway_config;
  gateway_config.write_queue_limit_bytes = 64 * 1024;
  auto stack = Stack::Up(RelaxedConfig(), gateway_config);
  Client client = stack->Connect();
  auto open = client.OpenSession();
  ASSERT_TRUE(open.ok());
  api::CreateObjectReq create;
  create.session = open->session;
  create.kind = 0;
  create.table = "t";
  create.column = "v";
  create.frame = api::WireRect{2.0, 1.0, 2.0, 10.0};
  auto object = client.CreateObject(create);
  ASSERT_TRUE(object.ok());
  // 3k scan touches -> 3k results -> ~80 KB per full snapshot response.
  auto submitted = client.SubmitBatch(FloodBatch(open->session, 3'000));
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->rejected, 0);
  ASSERT_TRUE(client.WaitIdle().ok());

  // Request full snapshots over and over WITHOUT reading any response:
  // kernel socket buffers fill first, then the gateway's per-connection
  // write queue crosses its bound and the slow reader is evicted.
  api::SessionSnapshotReq snap;
  snap.session = open->session;
  snap.max_results = 1'000'000;
  const std::string frame =
      EncodeRequestFrame(MessageType::kSessionSnapshot, 99, snap);
  for (int i = 0; i < 400; ++i) {
    if (!client.SendRaw(frame).ok()) break;  // Server already hung up.
    if (stack->gateway->stats().slow_reader_closes > 0) break;
  }
  EXPECT_TRUE(Eventually(
      [&] { return stack->gateway->stats().slow_reader_closes == 1; }))
      << "slow reader was never evicted";
  // Eviction closes the connection-owned session too.
  EXPECT_TRUE(
      Eventually([&] { return stack->server->session_count() == 0; }));
}

TEST(GatewayTest, AdmissionRejectionsSurfaceInBatchResponse) {
  // Park the session on a gated cold fetch, then flood it: admission
  // control (max_session_queue) must reject the overflow and the counts
  // must come back over the wire in SubmitBatchResp.
  TouchServerConfig config = RelaxedConfig(1);
  config.session_defaults.buffer.rows_per_block = 1'024;
  config.session_defaults.buffer.fetch.retry_backoff_us = 100;
  config.max_session_queue = 8;
  auto table = SequenceTable("t");
  auto provider = std::make_shared<GatedSlowProvider>(table, 0, 1'024);
  auto stack = Stack::Up(config, {}, table);
  ASSERT_TRUE(stack->server->shared().SetColumnProvider("t", 0, provider).ok());

  Client client = stack->Connect();
  auto open = client.OpenSession();
  ASSERT_TRUE(open.ok());
  api::CreateObjectReq create;
  create.session = open->session;
  create.kind = 0;
  create.table = "t";
  create.column = "v";
  create.frame = api::WireRect{2.0, 1.0, 2.0, 10.0};
  ASSERT_TRUE(client.CreateObject(create).ok());

  ASSERT_TRUE(client.SubmitBatch(FloodBatch(open->session, 1, 2.0, 2.1)).ok());
  provider->AwaitFetchStarted(1);  // Session parked; queue can only grow.

  auto flood = client.SubmitBatch(FloodBatch(open->session, 100));
  ASSERT_TRUE(flood.ok());
  EXPECT_GT(flood->rejected, 0);
  EXPECT_GT(flood->accepted, 0);  // Begin/end always admitted.
  EXPECT_EQ(flood->accepted + flood->rejected, 102);

  provider->OpenGate();
  ASSERT_TRUE(client.WaitIdle().ok());
  ASSERT_TRUE(client.CloseSession(open->session).ok());
}

TEST(GatewayTest, ConnectionLimitAnsweredWithBackpressure) {
  GatewayConfig gateway_config;
  gateway_config.max_connections = 2;
  auto stack = Stack::Up(RelaxedConfig(), gateway_config);
  Client first = stack->Connect();
  Client second = stack->Connect();
  // Roundtrips prove both connections are fully adopted.
  ASSERT_TRUE(first.Stats().ok());
  ASSERT_TRUE(second.Stats().ok());

  Client third;
  ASSERT_TRUE(third.Connect("127.0.0.1", stack->gateway->port()).ok());
  FrameHeader header;
  auto payload = third.TryReadFrame(&header);
  ASSERT_TRUE(payload.ok());
  auto envelope = DecodeResponsePayload(*payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->code, api::WireCode::kBackpressure);
  EXPECT_EQ(third.TryReadFrame(nullptr).status().code(),
            StatusCode::kAborted);
  EXPECT_EQ(stack->gateway->stats().connections_rejected, 1);
}

// ---- Replay harness --------------------------------------------------------

TEST(GatewayTest, ReplayHarnessPacedRun) {
  auto stack = Stack::Up();
  ReplayConfig config;
  config.port = stack->gateway->port();
  config.sessions = 8;
  config.threads = 4;
  config.gestures_per_session = 1;
  config.slide_min_s = 0.1;
  config.slide_max_s = 0.2;
  config.table = "t";
  config.column = "v";
  config.snapshot_tail = 4;
  ReplayHarness harness(config);
  auto result = harness.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->errors, 0);
  EXPECT_GT(result->batches_sent, 0);
  EXPECT_GT(result->events_sent, 0);
  EXPECT_EQ(result->events_accepted, result->events_sent);
  EXPECT_EQ(result->events_rejected, 0);
  EXPECT_GT(result->snapshot_results, 0);
  EXPECT_GE(result->server_stats.executed, result->events_sent);
  EXPECT_TRUE(result->server_stats.idle());
  EXPECT_EQ(stack->server->session_count(), 0u);
  EXPECT_EQ(stack->gateway->stats().protocol_errors, 0);
}

// ---- Lifecycle -------------------------------------------------------------

TEST(GatewayTest, StopClosesLiveConnectionsAndSessions) {
  auto stack = Stack::Up();
  Client client = stack->Connect();
  auto open = client.OpenSession();
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(stack->server->session_count(), 1u);

  ASSERT_TRUE(stack->gateway->Stop().ok());
  EXPECT_EQ(stack->server->session_count(), 0u);
  // The client observes the close.
  EXPECT_FALSE(client.Stats().ok());
  // Stop is idempotent.
  ASSERT_TRUE(stack->gateway->Stop().ok());
}

}  // namespace
}  // namespace dbtouch::gateway
