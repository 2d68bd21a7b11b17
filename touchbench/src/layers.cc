#include "layers.h"

#include "cache/buffer_manager.h"
#include "cache/file_block_provider.h"
#include "exec/span_kernels.h"
#include "gateway/wire.h"
#include "server/frame_scheduler.h"
#include "workloads.h"

namespace touchbench {

namespace wire = dbtouch::gateway;

namespace {

/// Spans kept per replayed call kind (the timings cover every call).
constexpr std::size_t kSpansPerKind = 256;

class Timer {
 public:
  Timer(LayerReplayResult* out, const char* name) : out_(out), name_(name) {}

  /// Times one call of `fn`; returns its duration (ns).
  template <typename Fn>
  std::int64_t Time(Fn&& fn) {
    const std::int64_t t0 = NowNs();
    fn();
    const std::int64_t t1 = NowNs();
    if (recorded_ < kSpansPerKind) {
      out_->spans.push_back(ReplaySpan{name_, t0, t1});
      ++recorded_;
    }
    total_ns_ += t1 - t0;
    ++calls_;
    return t1 - t0;
  }
  double mean_ns() const {
    return calls_ == 0 ? 0.0
                       : static_cast<double>(total_ns_) /
                             static_cast<double>(calls_);
  }
  std::int64_t total_ns() const { return total_ns_; }

 private:
  LayerReplayResult* out_;
  const char* name_;
  std::size_t recorded_ = 0;
  std::int64_t total_ns_ = 0;
  std::int64_t calls_ = 0;
};

void ReplayCodec(const LayerReplayInput& in, LayerReplayResult* out) {
  Timer submit(out, "replay.codec.submit_batch");
  Timer snapshot(out, "replay.codec.session_snapshot");
  std::int64_t frames = 0;
  bool ok = true;
  for (int pass = 0; pass < 20; ++pass) {
    std::uint32_t id = 1;
    for (const api::SubmitBatchReq& req : *in.submits) {
      submit.Time([&] {
        const std::string frame = wire::EncodeRequestFrame(
            wire::MessageType::kSubmitBatch, id++, req);
        auto header = wire::DecodeHeader(frame);
        wire::WireReader reader(
            std::string_view(frame).substr(wire::kFrameHeaderBytes));
        api::SubmitBatchReq decoded;
        ok = ok && header.ok() && wire::Decode(reader, &decoded).ok();
      });
      ++frames;
    }
    for (const std::string& payload : *in.snapshot_payloads) {
      snapshot.Time([&] {
        auto envelope = wire::DecodeResponsePayload(payload);
        api::SessionSnapshotResp snap;
        if (envelope.ok()) {
          wire::WireReader reader(envelope->body);
          ok = ok && wire::Decode(reader, &snap).ok();
        }
        const std::string frame = wire::EncodeResponseFrame(
            wire::MessageType::kSessionSnapshot, id++, snap);
        ok = ok && envelope.ok() && !frame.empty();
      });
      ++frames;
    }
  }
  if (!ok) out->error = "codec replay failed to decode a recorded frame";
  out->codec_ns_per_frame =
      frames == 0 ? 0.0
                  : static_cast<double>(submit.total_ns() +
                                        snapshot.total_ns()) /
                        static_cast<double>(frames);
}

void ReplaySubmit(const LayerReplayInput& in, LayerReplayResult* out) {
  Timer call(out, "replay.server.call_submit_batch");
  std::size_t n = 0;
  bool ok = true;
  for (api::SubmitBatchReq req : *in.submits) {
    if (n++ == 256) break;
    req.session = in.live_session;
    call.Time([&] { ok = ok && in.server->Call(req).ok(); });
  }
  if (!ok) out->error = "replayed SubmitBatch was refused";
  out->submit_us_per_batch = call.mean_ns() / 1e3;
}

void ReplayScheduler(const LayerReplayInput& in, LayerReplayResult* out) {
  dbtouch::server::FrameScheduler scheduler;
  Timer push(out, "replay.server.sched_push");
  Timer pop(out, "replay.server.sched_pop");
  std::vector<dbtouch::sim::TouchEvent> events;
  for (const api::SubmitBatchReq& req : *in.submits) {
    for (const api::WireTouchEvent& e : req.events) {
      events.push_back(api::FromWire(e));
    }
  }
  if (events.empty()) return;
  constexpr int kTasks = 4096;
  const Micros now = dbtouch::server::SteadyNowUs();
  for (int i = 0; i < kTasks; ++i) {
    dbtouch::server::TouchTask task;
    task.session_id = i % 64 + 1;
    task.event = events[static_cast<std::size_t>(i) % events.size()];
    task.release_us = now;
    task.budget_us = kFrameBudgetUs;
    task.deadline_us = now + kFrameBudgetUs + i;
    push.Time([&] { scheduler.Push(std::move(task)); });
  }
  for (int i = 0; i < kTasks; ++i) {
    pop.Time([&] {
      auto task = scheduler.PopRunnable();
      if (task) scheduler.OnTaskDone(task->session_id);
    });
  }
  scheduler.Shutdown();
  out->sched_push_ns = push.mean_ns();
  out->sched_pop_ns = pop.mean_ns();
}

void ReplayPool(const LayerReplayInput& in, LayerReplayResult* out) {
  dbtouch::cache::BufferManagerConfig config;
  config.budget_bytes = in.spec->pool_budget_bytes;
  config.gesture_aware = false;  // Keep re-pinned blocks resident.
  config.async_fetch = false;    // Cold pins fill on this thread.
  dbtouch::cache::BufferManager pool(config);
  std::shared_ptr<dbtouch::storage::PagedColumnSource> source;
  if (in.spill_path.empty()) {
    auto table = in.server->shared().catalog().Get(TableName(*in.spec));
    if (table.ok()) {
      auto s = pool.ColumnSource(*table, in.column);
      if (s.ok()) source = *s;
    }
  } else {
    auto provider = dbtouch::cache::FileBlockProvider::Open(in.spill_path);
    if (provider.ok()) {
      auto s = pool.PaxSourceFor(TableName(*in.spec), in.column, *provider);
      if (s.ok()) source = *s;
    }
  }
  if (source == nullptr) {
    out->error = "pool replay could not bind the table";
    return;
  }
  // Blocks spread over the table, few enough to stay resident together.
  const std::int64_t blocks = source->num_blocks();
  const std::int64_t columns_per_block =
      in.spill_path.empty() ? 1 : in.spec->columns;
  const std::int64_t block_bytes =
      source->rows_per_block() * 8 * columns_per_block;
  const std::int64_t keep =
      std::min<std::int64_t>(32, config.budget_bytes / block_bytes / 2);
  std::vector<std::int64_t> picked;
  for (std::int64_t i = 0; i < keep; ++i) picked.push_back(i * blocks / keep);

  Timer cold(out, "replay.cache.pin_cold");
  Timer hit(out, "replay.cache.pin_resident");
  Timer minmax(out, "replay.exec.minmax_span");
  Timer aggregate(out, "replay.exec.aggregate_span");
  bool ok = true;
  for (const std::int64_t b : picked) {
    cold.Time([&] { ok = ok && source->PinBlock(b).ok(); });
  }
  std::int64_t span_bytes = 0;
  dbtouch::exec::MinMaxState mm;
  dbtouch::exec::RunningAggregate agg(dbtouch::exec::AggKind::kAvg);
  for (int pass = 0; pass < 50; ++pass) {
    for (const std::int64_t b : picked) {
      dbtouch::Result<dbtouch::storage::BlockPin> pin =
          dbtouch::Status::Internal("unset");
      hit.Time([&] { pin = source->PinBlock(b); });
      if (!pin.ok()) {
        ok = false;
        continue;
      }
      const dbtouch::storage::ColumnView& view = pin->view();
      minmax.Time([&] { ok = ok && dbtouch::exec::MinMaxSpan(view, &mm); });
      aggregate.Time(
          [&] { ok = ok && dbtouch::exec::AggregateSpan(view, &agg); });
      span_bytes += 2 * view.row_count() * 8;
    }
  }
  if (!ok) out->error = "pool replay failed to pin or scan a block";
  out->pin_cold_us = cold.mean_ns() / 1e3;
  out->pin_hit_ns = hit.mean_ns();
  const std::int64_t span_ns = minmax.total_ns() + aggregate.total_ns();
  out->span_gb_per_s =
      span_ns == 0 ? 0.0 : static_cast<double>(span_bytes) /
                               static_cast<double>(span_ns);
}

void ReplayHierarchy(const LayerReplayInput& in, LayerReplayResult* out) {
  auto hierarchy = in.server->shared().GetOrBuildHierarchy(
      TableName(*in.spec), in.column);
  if (!hierarchy.ok()) {
    out->error = "hierarchy replay found no hierarchy";
    return;
  }
  Timer view(out, "replay.sampling.level_view");
  std::int64_t sink = 0;
  for (int pass = 0; pass < 200; ++pass) {
    for (int level = 1; level < (*hierarchy)->num_levels(); ++level) {
      view.Time([&] { sink += (*hierarchy)->LevelView(level).row_count(); });
    }
  }
  if (sink == 0) out->error = "hierarchy replay read empty levels";
  out->level_view_ns = view.mean_ns();
}

}  // namespace

LayerReplayResult RunLayerReplay(const LayerReplayInput& in) {
  LayerReplayResult out;
  ReplayCodec(in, &out);
  ReplayScheduler(in, &out);
  ReplayPool(in, &out);
  ReplayHierarchy(in, &out);
  // Last: the replayed batches add touches to the live sessions.
  ReplaySubmit(in, &out);
  return out;
}

}  // namespace touchbench
