#include "workloads.h"

#include <cmath>
#include <numbers>
#include <thread>

#include "common/rng.h"
#include "core/action.h"
#include "gateway/replay.h"
#include "sim/motion_profile.h"
#include "sim/touch_device.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

namespace touchbench {

using dbtouch::Rng;
using dbtouch::storage::Column;
using dbtouch::storage::Table;

namespace {

// Why these three: paced_resident keeps per-touch kernel work at µs so the
// wire path (codec, epoll loop, admission, EDF, polling) decides latency;
// paced_spilled serves a table 4x the pool so latency is decided by cache
// faults, evictions, scan bypass and PAX reads; flood_summary drives the
// server to capacity with summary, aggregate and group-by gestures from a
// few clients that each wait for their answers — the capacity point a
// paced host cannot reach without the generator measuring itself.
std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    s.name = "paced_resident";
    s.open_loop = true;
    s.sessions = 64;
    s.rows = 1'000'000;
    s.columns = 1;
    s.pool_budget_bytes = 64ll << 20;
    s.server_workers = 2;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "paced_spilled";
    s.open_loop = true;
    s.sessions = 16;
    s.rows = 4'000'000;
    s.columns = 4;
    s.pool_budget_bytes = 32ll << 20;
    s.spilled = true;
    s.server_workers = 1;
    s.fetcher_threads = 1;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "flood_summary";
    s.open_loop = false;
    s.sessions = 4;
    s.rows = 1'000'000;
    s.columns = 4;
    s.pool_budget_bytes = 64ll << 20;
    s.server_workers = 2;
    s.poll_interval_us = 250;
    specs.push_back(s);
  }
  return specs;
}

Column SeededInt64(std::string name, std::int64_t n, std::int64_t lo,
                   std::int64_t hi, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.NextInt64(lo, hi);
  return Column::FromInt64(std::move(name), v);
}

constexpr api::WireRect kColumnFrame{1.0, 1.0, 6.0, 12.0};
constexpr api::WireRect kTableFrame{1.0, 1.0, 10.0, 12.0};

api::WireAction Action(
    dbtouch::core::ActionKind kind,
    dbtouch::exec::AggKind agg = dbtouch::exec::AggKind::kAvg,
    std::int64_t summary_k = 10) {
  api::WireAction a;
  a.kind = static_cast<std::uint8_t>(kind);
  a.agg = static_cast<std::uint8_t>(agg);
  a.summary_k = summary_k;
  return a;
}

// Gesture timing. No interaction log ships with the repository, so the
// durations are the ReplayHarness defaults (gateway::ReplayConfig: slides
// of 0.4-1.2 s, think times of 0.05-0.3 s), the repository's existing
// synthetic exploration log; pinches take a slide's duration and taps the
// TraceBuilder's 50 ms. The mix of slides, taps and zooms per workload
// below is synthetic and unverified against real users.
const dbtouch::gateway::ReplayConfig kTimings{};

double GestureSeconds(Rng& rng) {
  return rng.NextDouble(kTimings.slide_min_s, kTimings.slide_max_s);
}

double ThinkSeconds(Rng& rng) {
  return rng.NextDouble(kTimings.think_min_s, kTimings.think_max_s);
}

/// Appends gestures to a session's timeline.
class TimelineWriter {
 public:
  TimelineWriter(const dbtouch::sim::TouchDevice& device, Micros t,
                 std::vector<api::WireTouchEvent>* out)
      : builder_(device), t_(t), out_(out) {}

  Micros now() const { return t_; }

  void Slide(double x, double y0, double y1, double seconds) {
    Add(builder_.Slide("slide", {x, y0}, {x, y1},
                       dbtouch::sim::MotionProfile::Constant(seconds), t_));
  }
  void Tap(double x, double y) { Add(builder_.Tap("tap", {x, y}, 0.05, t_)); }
  void Pinch(double cx, double cy, double from_cm, double to_cm,
             double seconds) {
    Add(builder_.Pinch("pinch", {cx, cy}, std::numbers::pi / 2, from_cm,
                       to_cm, seconds, t_));
  }
  void Think(double seconds) {
    t_ += static_cast<Micros>(seconds * 1e6);
  }

 private:
  void Add(const dbtouch::sim::GestureTrace& trace) {
    for (const auto& e : trace.events) out_->push_back(api::ToWire(e));
    t_ = trace.duration_us();
  }

  dbtouch::sim::TraceBuilder builder_;
  Micros t_;
  std::vector<api::WireTouchEvent>* out_;
};

/// paced_resident: scan slides, taps and zoom pairs over one column.
void ResidentSession(TimelineWriter& w, Rng& rng, std::size_t step) {
  const api::WireRect& f = kColumnFrame;
  const double x = f.x + rng.NextDouble(0.2, 0.8) * f.width;
  switch (step % 8) {
    case 1:
    case 5:
      w.Tap(x, f.y + rng.NextDouble(0.05, 0.95) * f.height);
      break;
    case 3:
      w.Pinch(f.x + f.width / 2, f.y + f.height / 2, 3.0, 4.0,
              GestureSeconds(rng));
      break;
    case 7:
      w.Pinch(f.x + f.width / 2, f.y + f.height / 2, 4.0, 3.0,
              GestureSeconds(rng));
      break;
    default: {
      double y0 = f.y + rng.NextDouble(0.02, 0.3) * f.height;
      double y1 = f.y + rng.NextDouble(0.7, 0.98) * f.height;
      if (step % 4 == 2) std::swap(y0, y1);
      w.Slide(x, y0, y1, GestureSeconds(rng));
    }
  }
  w.Think(ThinkSeconds(rng));
}

/// paced_spilled, even sessions: full-height sweeps (scan bypass, faults).
void SweepSession(TimelineWriter& w, Rng& rng, std::size_t step) {
  const api::WireRect& f = kColumnFrame;
  const double x = f.x + rng.NextDouble(0.2, 0.8) * f.width;
  double y0 = f.y + 0.01 * f.height;
  double y1 = f.y + 0.99 * f.height;
  if (step % 2 == 1) std::swap(y0, y1);
  w.Slide(x, y0, y1, GestureSeconds(rng));
  w.Think(ThinkSeconds(rng));
}

/// paced_spilled, odd sessions: taps and zooms re-studying one region.
void RestudySession(TimelineWriter& w, Rng& rng, std::size_t step,
                    double region_y) {
  const api::WireRect& f = kTableFrame;
  const double cx = f.x + f.width / 2;
  switch (step % 8) {
    case 3:
      w.Pinch(cx, region_y, 3.0, 4.0, GestureSeconds(rng));
      break;
    case 7:
      w.Pinch(cx, region_y, 4.0, 3.0, GestureSeconds(rng));
      break;
    default:
      w.Tap(f.x + rng.NextDouble(0.1, 0.9) * f.width,
            region_y + rng.NextDouble(-0.3, 0.3));
  }
  w.Think(ThinkSeconds(rng));
}

/// flood_summary: slides with the session's action, alternating direction.
/// Odd steps are short slow slides: the finger lands on adjacent positions,
/// so summaries read base-level bands (span kernels); even steps sweep the
/// object fast, so the level policy picks coarse sample levels.
void FloodSession(TimelineWriter& w, Rng& rng, std::size_t step,
                  const api::WireRect& f) {
  const double x = f.x + rng.NextDouble(0.2, 0.8) * f.width;
  if (step % 2 == 1) {
    const double y0 = f.y + rng.NextDouble(0.1, 0.8) * f.height;
    w.Slide(x, y0, y0 + 0.5, GestureSeconds(rng));
  } else {
    double y0 = f.y + rng.NextDouble(0.02, 0.2) * f.height;
    double y1 = f.y + rng.NextDouble(0.8, 0.98) * f.height;
    if (step % 4 == 2) std::swap(y0, y1);
    w.Slide(x, y0, y1, GestureSeconds(rng));
  }
  w.Think(ThinkSeconds(rng));
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : AllWorkloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const char* TableName(const WorkloadSpec& spec) {
  return spec.columns == 1 ? "col" : "fat";
}

std::shared_ptr<Table> MakeTable(const WorkloadSpec& spec,
                                 std::uint64_t seed) {
  std::vector<Column> cols;
  const std::int64_t n = spec.rows;
  if (spec.columns == 1) {
    cols.push_back(SeededInt64("v", n, 0, 1'000'000'000, seed));
  } else {
    cols.push_back(SeededInt64("key", n, 0, 63, seed + 1));
    cols.push_back(dbtouch::storage::GenGaussianDouble("g", n, 100.0, 15.0,
                                                       seed + 2));
    cols.push_back(SeededInt64("u", n, 0, 1'000'000, seed + 3));
    cols.push_back(dbtouch::storage::GenSinusoidDouble("s", n, 5.0, 4096.0,
                                                       0.5, seed + 4));
  }
  return *Table::FromColumns(TableName(spec), std::move(cols));
}

dbtouch::server::TouchServerConfig ServerConfig(const WorkloadSpec& spec) {
  dbtouch::server::TouchServerConfig config;
  config.num_workers = spec.server_workers;
  config.session_defaults.buffer.budget_bytes = spec.pool_budget_bytes;
  if (spec.fetcher_threads > 0) {
    config.session_defaults.buffer.fetch.num_fetchers = spec.fetcher_threads;
  }
  config.async_fetch = true;
  config.partial_answers = false;
  return config;
}

GestureSource::GestureSource(const WorkloadSpec& spec, std::uint64_t seed,
                             int session)
    : spec_(&spec),
      session_(session),
      rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(session) +
           1) {
  // Two re-study regions shared by the odd paced_spilled sessions: their
  // working set fits the pool while the sweeps stream past it.
  Rng root(seed);
  const double lo = root.NextDouble(0.15, 0.4);
  const double hi = root.NextDouble(0.6, 0.85);
  region_y_ = kTableFrame.y +
              ((session / 2) % 2 == 0 ? lo : hi) * kTableFrame.height;
}

std::size_t GestureSource::Next(std::vector<api::WireTouchEvent>* out) {
  const std::size_t before = out->size();
  const dbtouch::sim::TouchDevice device;
  TimelineWriter w(device, t_, out);
  const std::size_t step = step_++;
  if (spec_->name == "paced_resident") {
    ResidentSession(w, rng_, step);
  } else if (spec_->name == "paced_spilled") {
    if (session_ % 2 == 0) {
      SweepSession(w, rng_, step);
    } else {
      RestudySession(w, rng_, step, region_y_);
    }
  } else {
    FloodSession(w, rng_, step,
                 session_ % 4 == 2 ? kTableFrame : kColumnFrame);
  }
  t_ = w.now();
  return out->size() - before;
}

/// What session `s` explores: the column of its column object (null for
/// a table object) and the action its gestures compute.
struct SessionObject {
  const char* column;
  api::WireAction action;
};

SessionObject ObjectFor(const WorkloadSpec& spec, int s) {
  using dbtouch::core::ActionKind;
  using dbtouch::exec::AggKind;
  if (spec.name == "paced_resident") return {"v", Action(ActionKind::kScan)};
  if (spec.name == "paced_spilled") {
    return {s % 2 == 0 ? "g" : nullptr, Action(ActionKind::kScan)};
  }
  switch (s % 4) {  // flood_summary
    case 0:
      return {"g", Action(ActionKind::kSummary, AggKind::kAvg, 16384)};
    case 1:
      return {"s", Action(ActionKind::kAggregate, AggKind::kAvg)};
    case 2: {
      api::WireAction group = Action(ActionKind::kGroupBy, AggKind::kAvg);
      group.group_key_attribute = 0;
      group.group_value_attribute = 1;
      return {nullptr, group};
    }
    default:
      return {"u", Action(ActionKind::kSummary, AggKind::kMax, 16384)};
  }
}

std::vector<SessionPlan> BuildPlans(const WorkloadSpec& spec,
                                    std::uint64_t seed, double paced_seconds) {
  std::vector<SessionPlan> plans;
  plans.reserve(static_cast<std::size_t>(spec.sessions));
  for (int s = 0; s < spec.sessions; ++s) {
    plans.emplace_back(GestureSource(spec, seed, s));
    SessionPlan& plan = plans.back();
    const SessionObject object = ObjectFor(spec, s);
    plan.create.table = std::string(TableName(spec));
    plan.create.kind = object.column == nullptr ? 1 : 0;
    plan.create.column =
        object.column == nullptr ? std::string() : std::string(object.column);
    plan.create.frame = object.column == nullptr ? kTableFrame : kColumnFrame;
    plan.action = object.action;
    if (!spec.open_loop) continue;  // Closed loop: gestures made on demand.

    // Open loop: the whole paced timeline, warm-up gesture first.
    GestureSource source = plan.source;
    plan.gestures.emplace_back(0, source.Next(&plan.events));
    const Micros paced_start = source.now();
    Rng phase_rng(seed ^
                  (0x51ed270b27a6f1ull * static_cast<std::uint64_t>(s + 1)));
    const auto phase =
        static_cast<Micros>(phase_rng.NextDouble(0.0, 0.5) * 1e6);
    const auto horizon =
        static_cast<Micros>(paced_seconds * 1e6) + 2'000'000;
    while (source.now() - paced_start < horizon) {
      const std::size_t first = plan.events.size();
      plan.gestures.emplace_back(first, first + source.Next(&plan.events));
    }
    plan.due_offset_us.assign(plan.events.size(), 0);
    for (std::size_t i = plan.gestures[0].second; i < plan.events.size(); ++i) {
      plan.due_offset_us[i] = phase + plan.events[i].timestamp_us - paced_start;
    }
  }
  return plans;
}

ReferenceTiming RunReference(const WorkloadSpec& spec,
                             const std::shared_ptr<Table>& table,
                             std::vector<SessionPlan>* plans, int threads,
                             const std::vector<std::size_t>& touches) {
  // Configured as TouchServer::Call(OpenSessionReq) configures session
  // kernels: server defaults, rotation unreachable, shared eager state.
  const dbtouch::server::TouchServerConfig server = ServerConfig(spec);
  dbtouch::core::KernelConfig config = server.session_defaults;
  config.rotation_trigger_rad = 1e9;
  config.non_blocking_faults = false;
  auto shared = std::make_shared<dbtouch::core::SharedState>(
      config.sampling, /*force_eager=*/true, config.buffer);
  (void)shared->RegisterTable(table);

  std::vector<ReferenceTiming> per_thread(static_cast<std::size_t>(threads));
  const auto replay = [&](int t) {
    for (std::size_t s = static_cast<std::size_t>(t); s < plans->size();
         s += static_cast<std::size_t>(threads)) {
      SessionPlan& plan = (*plans)[s];
      dbtouch::core::Kernel kernel(config, shared);
      const dbtouch::touch::RectCm frame{plan.create.frame.x,
                                         plan.create.frame.y,
                                         plan.create.frame.width,
                                         plan.create.frame.height};
      auto object =
          plan.create.kind == 0
              ? kernel.CreateColumnObject(plan.create.table,
                                          plan.create.column, frame)
              : kernel.CreateTableObject(plan.create.table, frame);
      if (!object.ok()) continue;  // Surfaces as a failed check later.
      dbtouch::core::ActionConfig action;
      action.kind = static_cast<dbtouch::core::ActionKind>(plan.action.kind);
      action.agg = static_cast<dbtouch::exec::AggKind>(plan.action.agg);
      action.summary_k = plan.action.summary_k;
      action.group_key_attribute = plan.action.group_key_attribute;
      action.group_value_attribute = plan.action.group_value_attribute;
      (void)kernel.SetAction(*object, action);

      const std::size_t n = touches[s];
      plan.ref_count.assign(n, 0);
      plan.ref_results.clear();
      GestureSource source = plan.source;
      std::vector<api::WireTouchEvent> gesture;
      std::size_t next = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (!spec.open_loop && next == gesture.size()) {
          gesture.clear();
          source.Next(&gesture);
          next = 0;
        }
        const api::WireTouchEvent& event =
            spec.open_loop ? plan.events[k] : gesture[next++];
        const std::int64_t t0 = NowNs();
        kernel.OnTouch(api::FromWire(event));
        per_thread[static_cast<std::size_t>(t)].on_touch_ns += NowNs() - t0;
        for (const auto& item : kernel.results().items()) {
          RefResult r;
          r.object = item.object;
          r.kind = static_cast<std::uint8_t>(item.kind);
          r.row = item.row;
          r.value = item.value.is_string() ? 0.0 : item.value.ToDouble();
          r.approximate = item.approximate;
          plan.ref_results.push_back(r);
        }
        kernel.results().Clear();
        plan.ref_count[k] = static_cast<std::int32_t>(plan.ref_results.size());
      }
      per_thread[static_cast<std::size_t>(t)].touches +=
          static_cast<std::int64_t>(n);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(replay, t);
  for (auto& th : pool) th.join();

  ReferenceTiming total;
  for (const auto& p : per_thread) {
    total.on_touch_ns += p.on_touch_ns;
    total.touches += p.touches;
  }
  return total;
}

}  // namespace touchbench
