// touchbench: touch-to-result latency of dbTouch over the wire.
//
// One process holds the real server::TouchServer behind a gateway::Gateway
// on loopback and a seeded single-thread load generator. Every touch is
// timed on the generator's clock from its due time to the first
// SessionSnapshot that shows the answer a reference core::Kernel gave for
// the same touches. See touchbench/README.md for the workloads and the
// metrics.
//
//   touchbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>] [--shed-budget-us <us>]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "gateway/gateway.h"
#include "layers.h"
#include "loadgen.h"
#include "server/touch_server.h"
#include "storage/spill.h"
#include "workloads.h"

namespace touchbench {
namespace {

using dbtouch::Status;

/// The generator must keep its send schedule: a run whose p99 send lag
/// exceeds a quarter of the frame budget measured the generator, not the
/// server, and is reported as failed.
constexpr double kMaxSendLagP99Ms = kFrameBudgetUs / 4 / 1e3;
/// Set-up repeats at least kMinSetupReps times and until kMinSetupSeconds
/// of set-up were measured (at most kMaxSetupReps times); setup_s is the
/// median, so cheap set-ups get more samples.
constexpr int kMinSetupReps = 7;
constexpr int kMaxSetupReps = 25;
constexpr double kMinSetupSeconds = 3.0;
/// Allocator thresholds for the measured phases: the server's block and
/// ranged-read buffers (up to a few MiB) are reused from the heap instead
/// of being mapped, faulted in page by page and unmapped on every fetch.
/// With set-up's 256 KiB threshold paced_spilled took about 170k page
/// faults per second; on a virtual machine a fault's cost follows the
/// host's load, and its median latency moved tenfold with it.
constexpr int kRunMmapThreshold = 32 << 20;
constexpr int kRunTrimThreshold = 64 << 20;
/// Bounded wait for connections, sessions and pins to settle at teardown.
constexpr Micros kSettleUs = 5'000'000;
/// Touches in a closed-loop client's plan: a fraction of a second of
/// answers, so the sessions' result streams stay small.
constexpr std::size_t kClosedPlanTouches = 20'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/touchbench/out";
  /// Shed test (us; 0 keeps the server defaults): every frame budget
  /// becomes this short and the drop slack 0, so quanta that wait longer
  /// are shed as late. Exercises the shed accounting and the check.
  std::int64_t shed_budget_us = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--shed-budget-us") {
      args->shed_budget_us = std::stoll(value);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

dbtouch::server::TouchServerConfig ServerConfigOf(const WorkloadSpec& spec,
                                                 const Args& args) {
  dbtouch::server::TouchServerConfig config = ServerConfig(spec);
  if (args.shed_budget_us > 0) {
    config.base_frame_budget_us = args.shed_budget_us;
    config.min_frame_budget_us = args.shed_budget_us;
    config.drop_slack_us = 0;
  }
  return config;
}

/// Every open session's dropped_quanta count, keyed by session id.
std::map<api::SessionId, std::int64_t> DroppedBySession(
    const dbtouch::server::TouchServer& server) {
  std::map<api::SessionId, std::int64_t> dropped;
  for (const auto& [id, session] : server.stats().per_session) {
    dropped[id] = session.dropped_quanta;
  }
  return dropped;
}

/// Forces the spill file's dirty pages to disk, so that their writeback
/// runs during set-up and not during the measured phase.
Status SyncFile(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::Internal("open " + path + " failed");
  const int rc = fsync(fd);
  close(fd);
  return rc == 0 ? Status::OK() : Status::Internal("fsync " + path + " failed");
}

std::int64_t CpuNs(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

/// The server, its gateway and the generator's connections.
struct Stack {
  std::unique_ptr<dbtouch::server::TouchServer> server;
  std::unique_ptr<dbtouch::gateway::Gateway> gateway;
  std::unique_ptr<Generator> gen;

  ~Stack() {
    gen.reset();
    if (gateway) (void)gateway->Stop();
    if (server) (void)server->Stop();
  }

  /// Called on the generator's thread.
  LayerStats Stats() const {
    LayerStats s;
    s.process_cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    s.generator_cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    s.server = server->stats();
    s.gateway = gateway->stats();
    s.pool = server->shared().buffer_manager().stats();
    return s;
  }
};

/// The reference replays run before and after the measured phases, so
/// they may use every core.
int ReferenceThreads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(4, cores));
}

struct SetupTiming {
  double setup_s = 0.0;
  double spill_s = 0.0;
};

/// Column indices bound by the plans' column objects.
std::vector<std::size_t> ObjectColumns(const dbtouch::storage::Table& table,
                                       const std::vector<SessionPlan>& plans) {
  std::vector<std::size_t> cols;
  for (const SessionPlan& plan : plans) {
    if (plan.create.kind != 0) continue;
    auto index = table.schema().FieldIndex(plan.create.column);
    if (index.ok() &&
        std::find(cols.begin(), cols.end(), *index) == cols.end()) {
      cols.push_back(*index);
    }
  }
  return cols;
}

/// The program's own set-up, timed: data generation, spill with reclaim,
/// hierarchy builds, server and gateway start, sessions, objects and
/// actions, and the warm-up gesture of every session. The reference
/// replay (when `reference` is set) runs on the in-memory table before
/// the spill and is not timed.
Status SetUp(const WorkloadSpec& spec, const Args& args,
             std::vector<SessionPlan>* plans, const std::string& spill_dir,
             ReferenceTiming* reference, Stack* stack, SetupTiming* timing) {
  const Micros t0 = NowUs();
  Micros untimed = 0;
  auto table = MakeTable(spec, args.seed);
  if (reference != nullptr) {
    const Micros r0 = NowUs();
    // Open loop: the whole timeline. Closed loop: the client's plan, which
    // it replays in a new session each time it is used up.
    std::vector<std::size_t> touches;
    for (const SessionPlan& plan : *plans) {
      touches.push_back(spec.open_loop ? plan.events.size()
                                       : kClosedPlanTouches);
    }
    *reference = RunReference(spec, table, plans, ReferenceThreads(), touches);
    untimed += NowUs() - r0;
  }
  const dbtouch::server::TouchServerConfig config = ServerConfigOf(spec, args);
  stack->server = std::make_unique<dbtouch::server::TouchServer>(config);
  Status st = stack->server->RegisterTable(table);
  if (!st.ok()) return st;
  for (const std::size_t col : ObjectColumns(*table, *plans)) {
    auto h = stack->server->shared().GetOrBuildHierarchy(TableName(spec), col);
    if (!h.ok()) return h.status();
  }
  table.reset();
  if (spec.spilled) {
    const Micros s0 = NowUs();
    dbtouch::storage::TableSpiller spiller(
        spill_dir, dbtouch::storage::SpillOptions{.rows_per_block = 16'384});
    st = stack->server->shared().SpillTablePax(TableName(spec), spiller,
                                               /*reclaim_raw=*/true);
    if (!st.ok()) return st;
    timing->spill_s = static_cast<double>(NowUs() - s0) / 1e6;
    const Micros f0 = NowUs();
    st = SyncFile(spiller.PaxPathFor(TableName(spec)));
    if (!st.ok()) return st;
    untimed += NowUs() - f0;
  }
  st = stack->server->Start();
  if (!st.ok()) return st;
  dbtouch::gateway::GatewayConfig gw;
  gw.num_loops = kGatewayLoops;
  stack->gateway =
      std::make_unique<dbtouch::gateway::Gateway>(*stack->server, gw);
  st = stack->gateway->Start();
  if (!st.ok()) return st;
  dbtouch::server::TouchServer* server = stack->server.get();
  stack->gen = std::make_unique<Generator>(
      spec, plans, stack->gateway->port(),
      (config.min_frame_budget_us + config.drop_slack_us) * 1000,
      [server] { return DroppedBySession(*server); });
  st = stack->gen->Open();
  if (!st.ok()) return st;
  st = stack->gen->Warmup();
  if (!st.ok()) return st;
  timing->setup_s = static_cast<double>(NowUs() - t0 - untimed) / 1e6;
  return Status::OK();
}

/// Closes every session and connection, then waits (bounded) until the
/// gateway, the server and the pool all report it. A value that has not
/// settled by the deadline is a leak.
struct Teardown {
  bool settled = false;
  std::string detail;
};
Teardown TearDown(Stack* stack) {
  Teardown t;
  const Status closed = stack->gen->CloseAll();
  const Micros deadline = NowUs() + kSettleUs;
  std::int64_t conns = 0;
  std::size_t sessions = 0;
  std::int64_t pins = 0;
  while (true) {
    conns = stack->gateway->stats().connections_active;
    sessions = stack->server->session_count();
    pins = stack->server->shared().buffer_manager().stats().pinned_blocks;
    if (conns == 0 && sessions == 0 && pins == 0) {
      t.settled = closed.ok();
      break;
    }
    if (NowUs() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!t.settled) {
    t.detail = "close " + closed.ToString() + ", connections_active " +
               std::to_string(conns) + ", sessions " +
               std::to_string(sessions) + ", pinned_blocks " +
               std::to_string(pins);
  }
  stack->gen.reset();
  (void)stack->gateway->Stop();
  (void)stack->server->Stop();
  return t;
}

// ---- Metrics ---------------------------------------------------------------

/// A metric plus, for ratios, the base it was computed from.
struct Reported {
  Metric metric;
  std::string base;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& base = "") {
    if (!std::isfinite(value)) value = 0.0;
    rows_.push_back(Reported{Metric{name, value, unit}, base});
  }
  void Ratio(const std::string& name, double num, double den,
             const std::string& num_name, const std::string& den_name) {
    PerCount(name, num, den, num_name, den_name, "ratio");
  }
  void PerTouch(const std::string& name, double num, double touches,
                const std::string& num_name, const std::string& unit) {
    PerCount(name, num, touches, num_name, "touches", unit);
  }
  void PerCount(const std::string& name, double num, double den,
                const std::string& num_name, const std::string& den_name,
                const std::string& unit) {
    std::ostringstream base;
    base << num_name << " " << static_cast<std::int64_t>(num) << " / "
         << den_name << " " << static_cast<std::int64_t>(den);
    Add(name, den == 0 ? 0.0 : num / den, unit, base.str());
  }
  const std::vector<Reported>& rows() const { return rows_; }

 private:
  std::vector<Reported> rows_;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

struct PhaseDeltas {
  std::int64_t submitted = 0;
  std::int64_t executed = 0;
  std::int64_t dropped = 0;
  std::int64_t misses = 0;
  std::int64_t suspended = 0;
  dbtouch::obs::HistogramSnapshot queue_wait;
  dbtouch::obs::HistogramSnapshot exec;
  dbtouch::obs::HistogramSnapshot fetch_stall;
  dbtouch::obs::HistogramSnapshot e2e;
};

PhaseDeltas Deltas(const PhaseResult& p) {
  const auto& a = p.end.server;
  const auto& b = p.begin.server;
  PhaseDeltas d;
  d.submitted = a.submitted - b.submitted;
  d.executed = a.executed - b.executed;
  d.dropped = a.dropped_quanta - b.dropped_quanta;
  d.misses = a.deadline_misses - b.deadline_misses;
  d.suspended = a.fetch.suspended_quanta - b.fetch.suspended_quanta;
  d.queue_wait = HistDelta(a.stages.queue_wait, b.stages.queue_wait);
  d.exec = HistDelta(a.stages.exec, b.stages.exec);
  d.fetch_stall = HistDelta(a.stages.fetch_stall, b.stages.fetch_stall);
  d.e2e = HistDelta(a.stages.e2e, b.stages.e2e);
  return d;
}

struct SetupSeconds {
  double value = 0.0;
  std::size_t reps = 0;
};

/// A phase's answered touches per second and latency medians, each the
/// median over the phase's windows.
struct WindowMedians {
  double touches_per_s = 0.0;
  double p50_ms = 0.0;
  std::string base;
};

WindowMedians MediansOf(const PhaseResult& p) {
  const double window_s = static_cast<double>(p.end_ns - p.start_ns) / 1e9 /
                          static_cast<double>(p.windows.size());
  std::vector<double> p50_ms;
  std::vector<double> per_s;
  for (const auto& window : p.windows) {
    const dbtouch::obs::HistogramSnapshot h = window->Snapshot();
    p50_ms.push_back(Quantile(h, 0.50) / 1e6);
    per_s.push_back(static_cast<double>(h.count) / window_s);
  }
  return WindowMedians{MedianOf(per_s), MedianOf(p50_ms),
                       "median of " + std::to_string(p.windows.size()) +
                           " windows of " + Num(window_s) +
                           " s; touches answered " +
                           std::to_string(p.answered)};
}

void AddEndToEnd(Report* r, const PhaseResult& p, SetupSeconds setup_s) {
  const double attempted = static_cast<double>(p.attempted);
  r->Ratio("frame_hit_ratio", static_cast<double>(p.in_frame), attempted,
           "answered within 66.7 ms", "attempted");
  r->Ratio("success_ratio", static_cast<double>(p.answered), attempted,
           "answered", "attempted");
  r->Add("setup_s", setup_s.value, "s",
         "median of " + std::to_string(setup_s.reps) + " set-ups");
  r->Add("rss_peak_mb", static_cast<double>(p.rss_peak_bytes) / (1 << 20),
         "MB", "sampled every 20 ms in the measured phase");
}

/// Self time of each span: its duration minus the union of the parts of
/// it its children cover.
std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans,
                                          std::int64_t* roots) {
  using Ns = std::int64_t;
  std::vector<std::vector<std::pair<Ns, Ns>>> children(spans.size());
  *roots = 0;
  for (const Span& s : spans) {
    if (s.parent < 0) {
      ++*roots;
      continue;
    }
    const Span& parent = spans[static_cast<std::size_t>(s.parent)];
    const Ns a = std::max(s.start_ns, parent.start_ns);
    const Ns b = std::min(s.end_ns, parent.end_ns);
    if (b > a) children[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    Ns covered = 0;
    Ns cur_a = 0;
    Ns cur_b = -1;
    for (const auto& [a, b] : c) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    const Ns duration = std::max<Ns>(0, spans[i].end_ns - spans[i].start_ns);
    self[SpanNameOf(spans[i].name)] +=
        static_cast<double>(std::max<Ns>(0, duration - covered)) / 1e3;
  }
  return self;
}

void AppendHist(std::ostringstream& out, const char* name,
                const dbtouch::obs::HistogramSnapshot& h) {
  out << "\"" << name << "\":{\"count\":" << h.count << ",\"sum_us\":" << h.sum
      << ",\"p50_us\":" << h.Percentile(0.5) << ",\"p99_us\":"
      << h.Percentile(0.99) << "}";
}

void WriteTraceFile(const std::string& path, const Args& args,
                    const PhaseResult& traced, const PhaseDeltas& d,
                    const std::map<std::string, double>& self_us,
                    std::int64_t roots, const LayerReplayResult& replay) {
  std::ostringstream out;
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"time_unit\":\"ns from the traced phase start\",\"spans\":[";
  for (std::size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& s = traced.spans[i];
    out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\""
        << SpanNameOf(s.name) << "\",\"start\":" << s.start_ns - traced.start_ns
        << ",\"end\":" << s.end_ns - traced.start_ns << ",\"parent\":"
        << s.parent << ",\"touch\":" << s.touch << "}";
  }
  out << "],\"self_time_us_per_touch\":{";
  bool first = true;
  for (const auto& [name, us] : self_us) {
    out << (first ? "" : ",") << "\"" << name << "\":"
        << Num(roots == 0 ? 0.0 : us / static_cast<double>(roots));
    first = false;
  }
  out << "},\"server_stage_deltas\":{";
  AppendHist(out, "queue_wait", d.queue_wait);
  out << ",";
  AppendHist(out, "exec", d.exec);
  out << ",";
  AppendHist(out, "fetch_stall", d.fetch_stall);
  out << ",";
  AppendHist(out, "e2e", d.e2e);
  out << "},\"layer_replay\":{\"time_unit\":\"ns\",\"spans\":[";
  std::map<std::string, std::pair<double, std::int64_t>> self_ns;
  const std::int64_t origin =
      replay.spans.empty() ? 0 : replay.spans.front().start_ns;
  for (std::size_t i = 0; i < replay.spans.size(); ++i) {
    const ReplaySpan& s = replay.spans[i];
    out << (i ? "," : "") << "{\"name\":\"" << s.name << "\",\"start\":"
        << s.start_ns - origin << ",\"end\":" << s.end_ns - origin
        << ",\"parent\":-1}";
    auto& agg = self_ns[s.name];
    agg.first += static_cast<double>(s.end_ns - s.start_ns);
    ++agg.second;
  }
  out << "],\"self_time_ns_per_call\":{";
  first = true;
  for (const auto& [name, agg] : self_ns) {
    out << (first ? "" : ",") << "\"" << name << "\":"
        << Num(agg.first / static_cast<double>(agg.second));
    first = false;
  }
  out << "}}}\n";
  std::ofstream file(path);
  file << out.str();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: touchbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out-dir <dir>] "
                 "[--shed-budget-us <us>]\n");
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  // During set-up a low fixed mmap threshold returns freed set-up buffers
  // to the system, so the resident set measured later is the served
  // state, not leftovers. The measured phases raise it again (see
  // kRunMmapThreshold).
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string spill_dir =
      args.out_dir + "/spill-" + std::to_string(getpid());
  if (spec.spilled) std::filesystem::create_directories(spill_dir, ec);
  struct RemoveDir {
    std::string dir;
    ~RemoveDir() {
      std::error_code e;
      std::filesystem::remove_all(dir, e);
    }
  } remove_spill{spec.spilled ? spill_dir : ""};

  std::vector<SessionPlan> plans = BuildPlans(spec, args.seed, args.seconds);

  // Set-up, several times; the last stack is kept for the measured run.
  ReferenceTiming reference;
  std::vector<double> setup_s;
  std::vector<double> spill_s;
  bool teardowns_settled = true;
  std::string teardown_detail;
  auto stack = std::make_unique<Stack>();
  double setup_total_s = 0.0;
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && setup_total_s >= kMinSetupSeconds) break;
    if (rep > 0) {
      const Teardown t = TearDown(stack.get());
      if (!t.settled) {
        teardowns_settled = false;
        teardown_detail = t.detail;
      }
      stack = std::make_unique<Stack>();
      malloc_trim(0);
    }
    SetupTiming timing;
    const Status st = SetUp(spec, args, &plans, spill_dir,
                            rep == 0 ? &reference : nullptr, stack.get(),
                            &timing);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(timing.setup_s);
    spill_s.push_back(timing.spill_s);
    setup_total_s += timing.setup_s;
  }

  // Measured phases: the untraced run alone, or untraced then traced.
  const std::int64_t total_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<std::int64_t> lengths;
  std::vector<bool> traced;
  if (args.trace) {
    lengths = {total_ns / 2, total_ns - total_ns / 2};
    traced = {false, true};
  } else {
    lengths = {total_ns};
    traced = {false};
  }
  Stack* s = stack.get();
  mallopt(M_MMAP_THRESHOLD, kRunMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, kRunTrimThreshold);
  std::vector<PhaseResult> phases =
      s->gen->Run(lengths, traced, [s] { return s->Stats(); });

  // Output check against the reference and the server's drop counts.
  // Sessions that missed a deadline or had a quantum shed may answer
  // summaries at a coarser level.
  const auto server_now = s->server->stats();
  const std::map<api::SessionId, std::int64_t> dropped =
      DroppedBySession(*s->server);
  std::vector<bool> shed_possible;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto it = server_now.per_session.find(s->gen->session_id(i));
    shed_possible.push_back(it == server_now.per_session.end() ||
                            it->second.deadline_misses > 0 ||
                            it->second.dropped_quanta > 0);
  }
  const Generator::CheckResult check =
      s->gen->FinalCheck(shed_possible, dropped);

  LayerReplayResult replay;
  if (args.trace) {
    LayerReplayInput in;
    in.spec = &spec;
    in.server = s->server.get();
    in.submits = &s->gen->sample_submits();
    in.snapshot_payloads = &s->gen->sample_snapshot_payloads();
    in.live_session = s->gen->session_id(0);
    in.column = spec.columns == 1 ? 0 : 1;
    if (spec.spilled) {
      in.spill_path = dbtouch::storage::TableSpiller(spill_dir).PaxPathFor(
          TableName(spec));
    }
    replay = RunLayerReplay(in);
  }
  const std::int64_t s_reopens = s->gen->reopens();
  const Teardown final_teardown = TearDown(stack.get());
  if (!final_teardown.settled) {
    teardowns_settled = false;
    teardown_detail = final_teardown.detail;
  }
  stack.reset();

  const PhaseResult& measured = phases.back();
  const PhaseDeltas d = Deltas(measured);
  const double lag_p99 = Quantile(measured.send_lag.Snapshot(), 0.99) / 1e6;
  const bool lag_ok = !spec.open_loop || lag_p99 <= kMaxSendLagP99Ms;
  const std::int64_t failed = measured.attempted - measured.answered +
                              measured.errors;
  const bool correct = check.ok && teardowns_settled && lag_ok &&
                       replay.error.empty() && measured.attempted > 0;

  Report r;
  if (!args.trace) {
    AddEndToEnd(&r, measured, SetupSeconds{MedianOf(setup_s), setup_s.size()});
  } else {
    const PhaseResult& untraced = phases.front();
    const double touches = static_cast<double>(measured.attempted);
    const double executed = static_cast<double>(d.executed);
    const auto& a = measured.end;
    const auto& b = measured.begin;
    const double measured_s =
        static_cast<double>(measured.end_ns - measured.start_ns) / 1e9;
    r.PerCount("gen.touches_per_s_per_session",
               touches / measured_s, static_cast<double>(spec.sessions),
               "touches attempted per s", "sessions", "1/s");
    const WindowMedians untraced_medians = MediansOf(untraced);
    r.Add("touch_p50_ms", untraced_medians.p50_ms, "ms",
          "untraced half, " + untraced_medians.base);
    r.Add("touches_per_s", untraced_medians.touches_per_s, "1/s",
          "untraced half, " + untraced_medians.base);
    const std::int64_t server_cpu_ns =
        (untraced.end.process_cpu_ns - untraced.end.generator_cpu_ns) -
        (untraced.begin.process_cpu_ns - untraced.begin.generator_cpu_ns);
    r.PerCount("server_cpu_us_per_touch",
               static_cast<double>(server_cpu_ns) / 1e3,
               static_cast<double>(untraced.answered),
               "untraced half, server CPU us", "touches answered", "us");
    r.Add("touch_p99_ms", Quantile(untraced.latency.Snapshot(), 0.99) / 1e6,
          "ms",
          "untraced half, touches answered " +
              std::to_string(untraced.answered));
    r.Add("gen.send_lag_p99_ms", lag_p99, "ms",
          "sends " + std::to_string(measured.send_lag.Snapshot().count));
    r.PerTouch("gen.polls_per_touch", static_cast<double>(measured.polls),
               touches, "polls", "count");
    r.Ratio("gen.error_ratio", static_cast<double>(failed), touches,
            "failed", "attempted");
    r.Add("gateway.submit_rtt_p50_us",
          Quantile(measured.submit_rtt.Snapshot(), 0.5) / 1e3, "us",
          "acks " + std::to_string(measured.submit_rtt.Snapshot().count));
    r.Add("gateway.submit_rtt_p99_us",
          Quantile(measured.submit_rtt.Snapshot(), 0.99) / 1e3, "us",
          "acks " + std::to_string(measured.submit_rtt.Snapshot().count));
    r.Add("gateway.snapshot_rtt_p99_us",
          Quantile(measured.snapshot_rtt.Snapshot(), 0.99) / 1e3, "us",
          "polls " + std::to_string(measured.snapshot_rtt.Snapshot().count));
    r.PerTouch("gateway.bytes_per_touch",
               static_cast<double>(a.gateway.bytes_received +
                                   a.gateway.bytes_sent -
                                   b.gateway.bytes_received -
                                   b.gateway.bytes_sent),
               touches, "bytes", "B");
    r.Add("gateway.codec_ns_per_frame", replay.codec_ns_per_frame, "ns",
          "layer replay, encode + decode");
    const double e2e_p50_us = Quantile(d.e2e, 0.5);
    r.Add("gateway.residual_p50_us",
          Quantile(measured.latency.Snapshot(), 0.5) / 1e3 - e2e_p50_us, "us",
          "touch_p50 - server.e2e_p50");
    r.Add("server.queue_wait_p50_us",
          Quantile(d.queue_wait, 0.5), "us",
          "quanta " + std::to_string(d.queue_wait.count));
    r.Add("server.queue_wait_p99_us",
          Quantile(d.queue_wait, 0.99), "us",
          "quanta " + std::to_string(d.queue_wait.count));
    r.Add("server.e2e_p50_us", e2e_p50_us, "us",
          "quanta " + std::to_string(d.e2e.count));
    r.Add("server.e2e_p99_us", Quantile(d.e2e, 0.99),
          "us", "quanta " + std::to_string(d.e2e.count));
    r.Ratio("server.dropped_ratio", static_cast<double>(d.dropped),
            static_cast<double>(d.submitted), "dropped", "submitted");
    r.Ratio("server.miss_ratio", static_cast<double>(d.misses), executed,
            "deadline misses", "executed");
    r.Add("server.submit_us_per_batch", replay.submit_us_per_batch, "us",
          "layer replay, TouchServer::Call(SubmitBatchReq)");
    r.Add("server.sched_push_ns", replay.sched_push_ns, "ns",
          "layer replay, FrameScheduler::Push");
    r.Add("server.sched_pop_ns", replay.sched_pop_ns, "ns",
          "layer replay, FrameScheduler::PopRunnable");
    r.Add("core.exec_p50_us", Quantile(d.exec, 0.5), "us",
          "quanta " + std::to_string(d.exec.count));
    r.Add("core.exec_p99_us", Quantile(d.exec, 0.99),
          "us", "quanta " + std::to_string(d.exec.count));
    r.PerTouch("core.rows_scanned_per_touch",
               static_cast<double>(measured.rows_scanned), executed,
               "rows scanned", "count");
    r.Add("core.us_per_touch",
          reference.touches == 0
              ? 0.0
              : static_cast<double>(reference.on_touch_ns) / 1e3 /
                    static_cast<double>(reference.touches),
          "us",
          "Kernel::OnTouch over " + std::to_string(reference.touches) +
              " reference touches");
    r.Add("exec.span_gb_per_s", replay.span_gb_per_s, "GB/s",
          "layer replay, MinMaxSpan + AggregateSpan");
    r.Add("sampling.level_view_ns", replay.level_view_ns, "ns",
          "layer replay, SampleHierarchy::LevelView");
    r.Ratio("sampling.rows_per_entry",
            static_cast<double>(measured.rows_scanned),
            static_cast<double>(measured.entries_returned), "rows scanned",
            "entries returned");
    const auto& pa = a.pool;
    const auto& pb = b.pool;
    r.Ratio("cache.hit_rate", static_cast<double>(pa.hits - pb.hits),
            static_cast<double>(pa.lookups - pb.lookups), "hits", "lookups");
    r.PerTouch("cache.faults_per_touch",
               static_cast<double>(pa.faults - pb.faults), executed, "faults",
               "count");
    r.PerTouch("cache.evictions_per_touch",
               static_cast<double>(pa.evictions - pb.evictions), executed,
               "evictions", "count");
    r.Ratio("cache.suspended_ratio", static_cast<double>(d.suspended),
            executed, "suspended quanta", "executed");
    r.Add("cache.fetch_stall_p99_us",
          Quantile(d.fetch_stall, 0.99), "us",
          "quanta " + std::to_string(d.fetch_stall.count));
    const auto& fa = a.server.fetch;
    const auto& fb = b.server.fetch;
    const std::int64_t fetches = fa.demand_fetches + fa.prefetch_fetches -
                                 fb.demand_fetches - fb.prefetch_fetches;
    r.PerCount("cache.fetch_wall_avg_us",
               static_cast<double>(fa.fetch_wall_us - fb.fetch_wall_us),
               static_cast<double>(fetches), "fetch wall us", "fetches", "us");
    r.Ratio("cache.peak_resident_over_budget",
            static_cast<double>(pa.peak_resident_bytes),
            static_cast<double>(spec.pool_budget_bytes), "peak resident bytes",
            "budget bytes");
    r.Add("cache.pin_hit_ns", replay.pin_hit_ns, "ns",
          "layer replay, pin of a resident block");
    r.Add("cache.pin_cold_us", replay.pin_cold_us, "us",
          "layer replay, pin of a cold block");
    r.PerTouch("prefetch.fetches_per_touch",
               static_cast<double>(fa.prefetch_fetches - fb.prefetch_fetches),
               executed, "prefetch fetches", "count");
    r.Ratio("prefetch.claimed_ratio",
            static_cast<double>(pa.prefetch_staged_claims -
                                pb.prefetch_staged_claims),
            static_cast<double>(pa.prefetch_staged_claims -
                                pb.prefetch_staged_claims +
                                pa.prefetch_staged_evictions -
                                pb.prefetch_staged_evictions),
            "claimed warm-ups", "claimed + evicted staged warm-ups");
    r.PerTouch("storage.bytes_read_per_touch",
               static_cast<double>(fa.bytes_fetched - fb.bytes_fetched),
               executed, "bytes fetched", "B");
    r.Ratio("storage.ranged_block_ratio",
            static_cast<double>(fa.ranged_blocks - fb.ranged_blocks),
            static_cast<double>(fetches), "blocks in ranged reads", "fetches");
    r.Add("storage.spill_s", MedianOf(spill_s), "s",
          "median of " + std::to_string(spill_s.size()) + " set-ups");
    const double p99_traced =
        Quantile(measured.latency.Snapshot(), 0.99) / 1e6;
    const double p99_untraced =
        Quantile(untraced.latency.Snapshot(), 0.99) / 1e6;
    r.Add("trace.overhead_pct",
          p99_untraced == 0 ? 0.0
                            : (p99_traced - p99_untraced) / p99_untraced * 100,
          "%", "traced touch_p99 " + Num(p99_traced) + " vs untraced " +
                   Num(p99_untraced));
    std::int64_t roots = 0;
    const auto self_us = SelfTimesUs(measured.spans, &roots);
    for (const std::uint8_t name : {kSpanTouch, kSpanSendDelay, kSpanSubmit,
                                    kSpanAnswerWait, kSpanPoll}) {
      const auto it = self_us.find(SpanNameOf(name));
      const double total = it == self_us.end() ? 0.0 : it->second;
      r.PerTouch(std::string("trace.self_us.") + SpanNameOf(name), total,
                 static_cast<double>(roots), "self us", "us");
    }
    const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    WriteTraceFile(trace_path, args, measured, d, self_us, roots, replay);
    std::printf("trace written to %s (%zu spans, %zu replay spans)\n",
                trace_path.c_str(), measured.spans.size(), replay.spans.size());
  }

  std::printf("workload %s seed %llu: %s loop, %d sessions, %lld rows x %d "
              "cols, pool %lld MiB%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              spec.open_loop ? "open" : "closed", spec.sessions,
              static_cast<long long>(spec.rows), spec.columns,
              static_cast<long long>(spec.pool_budget_bytes >> 20),
              spec.spilled ? ", spilled (PAX, reclaimed)" : "");
  std::printf("check: %s, %lld results compared, %lld summary values at a "
              "shed level compared by count and row only, %lld sessions "
              "that lost touches checked by counts only%s%s\n",
              check.ok ? "ok" : "MISMATCH",
              static_cast<long long>(check.results_compared),
              static_cast<long long>(check.values_unchecked),
              static_cast<long long>(check.sessions_counts_only),
              check.ok ? "" : " - ", check.first_mismatch.c_str());
  if (!spec.open_loop) {
    std::printf("closed loop: %lld sessions reopened after their plan of "
                "%zu touches\n",
                static_cast<long long>(s_reopens), kClosedPlanTouches);
  }
  std::printf("teardown: %s%s\n", teardowns_settled ? "settled" : "LEAK ",
              teardown_detail.c_str());
  std::printf("touches: %lld attempted, %lld answered, %lld refused at "
              "admission, %lld shed late, %lld timed out; %lld failed wire "
              "operations\n",
              static_cast<long long>(measured.attempted),
              static_cast<long long>(measured.answered),
              static_cast<long long>(measured.rejected),
              static_cast<long long>(measured.dropped),
              static_cast<long long>(measured.timeouts),
              static_cast<long long>(measured.errors));
  std::printf("send lag p99 %.3f ms (limit %.1f ms): %s\n", lag_p99,
              kMaxSendLagP99Ms, lag_ok ? "ok" : "GENERATOR LAGGED");
  if (!replay.error.empty()) {
    std::printf("layer replay: %s\n", replay.error.c_str());
  }
  for (const Reported& row : r.rows()) {
    std::printf("  %-34s %14.6g %-6s %s\n", row.metric.name.c_str(),
                row.metric.value, row.metric.unit.c_str(), row.base.c_str());
  }

  std::ostringstream json;
  json << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << measured.attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
  bool first = true;
  for (const Reported& row : r.rows()) {
    json << (first ? "" : ",") << "\"" << JsonEscape(row.metric.name)
         << "\":{\"value\":" << Num(row.metric.value) << ",\"unit\":\""
         << row.metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace touchbench

int main(int argc, char** argv) { return touchbench::Main(argc, argv); }
