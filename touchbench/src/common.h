// Shared types of the touch-to-result benchmark: workload specs, per-session
// plans with their reference answers, metric helpers.

#ifndef TOUCHBENCH_COMMON_H_
#define TOUCHBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/block_cache.h"
#include "common/rng.h"
#include "gateway/gateway.h"
#include "obs/histogram.h"
#include "server/api.h"
#include "server/server_stats.h"
#include "storage/table.h"

namespace touchbench {

namespace api = dbtouch::server::api;
using Micros = std::int64_t;

inline Micros NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The display-frame budget at the paper's ~15 registered touches/s.
inline constexpr Micros kFrameBudgetUs = 66'667;

/// One gateway event loop serves every workload.
inline constexpr int kGatewayLoops = 1;

/// One workload: the data, the server sizing and the load shape. Every
/// thread count is fixed here so that server workers + gateway loops +
/// fetcher threads + the generator thread stay within a 4-core host.
struct WorkloadSpec {
  std::string name;
  /// Open loop: every touch is sent at its slot on the session's 15 Hz
  /// timeline. Closed loop: each session sends one whole gesture unpaced
  /// and waits for all of its answers before sending the next.
  bool open_loop = true;
  int sessions = 0;
  std::int64_t rows = 0;
  int columns = 0;
  std::int64_t pool_budget_bytes = 64ll << 20;
  /// Spill the table (PAX, reclaim) below the checkout and serve it from
  /// the spill file through the pool.
  bool spilled = false;
  int server_workers = 2;
  int fetcher_threads = 0;
  /// Fixed interval between the SessionSnapshot polls of a session with
  /// outstanding touches (the first poll rides right behind each
  /// SubmitBatch). An answer is seen within one interval plus a round trip
  /// of when it is ready; at 100 us the median touch fell between the
  /// first and the second poll, and moved between them from run to run.
  /// Polling back to back would make the generator measure its own
  /// polling, and in closed loop the contention of snapshots on the
  /// session lock.
  Micros poll_interval_us = 25;
};

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// A result as the wire shows it (api::ResultInfo without the partial-
/// answer fields, which stay zero with partial_answers off).
struct RefResult {
  std::int64_t object = 0;
  std::uint8_t kind = 0;
  std::int64_t row = 0;
  double value = 0.0;
  bool approximate = false;
};

/// A session's seeded gesture timeline, made one gesture at a time. Copies
/// replay the same gestures from the copy point on.
class GestureSource {
 public:
  GestureSource(const WorkloadSpec& spec, std::uint64_t seed, int session);

  /// Appends the next gesture's touches to `out`; returns how many.
  std::size_t Next(std::vector<api::WireTouchEvent>* out);
  /// Session timeline after the last gesture and its think time (us).
  Micros now() const { return t_; }

 private:
  const WorkloadSpec* spec_;
  int session_;
  dbtouch::Rng rng_;
  double region_y_ = 0.0;
  std::size_t step_ = 0;
  Micros t_ = 0;
};

/// One session of a workload: its data object, its action and its seeded
/// touch timeline, plus the answers a reference kernel produced for it.
struct SessionPlan {
  explicit SessionPlan(GestureSource s) : source(std::move(s)) {}

  GestureSource source;
  api::CreateObjectReq create;
  api::WireAction action;
  /// Open loop: every touch of the session, in order, and the touch index
  /// ranges [first, last) of its gestures. Timestamps are the session's
  /// gesture timeline (what the kernel's recognizer sees).
  std::vector<api::WireTouchEvent> events;
  std::vector<std::pair<std::size_t, std::size_t>> gestures;
  /// Open loop: send offset of each touch from the paced epoch (us);
  /// touches of gesture 0 (the warm-up) have none.
  std::vector<Micros> due_offset_us;
  /// Reference: the session's result count after touch k (index k); its
  /// size is the number of touches the session may send.
  std::vector<std::int32_t> ref_count;
  /// Reference: every result the session produces, in order.
  std::vector<RefResult> ref_results;
};

/// Deltas of a histogram snapshot pair (after - before).
dbtouch::obs::HistogramSnapshot HistDelta(
    const dbtouch::obs::HistogramSnapshot& after,
    const dbtouch::obs::HistogramSnapshot& before);

/// Median of raw samples.
double MedianOf(std::vector<double> samples);

/// Percentile p in [0, 1] of a histogram snapshot, interpolated inside
/// the bucket that holds the nearest rank (HistogramSnapshot::Percentile
/// returns the bucket's lower bound, so a time would read the same from
/// run to run). 0 when empty.
double Quantile(const dbtouch::obs::HistogramSnapshot& h, double p);

/// Public stats of every layer, read at a phase boundary.
struct LayerStats {
  dbtouch::server::ServerStatsSnapshot server;
  dbtouch::gateway::GatewayStatsSnapshot gateway;
  dbtouch::cache::BlockCacheStats pool;
  /// CPU time of the whole process and of the generator's thread (the
  /// thread that takes the snapshot), in ns; their difference is the
  /// served program's: gateway loop, server workers and fetchers.
  std::int64_t process_cpu_ns = 0;
  std::int64_t generator_cpu_ns = 0;
};

/// Named metric with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace touchbench

#endif  // TOUCHBENCH_COMMON_H_
