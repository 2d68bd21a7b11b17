// Layer replay of the traced run: the workload's recorded inputs go
// through each module's public functions one call at a time, and each
// call is timed as its own span.

#ifndef TOUCHBENCH_LAYERS_H_
#define TOUCHBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "server/touch_server.h"

namespace touchbench {

/// One timed call of the layer replay.
struct ReplaySpan {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct LayerReplayInput {
  const WorkloadSpec* spec = nullptr;
  dbtouch::server::TouchServer* server = nullptr;
  const std::vector<api::SubmitBatchReq>* submits = nullptr;
  const std::vector<std::string>* snapshot_payloads = nullptr;
  /// An open session the replayed SubmitBatch requests are sent to.
  api::SessionId live_session = 0;
  /// Column read by the span-kernel, pin and hierarchy replays.
  std::size_t column = 0;
  /// PAX spill file of the table ("" when the table is resident).
  std::string spill_path;
};

struct LayerReplayResult {
  double codec_ns_per_frame = 0.0;
  double submit_us_per_batch = 0.0;
  double sched_push_ns = 0.0;
  double sched_pop_ns = 0.0;
  double pin_hit_ns = 0.0;
  double pin_cold_us = 0.0;
  double span_gb_per_s = 0.0;
  double level_view_ns = 0.0;
  std::vector<ReplaySpan> spans;
  std::string error;
};

LayerReplayResult RunLayerReplay(const LayerReplayInput& in);

}  // namespace touchbench

#endif  // TOUCHBENCH_LAYERS_H_
