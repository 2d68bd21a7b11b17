// Workload inputs: the seeded table, the seeded per-session gesture
// timelines, and the reference answers a standalone kernel gives them.

#ifndef TOUCHBENCH_WORKLOADS_H_
#define TOUCHBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "core/kernel.h"
#include "server/touch_server.h"

namespace touchbench {

/// The table a workload explores, generated from `seed`.
std::shared_ptr<dbtouch::storage::Table> MakeTable(const WorkloadSpec& spec,
                                                   std::uint64_t seed);
const char* TableName(const WorkloadSpec& spec);

/// Server configuration of a workload (thread counts, pool budget).
dbtouch::server::TouchServerConfig ServerConfig(const WorkloadSpec& spec);

/// Seeded session plans. Open-loop plans hold the whole timeline, covering
/// at least `paced_seconds` of sends after the warm-up gesture; closed-loop
/// sessions make their gestures on demand from `SessionPlan::source`.
std::vector<SessionPlan> BuildPlans(const WorkloadSpec& spec,
                                    std::uint64_t seed, double paced_seconds);

/// Replays the first `touches[s]` touches of every plan through a
/// standalone core::Kernel configured the way the server configures its
/// sessions, over `table` (in memory), filling ref_count and ref_results.
/// Returns the wall time spent inside Kernel::OnTouch (ns) and the touches
/// replayed.
struct ReferenceTiming {
  std::int64_t on_touch_ns = 0;
  std::int64_t touches = 0;
};
ReferenceTiming RunReference(
    const WorkloadSpec& spec,
    const std::shared_ptr<dbtouch::storage::Table>& table,
    std::vector<SessionPlan>* plans, int threads,
    const std::vector<std::size_t>& touches);

}  // namespace touchbench

#endif  // TOUCHBENCH_WORKLOADS_H_
