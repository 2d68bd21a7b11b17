#include "server/server_stats.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace dbtouch::server {

namespace {

void AppendStage(obs::JsonWriter& writer, std::string_view name,
                 const obs::HistogramSnapshot& stage, bool include_buckets) {
  writer.Key(name);
  stage.AppendJson(writer, include_buckets);
}

}  // namespace

std::string ServerStatsSnapshot::ToJson(bool include_buckets) const {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Field("sessions_opened", sessions_opened);
  writer.Field("sessions_active", sessions_active);
  writer.Field("submitted", submitted);
  writer.Field("executed", executed);
  writer.Field("dropped_quanta", dropped_quanta);
  writer.Field("deadline_misses", deadline_misses);
  writer.Field("miss_rate", miss_rate());
  writer.Field("partial_answers", partial_answers);
  writer.Field("refinements", refinements);
  writer.Field("refinements_shed", refinements_shed);
  writer.Field("p50_latency_us", p50_latency_us);
  writer.Field("p99_latency_us", p99_latency_us);
  writer.Field("max_latency_us", max_latency_us);
  writer.Field("fairness", fairness);
  writer.Field("result_bytes", result_bytes);
  writer.Key("stages");
  writer.BeginObject();
  AppendStage(writer, "queue_wait", stages.queue_wait, include_buckets);
  AppendStage(writer, "exec", stages.exec, include_buckets);
  AppendStage(writer, "fetch_stall", stages.fetch_stall, include_buckets);
  AppendStage(writer, "e2e", stages.e2e, include_buckets);
  AppendStage(writer, "refine", stages.refine, include_buckets);
  writer.EndObject();
  writer.Key("buffer");
  writer.BeginObject();
  writer.Field("lookups", buffer.lookups);
  writer.Field("hits", buffer.hits);
  writer.Field("hit_rate", buffer.hit_rate());
  writer.Field("faulted_blocks", buffer.faulted_blocks);
  writer.Field("evictions", buffer.evictions);
  writer.Field("bypasses", buffer.bypasses);
  writer.Field("resident_bytes", buffer.resident_bytes);
  writer.Field("peak_resident_bytes", buffer.peak_resident_bytes);
  writer.Field("budget_bytes", buffer.budget_bytes);
  writer.Field("frame_bytes", buffer.frame_bytes);
  writer.Field("peak_frame_bytes", buffer.peak_frame_bytes);
  writer.Field("tracked_matrix_bytes", buffer.tracked_matrix_bytes);
  writer.Field("tracked_column_bytes", buffer.tracked_column_bytes);
  writer.EndObject();
  writer.Key("fetch");
  writer.BeginObject();
  writer.Field("suspended_quanta", fetch.suspended_quanta);
  writer.Field("resumed_quanta", fetch.resumed_quanta);
  writer.Field("demand_fetches", fetch.demand_fetches);
  writer.Field("prefetch_fetches", fetch.prefetch_fetches);
  writer.Field("retries", fetch.retries);
  writer.Field("fetch_errors", fetch.fetch_errors);
  writer.Field("shed_on_fetch_error", fetch.shed_on_fetch_error);
  writer.Field("cancelled_fetches", fetch.cancelled_fetches);
  writer.Field("aborted_fetches", fetch.aborted_fetches);
  writer.Field("batched_stall_attrs", fetch.batched_stall_attrs);
  writer.Field("ranged_reads", fetch.ranged_reads);
  writer.Field("ranged_blocks", fetch.ranged_blocks);
  writer.Field("bytes_fetched", fetch.bytes_fetched);
  writer.Field("fetch_wall_us", fetch.fetch_wall_us);
  writer.Field("max_fetch_wall_us", fetch.max_fetch_wall_us);
  writer.Field("ewma_block_fetch_us", fetch.ewma_block_fetch_us);
  writer.Field("avg_fetch_ms", fetch.avg_fetch_ms());
  writer.EndObject();
  writer.Key("per_session");
  writer.BeginObject();
  for (const auto& [id, s] : per_session) {
    writer.Key(std::to_string(id));
    writer.BeginObject();
    writer.Field("submitted", s.submitted);
    writer.Field("executed", s.executed);
    writer.Field("dropped_quanta", s.dropped_quanta);
    writer.Field("deadline_misses", s.deadline_misses);
    writer.Field("suspended_quanta", s.suspended_quanta);
    writer.Field("shed_levels", static_cast<std::int64_t>(s.shed_levels));
    writer.Field("touch_events", s.touch_events);
    writer.Field("entries_returned", s.entries_returned);
    writer.Field("rows_scanned", s.rows_scanned);
    writer.Field("result_bytes", s.result_bytes);
    writer.Field("partial_quanta", s.partial_quanta);
    writer.Field("refined_quanta", s.refined_quanta);
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  return std::move(writer).str();
}

sim::Micros LatencyPercentile(std::vector<sim::Micros> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

double JainFairness(const std::vector<std::int64_t>& executed_per_session) {
  if (executed_per_session.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::int64_t x : executed_per_session) {
    const double v = static_cast<double>(x);
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) {
    return 1.0;
  }
  return (sum * sum) /
         (static_cast<double>(executed_per_session.size()) * sum_sq);
}

}  // namespace dbtouch::server
