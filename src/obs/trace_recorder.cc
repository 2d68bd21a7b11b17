#include "obs/trace_recorder.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "obs/json.h"

namespace dbtouch::obs {

namespace {

/// Same timebase as server::SteadyNowUs (steady_clock micros), duplicated
/// here so obs does not depend on the server layer.
std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* SpanStageName(SpanStage stage) {
  switch (stage) {
    case SpanStage::kSubmitted:
      return "submitted";
    case SpanStage::kDispatched:
      return "dispatched";
    case SpanStage::kExecuting:
      return "executing";
    case SpanStage::kSuspended:
      return "suspended";
    case SpanStage::kParked:
      return "parked";
    case SpanStage::kFetchStarted:
      return "fetch_started";
    case SpanStage::kFetchDone:
      return "fetch_done";
    case SpanStage::kUnparked:
      return "unparked";
    case SpanStage::kResumed:
      return "resumed";
    case SpanStage::kCompleted:
      return "completed";
    case SpanStage::kShed:
      return "shed";
    case SpanStage::kPartial:
      return "partial";
    case SpanStage::kRefined:
      return "refined";
  }
  return "?";
}

TraceRecorder::TraceRecorder(const TraceRecorderConfig& config)
    : slots_(std::bit_ceil(std::max<std::size_t>(config.capacity, 2))),
      mask_(slots_.size() - 1),
      max_exemplars_(std::max(config.max_exemplars, 0)) {
  exemplars_.reserve(static_cast<std::size_t>(max_exemplars_));
}

void TraceRecorder::Record(SpanStage stage, std::int64_t quantum,
                           std::int64_t session, std::int64_t a,
                           std::int64_t b) {
  const std::uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index & mask_];
  // Claim the slot: only one writer may fill it at a time. A writer that
  // finds it mid-write by another (a lap of the ring raced this one), or
  // already holding a newer event, drops its own event instead of
  // interleaving payload stores with it.
  std::uint64_t seen = slot.ticket.load(std::memory_order_relaxed);
  do {
    if (seen == kWriting || seen > index + 1) {
      lost_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  } while (!slot.ticket.compare_exchange_weak(seen, kWriting,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed));
  // Acquire on the claim orders this event's payload stores after those
  // of the event it replaces. Each payload store is a release: a reader
  // whose (acquire) payload load sees a value of this event also sees
  // the claim that preceded it, so its ticket re-check cannot pass.
  slot.t_us.store(NowUs(), std::memory_order_release);
  slot.quantum.store(quantum, std::memory_order_release);
  slot.session.store(session, std::memory_order_release);
  slot.stage.store(static_cast<std::uint8_t>(stage),
                   std::memory_order_release);
  slot.a.store(a, std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.ticket.store(index + 1, std::memory_order_release);
}

void TraceRecorder::NoteCompletion(const SlowQuantumExemplar& exemplar) {
  if (max_exemplars_ == 0) {
    return;
  }
  // Almost every completion loses to the retained set and exits here with
  // one relaxed load. The floor stays at -1 until the set is full, so the
  // fast path never consults the (mutex-guarded) vector itself.
  const std::int64_t floor =
      exemplar_floor_.load(std::memory_order_relaxed);
  if (floor >= 0 && exemplar.e2e_us <= floor) {
    return;
  }
  const std::lock_guard<std::mutex> lock(exemplar_mu_);
  if (static_cast<int>(exemplars_.size()) < max_exemplars_) {
    exemplars_.push_back(exemplar);
  } else {
    // Replace the current minimum if beaten (re-checked under the lock).
    auto worst = std::min_element(
        exemplars_.begin(), exemplars_.end(),
        [](const auto& x, const auto& y) { return x.e2e_us < y.e2e_us; });
    if (exemplar.e2e_us <= worst->e2e_us) {
      return;
    }
    *worst = exemplar;
  }
  if (static_cast<int>(exemplars_.size()) >= max_exemplars_) {
    const auto floor = std::min_element(
        exemplars_.begin(), exemplars_.end(),
        [](const auto& x, const auto& y) { return x.e2e_us < y.e2e_us; });
    exemplar_floor_.store(floor->e2e_us, std::memory_order_relaxed);
  }
}

std::vector<SpanEvent> TraceRecorder::Snapshot() const {
  std::vector<SpanEvent> events;
  events.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const std::uint64_t before = slot.ticket.load(std::memory_order_acquire);
    if (before == 0 || before == kWriting) {
      continue;  // Never written, or being written.
    }
    // Acquire payload loads: one that sees a newer writer's store also
    // sees that writer's claim, so the re-check below catches the tear.
    SpanEvent event;
    event.t_us = slot.t_us.load(std::memory_order_acquire);
    event.quantum = slot.quantum.load(std::memory_order_acquire);
    event.session = slot.session.load(std::memory_order_acquire);
    event.stage =
        static_cast<SpanStage>(slot.stage.load(std::memory_order_acquire));
    event.a = slot.a.load(std::memory_order_acquire);
    event.b = slot.b.load(std::memory_order_acquire);
    const std::uint64_t after = slot.ticket.load(std::memory_order_relaxed);
    if (after != before) {
      continue;  // Torn: a writer replaced the slot mid-copy.
    }
    event.ticket = before;
    events.push_back(event);
  }
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& x, const SpanEvent& y) {
              return x.ticket < y.ticket;
            });
  return events;
}

std::vector<SlowQuantumExemplar> TraceRecorder::Exemplars() const {
  const std::lock_guard<std::mutex> lock(exemplar_mu_);
  std::vector<SlowQuantumExemplar> sorted = exemplars_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& x, const auto& y) { return x.e2e_us > y.e2e_us; });
  return sorted;
}

void TraceRecorder::DumpJson(JsonWriter& writer) const {
  const std::vector<SpanEvent> events = Snapshot();
  const std::vector<SlowQuantumExemplar> exemplars = Exemplars();
  writer.BeginObject();
  writer.Field("capacity", static_cast<std::int64_t>(slots_.size()));
  writer.Field("recorded", static_cast<std::int64_t>(recorded()));
  writer.Field(
      "dropped",
      static_cast<std::int64_t>(
          recorded() > slots_.size() ? recorded() - slots_.size() : 0));
  writer.Field("lost", static_cast<std::int64_t>(lost()));
  writer.Key("events");
  writer.BeginArray();
  for (const SpanEvent& event : events) {
    writer.BeginObject();
    writer.Field("seq", static_cast<std::int64_t>(event.ticket));
    writer.Field("t_us", event.t_us);
    writer.Field("stage", SpanStageName(event.stage));
    writer.Field("quantum", event.quantum);
    writer.Field("session", event.session);
    if (event.a != 0 || event.b != 0) {
      writer.Field("a", event.a);
      writer.Field("b", event.b);
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("slow_quanta");
  writer.BeginArray();
  for (const SlowQuantumExemplar& exemplar : exemplars) {
    writer.BeginObject();
    writer.Field("quantum", exemplar.quantum);
    writer.Field("session", exemplar.session);
    writer.Field("e2e_us", exemplar.e2e_us);
    writer.Field("queue_wait_us", exemplar.queue_wait_us);
    writer.Field("exec_us", exemplar.exec_us);
    writer.Field("fetch_stall_us", exemplar.fetch_stall_us);
    writer.Field("missed", exemplar.missed);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

std::string TraceRecorder::DumpJson() const {
  JsonWriter writer;
  DumpJson(writer);
  return std::move(writer).str();
}

}  // namespace dbtouch::obs
