// obs::TraceRecorder — per-quantum lifecycle spans in a fixed-capacity ring.
//
// Every touch quantum moving through the server traces a lifecycle:
//
//   submit -> (released) -> dispatched -> executing
//              -> (suspended -> fetch-start -> fetch-done -> unparked
//                  -> dispatched -> executing)*      [async cold faults]
//              -> completed | shed
//
// The recorder captures each transition as one fixed-size SpanEvent with a
// steady-clock timestamp and (quantum, session) tags, written into a
// power-of-two ring with a single relaxed fetch_add for slot allocation —
// no lock on the hot path, writers never wait on readers or each other.
// When the ring wraps, the oldest events are overwritten: a postmortem
// always holds the most recent window.
//
// Disabled cost: call sites guard on a raw pointer (null when tracing is
// off), so the entire subsystem is one predictable branch per hook when
// disabled; the ring is not even allocated.
//
// Consistency: a writer claims its slot by CASing (acquire) the slot's
// ticket to a "writing" mark, stores every SpanEvent field with a release
// store, and publishes the event's ticket with a release store. Two
// writers a ring lap apart never fill one slot at once: the one that
// loses the claim, or whose event is older than the slot's, drops its
// event and counts it in lost(). Tickets in a slot therefore only grow,
// and Snapshot() — ticket load, acquire payload loads, ticket re-load —
// discards any slot whose ticket moved: a payload load that sees a newer
// writer's store also sees that writer's claim, so a torn read is
// dropped, never misreported. Only ordered atomic operations carry the
// protocol (no standalone fences), so ThreadSanitizer checks it.
//
// Slow-quantum exemplars: completed quanta whose end-to-end latency tops
// the retained set are kept separately (a small mutex-guarded top-K — the
// completion path takes the mutex only when the quantum beats the current
// K-th worst, i.e. almost never), so the "what were the worst frames and
// where did their budget go" question survives ring wraparound.

#ifndef DBTOUCH_OBS_TRACE_RECORDER_H_
#define DBTOUCH_OBS_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dbtouch::obs {

class JsonWriter;

enum class SpanStage : std::uint8_t {
  kSubmitted = 0,   // Quantum admitted to its session queue.
  kDispatched = 1,  // EDF scheduler handed it to a worker.
  kExecuting = 2,   // Worker entered the kernel for it.
  kSuspended = 3,   // Kernel parked it on cold blocks (a=block, b=count).
  kParked = 4,      // Scheduler parked the session on the fetch.
  kFetchStarted = 5,  // Fetcher began a provider read (a=block, b=count).
  kFetchDone = 6,     // Provider read settled (a=ok, b=wall_us).
  kUnparked = 7,      // Fetch completion made the session runnable.
  kResumed = 8,       // Worker re-entered the kernel after a stall.
  kCompleted = 9,     // Quantum finished (a=latency_us, b=missed).
  kShed = 10,         // Quantum dropped (a=reason, see ShedReason).
  kPartial = 11,      // Answered coarsely at deadline pressure.
  kRefined = 12,      // Refinement landed (a=latency_us, b=late).
};

/// a-tag of a kShed event.
enum class ShedReason : std::int64_t {
  kLate = 0,         // Popped hopelessly past its deadline.
  kFetchFailed = 1,  // Awaited fetch failed past bounded retries.
  kAdmission = 2,    // Rejected at admission (session queue overflow).
};

const char* SpanStageName(SpanStage stage);

/// One lifecycle transition. quantum == 0 for events that cannot be
/// attributed to a single quantum (fetch-queue reads serve whole sessions;
/// their session field carries the FetchQueue owner/tag instead).
struct SpanEvent {
  std::uint64_t ticket = 0;  // Global sequence, 1-based; orders events.
  std::int64_t t_us = 0;     // server::SteadyNowUs() timebase.
  std::int64_t quantum = 0;
  std::int64_t session = 0;
  SpanStage stage = SpanStage::kSubmitted;
  std::int64_t a = 0;  // Stage-specific detail (block, latency, ...).
  std::int64_t b = 0;
};

/// Compact per-quantum roll-up retained for the slowest completions.
struct SlowQuantumExemplar {
  std::int64_t quantum = 0;
  std::int64_t session = 0;
  std::int64_t e2e_us = 0;
  std::int64_t queue_wait_us = 0;
  std::int64_t exec_us = 0;
  std::int64_t fetch_stall_us = 0;
  bool missed = false;
};

struct TraceRecorderConfig {
  /// Ring capacity in events; rounded up to a power of two.
  std::size_t capacity = 1 << 14;
  /// Slowest completed quanta retained past wraparound.
  int max_exemplars = 32;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceRecorderConfig& config = {});

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Hot path: one fetch_add, one CAS + seven release stores. Safe from
  /// any thread.
  void Record(SpanStage stage, std::int64_t quantum, std::int64_t session,
              std::int64_t a = 0, std::int64_t b = 0);

  /// Offers a completed quantum's roll-up for exemplar retention.
  void NoteCompletion(const SlowQuantumExemplar& exemplar);

  /// Consistent-read copy of the ring, oldest first. Torn slots (being
  /// rewritten during the copy) are skipped.
  std::vector<SpanEvent> Snapshot() const;

  std::vector<SlowQuantumExemplar> Exemplars() const;

  /// Events recorded since construction (>= capacity means wrapped).
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Events dropped because a concurrent writer held (or had already
  /// refilled) their slot — only possible when writers lap the ring.
  std::uint64_t lost() const { return lost_.load(std::memory_order_relaxed); }

  /// Full postmortem document: config, counters, every live span event and
  /// the slow-quantum exemplars.
  void DumpJson(JsonWriter& writer) const;
  std::string DumpJson() const;

 private:
  /// Ticket of a slot a writer has claimed and is filling.
  static constexpr std::uint64_t kWriting = ~std::uint64_t{0};

  struct Slot {
    /// 0 = never written, kWriting = being filled, otherwise 1 + the
    /// event's global index. Written (release) after the payload fields,
    /// re-checked by readers.
    std::atomic<std::uint64_t> ticket{0};
    std::atomic<std::int64_t> t_us{0};
    std::atomic<std::int64_t> quantum{0};
    std::atomic<std::int64_t> session{0};
    std::atomic<std::uint8_t> stage{0};
    std::atomic<std::int64_t> a{0};
    std::atomic<std::int64_t> b{0};
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> lost_{0};

  mutable std::mutex exemplar_mu_;
  std::vector<SlowQuantumExemplar> exemplars_;
  int max_exemplars_;
  /// Fast-path filter: e2e of the K-th worst retained exemplar; a
  /// completion below it skips the mutex entirely.
  std::atomic<std::int64_t> exemplar_floor_{-1};
};

}  // namespace dbtouch::obs

#endif  // DBTOUCH_OBS_TRACE_RECORDER_H_
