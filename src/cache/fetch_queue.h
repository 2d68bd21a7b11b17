// FetchQueue: the asynchronous block-fetch engine behind the BufferManager.
//
// PR 2 left one latency cliff on the read path: a cold-tier fault ran the
// provider's read synchronously under the shard lock, so one slow remote
// read could stall a worker — and with it every session that worker would
// otherwise serve. The FetchQueue moves those reads onto a small fetcher
// thread pool:
//
//   TryPinBlock (miss) --> Enqueue(demand) ---+
//   Prefetcher slide path --> Enqueue(prefetch)+--> fetcher threads
//                                              |      provider->ReadBlocks
//                                              |      into the cache's
//                                              |      frames (bounded
//                                              |      retries, exponential
//                                              |      backoff)
//                                              v
//                                  Insert(key, frame) --> BlockCache
//                                  completion callbacks --> waiters
//                                                           (scheduler
//                                                            unparks)
//
// Priorities: demand fetches (a session is parked on the answer) always
// pop before prefetch warm-ups (the extrapolated slide path); enqueueing a
// demand request for a block already queued at prefetch priority upgrades
// it in place. Requests for one block coalesce into a single fetch no
// matter how many waiters pile on.
//
// Failure contract: a fetch error is data, not an invariant violation.
// Transient errors (see IsTransientFetchError) are retried up to
// max_retries times with exponential backoff; the final status — OK or the
// last error — is handed to every waiter. Waiters are invoked on fetcher
// threads and must be cheap and non-blocking (the touch server's callback
// just unparks the session).

#ifndef DBTOUCH_CACHE_FETCH_QUEUE_H_
#define DBTOUCH_CACHE_FETCH_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.h"
#include "cache/block_provider.h"
#include "common/result.h"
#include "common/status.h"

namespace dbtouch::obs {
class TraceRecorder;
}  // namespace dbtouch::obs

namespace dbtouch::cache {

enum class FetchPriority : std::uint8_t {
  kPrefetch = 0,  // Warm-up along the extrapolated slide path.
  kDemand = 1,    // A quantum is suspended on this block.
};

struct FetchQueueConfig {
  /// Fetcher threads. Cold-tier reads are latency- not CPU-bound, so a
  /// couple of threads overlap many outstanding fetches.
  int num_fetchers = 2;
  /// Retries after the first attempt for transient errors.
  int max_retries = 3;
  /// Backoff before retry k is backoff_us << k (exponential).
  std::int64_t retry_backoff_us = 200;
  /// Batched demand fetches: when the popped request has queued
  /// neighbours (same owner, adjacent block indices, not yet in flight),
  /// up to this many blocks are merged into one provider ReadBlocks — a
  /// cold summary band costs one round trip instead of N. <= 1 disables
  /// coalescing.
  int max_coalesce_blocks = 16;
};

struct FetchQueueStats {
  std::int64_t demand_enqueued = 0;
  std::int64_t prefetch_enqueued = 0;
  /// Enqueues absorbed by an already-queued/in-flight fetch of the block.
  std::int64_t coalesced = 0;
  /// Prefetch requests re-prioritised by a later demand enqueue.
  std::int64_t upgraded = 0;
  std::int64_t completed = 0;
  std::int64_t retries = 0;
  /// Fetches that exhausted retries (or hit a permanent error).
  std::int64_t failures = 0;
  /// Queued-not-in-flight demand requests dropped by CancelTagged (a
  /// session closed before its fetch started).
  std::int64_t cancelled = 0;
  /// In-flight fetches whose retry loop CancelTagged cut short: the
  /// session parked on them closed, so the read was capped at the attempt
  /// already running instead of a full retry budget.
  std::int64_t aborted = 0;
  /// Pre-formed ranged warm-up tickets (EnqueueRange runs of >= 2 blocks):
  /// the extrapolator's horizon expressed as single ReadBlocks calls, no
  /// pop-time re-merging involved.
  std::int64_t prefetch_ranges = 0;
  /// Coalesced provider calls: ReadBlocks calls spanning >= 2
  /// adjacent blocks, and the blocks they covered. completed counts every
  /// block, so (completed - ranged_blocks + ranged_reads) is the number
  /// of provider round trips actually paid.
  std::int64_t ranged_reads = 0;
  std::int64_t ranged_blocks = 0;
  /// Payload bytes delivered by the fetchers (bytes faulted in from the
  /// cold tier — disk or remote).
  std::int64_t bytes_fetched = 0;
  /// Wall time inside provider fetches, including retries + backoff.
  std::int64_t fetch_wall_us = 0;
  std::int64_t max_fetch_wall_us = 0;
  /// Smoothed per-block fetch wall (us) — the live estimate of what one
  /// cold block costs on this tier right now. 0 until a fetch settles.
  /// The scheduler extends deadlines of refinement quanta by exactly this
  /// measured latency, never by a guess.
  std::int64_t ewma_block_fetch_us = 0;
};

/// True for error codes worth retrying: the transport may deliver on the
/// next attempt (lost response, backpressure, timeout). Invariant-shaped
/// errors (OutOfRange, InvalidArgument, ...) are permanent.
bool IsTransientFetchError(const Status& status);

/// Reads blocks [first_block, first_block + frames.size()) of `provider`
/// into `frames` (one provider ReadBlocks per attempt) with the queue's
/// retry policy, inline on the calling thread — the synchronous path
/// shares one definition of "retryable read" with the async queue.
/// `retries_out` (optional) accumulates the retries spent. `abort`
/// (optional) is the cancellation latch: once it reads true, the loop
/// returns the current attempt's outcome instead of spending further
/// retries — a cancelled session's read costs at most one attempt, not
/// one full fetch.
Status ReadBlocksWithRetry(BlockProvider& provider, std::int64_t first_block,
                           std::span<Frame> frames,
                           const FetchQueueConfig& config,
                           std::int64_t* retries_out = nullptr,
                           const std::atomic<bool>* abort = nullptr);

class FetchQueue {
 public:
  /// Invoked with the fetch's final status after the payload (if any) was
  /// inserted into the cache — so a waiter that immediately retries its
  /// pin is guaranteed to hit.
  using Completion = std::function<void(const Status&)>;

  /// Fetchers read into frames of `cache` and Insert what they read there,
  /// demand-staged when the fetch was served at demand priority (the
  /// cache shelters those — a session is parked on them — from warm-up
  /// churn). `cache` must outlive the queue.
  FetchQueue(const FetchQueueConfig& config, BlockCache& cache);
  ~FetchQueue();

  FetchQueue(const FetchQueue&) = delete;
  FetchQueue& operator=(const FetchQueue&) = delete;

  /// Requests `block` of `provider`, identified in the cache as `key`.
  /// Coalesces with any queued/in-flight fetch of the same key (a demand
  /// request upgrades a still-queued prefetch). `done` may be null (fire
  /// and forget — the prefetch path). `tag` names the waiter's owner (the
  /// touch server passes the session id) so CancelTagged can retract its
  /// tickets; 0 = untagged. Returns true iff a NEW request was created —
  /// false for coalesced joins and shutdown rejections — so callers
  /// budgeting fetches don't spend their budget on no-ops.
  bool Enqueue(const BlockKey& key, std::shared_ptr<BlockProvider> provider,
               std::int64_t block, FetchPriority priority, Completion done,
               std::uint64_t tag = 0);

  /// Enqueues blocks [first_block, first_block + count) of `owner` as
  /// pre-formed ranged warm-up tickets: each run of blocks with no
  /// existing request becomes ONE prefetch ticket whose fetch is a single
  /// provider ReadBlocks — the predicted slide path rides one backing read
  /// sized by the horizon, with no pop-time re-merging (and no
  /// max_coalesce_blocks cap). Blocks already queued or in flight are
  /// skipped (counted as coalesced). A later demand Enqueue for a block
  /// inside a still-queued ticket splits the ticket around it, so demand
  /// never waits on (or inflates) a warm-up range. Fire-and-forget like
  /// RequestPrefetch; returns the number of blocks actually enqueued.
  std::size_t EnqueueRange(std::uint64_t owner,
                           std::shared_ptr<BlockProvider> provider,
                           std::int64_t first_block, std::int64_t count);

  /// Retracts `tag`'s tickets (a session closed). Waiters of still-queued
  /// requests fail with Aborted, and a demand request left with no
  /// waiters is dropped entirely, so closed sessions stop consuming
  /// cold-tier bandwidth. An IN-FLIGHT fetch whose every covered request
  /// is left waiterless demand gets its abort latch set: the read caps at
  /// the attempt already running instead of a full retry budget (counted
  /// in stats().aborted); fetches other sessions still wait on — and
  /// shared warm-ups — run to completion. Returns the number of queued
  /// requests dropped.
  std::size_t CancelTagged(std::uint64_t tag);

  /// Queued + in-flight fetches.
  std::size_t outstanding() const;

  /// Blocks until no fetch is queued or in flight (tests).
  void WaitIdle();

  /// Stops the fetchers. Queued-but-unstarted requests fail their waiters
  /// with Aborted; in-flight fetches finish first. Idempotent.
  void Shutdown();

  FetchQueueStats stats() const;

  /// Lock-free read of the smoothed per-block fetch wall (us); 0 until a
  /// fetch settles. Safe from the worker hot path.
  std::int64_t ewma_block_fetch_us() const {
    return ewma_block_us_.load(std::memory_order_relaxed);
  }

  /// Trace hook: each provider read the fetchers issue is recorded as a
  /// kFetchStarted/kFetchDone span pair (session field = block owner tag,
  /// a/b = first block + count, then ok + wall micros). Atomic because the
  /// recorder may be wired after the fetcher threads are already running;
  /// null = off.
  void set_trace_recorder(obs::TraceRecorder* recorder) {
    trace_.store(recorder, std::memory_order_release);
  }

 private:
  struct Waiter {
    Completion done;
    std::uint64_t tag = 0;
  };

  struct Request {
    std::shared_ptr<BlockProvider> provider;
    std::int64_t block = 0;
    FetchPriority priority = FetchPriority::kPrefetch;
    bool in_flight = false;
    /// Pre-formed ranged ticket (EnqueueRange): on the head request, how
    /// many consecutive blocks [block, block + range_count) one ReadBlocks
    /// serves. 1 = an ordinary single-block request.
    std::int64_t range_count = 1;
    /// Non-head blocks of a pre-formed ticket: only the head sits in the
    /// prefetch lane; members are findable here (so demand enqueues can
    /// coalesce or split) but never popped directly.
    bool range_member = false;
    std::int64_t head_block = 0;
    /// Cancellation latch shared by every request of one in-flight fetch;
    /// set by CancelTagged, read between retry attempts.
    std::shared_ptr<std::atomic<bool>> abort;
    std::vector<Waiter> waiters;
  };

  void FetcherLoop();
  /// Pops the next runnable key (demand first) or returns false.
  bool PopLocked(BlockKey* key);
  /// Extends the popped `key` with queued adjacent same-owner requests
  /// (same provider, consecutive block indices, not in flight), removing
  /// them from their lanes and marking every gathered request in flight.
  /// A pre-formed ranged ticket is taken whole instead (its size was set
  /// by the prefetch horizon, not max_coalesce_blocks) and never extended.
  /// Returns the keys in ascending block order; size 1 = no coalescing.
  std::vector<BlockKey> GatherRangeLocked(const BlockKey& key);
  /// Carves `key` out of the pre-formed ranged ticket covering it (no-op
  /// for ordinary requests): the ticket splits into up to two shorter
  /// tickets around `key`, which becomes a standalone queued-nowhere
  /// request the caller may re-lane. Only valid while nothing is in
  /// flight for the ticket.
  void DetachFromRangeLocked(const BlockKey& key);
  /// Completes `keys` (all in flight, ascending adjacent blocks) with the
  /// outcome of one fetch: on success frame i — block keys[i] — is
  /// inserted into the cache before any waiter runs; on failure the
  /// frames go back to the pool. Reacquires `lock` before returning.
  void SettleFetch(std::unique_lock<std::mutex>& lock,
                   const std::vector<BlockKey>& keys, const Status& status,
                   std::vector<Frame> frames, std::int64_t retries,
                   std::int64_t wall_us);

  FetchQueueConfig config_;
  BlockCache& cache_;
  std::atomic<obs::TraceRecorder*> trace_{nullptr};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<BlockKey> demand_queue_;
  std::deque<BlockKey> prefetch_queue_;
  std::unordered_map<BlockKey, Request, BlockKeyHash> requests_;
  FetchQueueStats stats_;
  /// Mirror of stats_.ewma_block_fetch_us readable without mu_ (updated
  /// under mu_ in SettleFetch; alpha 0.2 favours stability over reaction).
  std::atomic<std::int64_t> ewma_block_us_{0};
  /// Fetchers currently running waiter callbacks outside the lock;
  /// WaitIdle counts them as outstanding work.
  int active_callbacks_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> fetchers_;
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_FETCH_QUEUE_H_
