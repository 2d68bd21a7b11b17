// BufferManager: the server-wide buffer pool for base data that does not
// live in RAM. Column data lives in fixed-size blocks owned by a payload-
// holding BlockCache (pin/unpin, byte budget, gesture-aware scan-bypass
// admission), keyed by (table, column, block) and faulted in from a
// pluggable BlockProvider — spill files (FileBlockProvider) or a remote
// tier (RemoteBlockProvider). Resident tables do not go through the pool:
// core::SharedState hands out their zero-copy Table::PagedColumnAt
// sources, so the pool never holds a second copy of in-memory data.
//
// The memory bound lives in the cache's frames (cache/frame.h): every
// fault — an inline fill, a Preload run, a FetchQueue fetch — reads
// straight into recycled page-aligned frames that then move into the
// cache, so the pool maps about budget_bytes plus the staging pad, not
// a heap grown by per-fetch payload buffers.
//
// One BufferManager serves every session of a SharedState, so concurrent
// sessions share one bounded memory footprint; per-object access goes
// through storage::PagedColumnSource handles this class hands out, which
// kernels and exec operators consume without knowing whether the bytes
// are cached copies or zero-copy views.
//
// Thread-safety: the binding registry is mutex-guarded; pins go to the
// sharded BlockCache. Handed-out sources must not outlive the manager
// (the SharedState owns both the manager and, transitively, the kernels
// holding sources).

#ifndef DBTOUCH_CACHE_BUFFER_MANAGER_H_
#define DBTOUCH_CACHE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "cache/block_cache.h"
#include "cache/block_provider.h"
#include "cache/fetch_queue.h"
#include "common/result.h"
#include "storage/paged_column.h"
#include "storage/table.h"

namespace dbtouch::cache {

struct BufferManagerConfig {
  /// Byte budget for resident (retained) block payloads.
  std::int64_t budget_bytes = 64ll << 20;
  /// Rows per block. 16K rows of an 8-byte column = 128 KiB blocks.
  std::int64_t rows_per_block = 16'384;
  /// Gesture-aware scan-bypass admission (see BlockCache).
  bool gesture_aware = true;
  int scan_run_length = 8;
  /// BlockCache shards; the touch server raises this so workers pinning
  /// different blocks do not contend.
  int shards = 1;
  /// Async fetch pipeline for slow (async()) providers: misses probed via
  /// TryPinBlock go to a FetchQueue instead of blocking the pinning
  /// thread. Off = every fault fills synchronously under the shard lock
  /// (the pre-PR-3 behaviour, kept for A/B benchmarking).
  bool async_fetch = true;
  FetchQueueConfig fetch;
  /// Cap on unclaimed async completions (see BlockCache::Config).
  std::int64_t staged_cap_bytes = 0;
};

class BufferManager {
 public:
  explicit BufferManager(const BufferManagerConfig& config = {});
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// A paged source copying `table.column` into this pool through an
  /// auto-created TableBlockProvider, for a private pool over a resident
  /// table (serving reads resident tables in place). Binding is by table
  /// name + column and pinned to the table's identity: re-registering the
  /// name with new contents rebinds under a fresh block namespace, so
  /// stale cached blocks can never serve the new data. The provider (and
  /// its row-count snapshot) is shared by every source of the binding.
  Result<std::shared_ptr<storage::PagedColumnSource>> ColumnSource(
      const std::shared_ptr<storage::Table>& table, std::size_t column);

  /// A paged source over an explicit provider registered under
  /// `name.column` — the remote cold-tier path and the test seam. Repeat
  /// calls with the same (name, column, provider) share cached blocks;
  /// a different provider rebinds.
  std::shared_ptr<storage::PagedColumnSource> SourceFor(
      const std::string& name, std::size_t column,
      std::shared_ptr<BlockProvider> provider);

  /// A paged source over schema column `column` of a PAX multi-column
  /// provider (provider->pax_layout() != nullptr). Every column of `name`
  /// binds to ONE shared owner and block namespace: a block pinned for
  /// any column is resident for all of them, so a fat-table tuple probe
  /// costs one fault instead of one per attribute. Sources of the same
  /// binding report one share_token(), which is how the kernel's stall
  /// dedup knows two attribute cursors wait on the same payload.
  Result<std::shared_ptr<storage::PagedColumnSource>> PaxSourceFor(
      const std::string& name, std::size_t column,
      std::shared_ptr<BlockProvider> provider);

  /// Gesture pause: interest in the current region, admission resumes.
  void OnGesturePause() { cache_.OnGesturePause(); }

  BlockCacheStats stats() const { return cache_.stats(); }
  std::int64_t resident_bytes() const { return cache_.resident_bytes(); }
  bool in_scan_mode() const { return cache_.in_scan_mode(); }
  const BufferManagerConfig& config() const { return config_; }

  bool async_enabled() const { return config_.async_fetch; }
  /// Stats of the async fetch pipeline (zeros when async_fetch is off or
  /// no async provider was ever bound).
  FetchQueueStats fetch_stats() const;
  /// Retries spent by synchronous (inline) fills — the blocking fallback
  /// path shares the queue's retry policy.
  std::int64_t sync_fetch_retries() const {
    return sync_retries_.load(std::memory_order_relaxed);
  }
  /// Ranged reads issued by the blocking Preload path (and the blocks
  /// they covered); the async queue's coalescing is counted in
  /// fetch_stats().ranged_reads.
  std::int64_t sync_ranged_reads() const {
    return sync_ranged_reads_.load(std::memory_order_relaxed);
  }
  std::int64_t sync_ranged_blocks() const {
    return sync_ranged_blocks_.load(std::memory_order_relaxed);
  }
  /// Smoothed per-block cold-fetch wall (us) from the async pipeline; 0
  /// until a fetch settles (or when async_fetch is off). Lock-free — the
  /// touch server reads it per quantum to extend refinement deadlines by
  /// *measured* tier latency.
  std::int64_t ewma_block_fetch_us() const {
    const FetchQueue* queue = fetch_queue();
    return queue == nullptr ? 0 : queue->ewma_block_fetch_us();
  }

  /// Claimed-before-eviction score of prefetch warm-ups: claims /
  /// (claims + staged evictions) over the cache's lifetime; 1.0 while no
  /// warm-up has been claimed or dropped yet (no evidence against the
  /// configured horizon).
  double prefetch_claim_rate() const {
    const BlockCacheStats s = cache_.stats();
    const std::int64_t total =
        s.prefetch_staged_claims + s.prefetch_staged_evictions;
    return total == 0 ? 1.0
                      : static_cast<double>(s.prefetch_staged_claims) /
                            static_cast<double>(total);
  }

  /// Retracts still-queued demand fetches enqueued under `tag` (the touch
  /// server's session id) — see FetchQueue::CancelTagged. Returns the
  /// number of queued fetches dropped.
  std::size_t CancelFetches(std::uint64_t tag);
  /// Blocks until no async fetch is queued or in flight (tests).
  void WaitForFetches();

  /// Wires span tracing into the async fetch pipeline (see
  /// FetchQueue::set_trace_recorder). The queue is created lazily on the
  /// first async binding, so the recorder is remembered and handed over
  /// whenever creation happens; safe before or after. Null = off.
  void SetTraceRecorder(obs::TraceRecorder* recorder);

 private:
  class Source;
  class PaxSource;

  struct Binding {
    const void* identity = nullptr;
    std::uint64_t owner = 0;
    std::shared_ptr<BlockProvider> provider;
  };

  /// The binding for (name, column): reused while `identity` (provider or
  /// table) is unchanged; rebound with a fresh owner id — and `provider`
  /// — when it changed.
  Binding BindOwner(const std::string& name, std::size_t column,
                    const void* identity,
                    std::shared_ptr<BlockProvider> provider);

  /// The fetch queue, created on the first binding of an async()
  /// provider — a manager serving only in-memory tables (every private
  /// kernel SharedState) never pays the fetcher threads. Non-null iff
  /// created; readers load the atomic, the owner keeps it alive.
  FetchQueue* fetch_queue() const {
    return fetch_queue_ptr_.load(std::memory_order_acquire);
  }
  /// Creates the queue once (caller holds mu_ or tolerates call_once).
  void EnsureFetchQueue();

  BufferManagerConfig config_;
  BlockCache cache_;
  /// Fetchers deliver into cache_, so they must stop first: declared after
  /// cache_ (destroyed before it), shut down explicitly in ~BufferManager.
  std::once_flag fetch_queue_once_;
  std::unique_ptr<FetchQueue> fetch_queue_;
  std::atomic<FetchQueue*> fetch_queue_ptr_{nullptr};
  /// Recorder to hand the queue at (lazy) creation; see SetTraceRecorder.
  std::atomic<obs::TraceRecorder*> trace_recorder_{nullptr};
  std::atomic<std::int64_t> sync_retries_{0};
  std::atomic<std::int64_t> sync_ranged_reads_{0};
  std::atomic<std::int64_t> sync_ranged_blocks_{0};
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::size_t>, Binding> bindings_;
  std::uint64_t next_owner_ = 1;
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_BUFFER_MANAGER_H_
