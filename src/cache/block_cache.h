// Gesture-aware block cache: "caching can be exploited such that dbTouch
// is ready if the user decides to re-examine a data area already seen.
// dbTouch needs to observe the gesture patterns and adjust the caching
// policy" (Section 2.6 "Caching Data").
//
// The cache owns block payloads under a byte budget with pin/unpin: a
// pinned block's bytes stay valid (and the block cannot be evicted) until
// every pin releases. Payloads live in page-aligned frames from the
// cache's FramePool (cache/frame.h), which is where the memory bound is
// held: an evicted or released payload's frame is recycled for the next
// fault, and the pool keeps at most capacity_bytes + staged cap mapped
// once frames are released, unmapping the rest. Retention is LRU with one gesture-derived
// refinement: steady one-directional slides are scans — retaining their
// blocks just evicts data the user might return to — so admission is
// bypassed while the gesture is in "scan" mode and re-enabled when the
// gesture reverses or pauses (both signals that the user is interested in
// the current region). A bypassed (or budget-rejected) block is served as
// a transient: materialised for its pins, freed when the last pin drops,
// never counted against the resident budget.
//
// Invariant: resident_bytes (retained payloads) never exceeds
// Config::capacity_bytes — admission evicts unpinned victims to make room
// and falls back to transient service when pins leave no room.
//
// Concurrency: entries are split across `Config::shards` shards, each
// guarded by its own mutex, so server workers touching different blocks
// rarely contend. Miss fills run under the shard mutex, serialising
// concurrent faults of one block (single fetch, no duplicate payloads).
// The gesture/direction detector is keyed per owner (one model per bound
// column) under its own small mutex.

#ifndef DBTOUCH_CACHE_BLOCK_CACHE_H_
#define DBTOUCH_CACHE_BLOCK_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/frame.h"
#include "common/result.h"
#include "storage/types.h"

namespace dbtouch::cache {

/// Identity of one cached block: `owner` names a bound (table, column)
/// pairing (ids handed out by the BufferManager), `block` the block index
/// within that column.
struct BlockKey {
  std::uint64_t owner = 0;
  std::int64_t block = 0;

  friend bool operator==(const BlockKey&, const BlockKey&) = default;
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const {
    // splitmix-style mix of the two words.
    std::uint64_t x = k.owner * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(k.block);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return static_cast<std::size_t>(x * 0x94d049bb133111ebULL);
  }
};

struct BlockCacheStats {
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  /// Misses that materialised a payload — via the caller's filler (sync
  /// path) or an adopted async completion (Insert).
  std::int64_t faults = 0;
  std::int64_t admissions = 0;
  std::int64_t bypasses = 0;           // Retention skipped in scan mode.
  std::int64_t budget_rejections = 0;  // Pins left no evictable room.
  std::int64_t evictions = 0;
  /// TryPin misses — the would-block signal driving async fetches.
  std::int64_t would_block = 0;
  /// Async completions adopted via Insert / dropped as already present.
  std::int64_t inserts = 0;
  std::int64_t insert_duplicates = 0;
  /// Staged (unclaimed async) blocks evicted by the staging cap.
  std::int64_t staged_evictions = 0;
  /// Prefetch warm-up outcomes: staged warm-ups claimed by a pin before
  /// eviction vs dropped unclaimed. Their ratio is the claimed-before-
  /// eviction score fed back into the extrapolator's horizon — warm-ups
  /// that keep dying unclaimed mean the horizon outruns the cache.
  std::int64_t prefetch_staged_claims = 0;
  std::int64_t prefetch_staged_evictions = 0;
  std::int64_t staged_blocks = 0;  // Gauge.
  std::int64_t staged_bytes = 0;   // Gauge.
  /// Gauges (a coherent snapshot at stats() time).
  std::int64_t pinned_blocks = 0;
  std::int64_t resident_blocks = 0;
  std::int64_t resident_bytes = 0;
  /// Sum of per-shard high-water marks: an upper bound on the true
  /// simultaneous peak (shards may peak at different times), and always
  /// <= capacity_bytes.
  std::int64_t peak_resident_bytes = 0;
  /// Frame pool: bytes mapped now (payload frames in use plus recycled
  /// spares) and its high-water mark — the pool's real memory footprint,
  /// frames rounded up to whole pages — and frames mapped over the
  /// cache's lifetime (fills the free list could not serve).
  std::int64_t frame_bytes = 0;
  std::int64_t peak_frame_bytes = 0;
  std::int64_t frame_maps = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class BlockCache {
 public:
  struct Config {
    /// Byte budget for retained payloads (the bounded-memory contract).
    std::int64_t capacity_bytes = 64ll << 20;
    /// Enables the gesture-aware scan-bypass policy; false = plain LRU.
    bool gesture_aware = true;
    /// Consecutive same-direction block transitions after which the
    /// stream is treated as a scan.
    int scan_run_length = 8;
    /// Number of independently locked shards. 1 (the default) keeps the
    /// exact global-LRU eviction order; the touch server raises it so
    /// concurrent sessions touching different blocks do not contend.
    /// Shard budgets sum to exactly capacity_bytes.
    int shards = 1;
    /// Byte cap (per cache, split across shards) on *staged* payloads:
    /// async completions parked by Insert until their first pin claims
    /// them. Staged bytes live outside the resident budget — they are the
    /// landing pad that makes suspend/resume race-free — so they get their
    /// own small bound; the oldest unclaimed block is dropped when a new
    /// completion would exceed it. 0 = capacity_bytes / 8.
    std::int64_t staged_cap_bytes = 0;
  };

  /// Produces a block's payload on a miss, in a frame from frames().
  /// Runs under the shard mutex.
  using Filler = std::function<Result<Frame>()>;

  /// What Pin hands back; `data` stays valid until the matching Unpin.
  struct Pinned {
    const std::byte* data = nullptr;
    std::size_t size = 0;
    bool hit = false;       // Served from a resident payload.
    bool retained = false;  // Will stay resident after the last unpin.
  };

  explicit BlockCache(const Config& config);

  /// Pins `key`, materialising it via `fill` on a miss. `row` is the base
  /// row whose touch drives the read; it feeds the per-owner direction
  /// detector (pass -1 for reads no gesture drives — admission then
  /// follows the current mode). Every successful Pin must be matched by
  /// exactly one Unpin.
  Result<Pinned> Pin(const BlockKey& key, storage::RowId row,
                     const Filler& fill);
  void Unpin(const BlockKey& key);

  /// Non-blocking pin: returns the pinned block if its payload is resident
  /// (retained, transient with live pins, or staged by an async
  /// completion), nullopt on a miss — never runs a filler. The async read
  /// path probes with this and schedules a FetchQueue fetch on nullopt.
  std::optional<Pinned> TryPin(const BlockKey& key, storage::RowId row);

  /// Adopts an asynchronously fetched payload. The block is *staged*: kept
  /// resident outside the LRU until its first pin claims it (the claim
  /// then runs normal admission, so a claimed demand block is retained
  /// when the budget allows). Unclaimed staged bytes are bounded by
  /// Config::staged_cap_bytes so completions for sessions that died
  /// cannot leak; eviction takes the oldest prefetch warm-up first and
  /// touches `demand`-staged blocks — a session is parked on each of
  /// those — only when warm-ups alone cannot make room. A payload already
  /// present (e.g. a racing synchronous fill) is dropped.
  void Insert(const BlockKey& key, Frame payload, bool demand = false);

  /// The pool fills and fetches take their frames from. Frames must be
  /// released before the cache is destroyed.
  FramePool& frames() { return frames_; }

  /// Signals that the gesture paused — interest in the current region, so
  /// admission resumes. The one-argument form resets only that owner's
  /// detector (one session's finger-lift must not cancel another
  /// session's scan on a different column); the no-argument form resets
  /// every owner (tests, global quiesce).
  void OnGesturePause();
  void OnGesturePause(std::uint64_t owner);

  /// Drops the owner's gesture detector (the owner id was retired — e.g.
  /// its table re-registered). Its blocks age out of the LRU naturally.
  void ForgetOwner(std::uint64_t owner);

  /// True while the block's payload is resident (retained, or transient
  /// with live pins).
  bool Contains(const BlockKey& key) const;
  /// Retained blocks / bytes across all shards.
  std::int64_t size() const;
  std::int64_t resident_bytes() const;
  /// Aggregated over all shards; a coherent snapshot, not a live reference.
  BlockCacheStats stats() const;
  /// True if any owner's access stream is currently in scan mode.
  bool in_scan_mode() const;

  const Config& config() const { return config_; }

 private:
  struct Entry {
    Frame payload;
    int pins = 0;
    bool retained = false;
    /// Unclaimed async completion; mutually exclusive with retained.
    bool staged = false;
    /// Staged at demand priority (a suspended session awaits the claim).
    bool staged_demand = false;
    std::list<BlockKey>::iterator lru_it;     // Valid iff retained.
    std::list<BlockKey>::iterator staged_it;  // Valid iff staged.
  };

  struct Shard {
    mutable std::mutex mu;
    std::int64_t capacity_bytes = 0;
    std::int64_t resident_bytes = 0;
    std::int64_t pinned_blocks = 0;
    std::int64_t staged_bytes = 0;
    std::int64_t staged_cap_bytes = 0;
    std::list<BlockKey> lru;  // Front = most recent; retained entries only.
    std::list<BlockKey> staged_fifo;  // Front = oldest unclaimed completion.
    std::unordered_map<BlockKey, Entry, BlockKeyHash> map;
    BlockCacheStats stats;
  };

  /// Per-owner gesture/direction state: models the finger driving reads of
  /// one bound column.
  struct Detector {
    storage::RowId last_row = -1;
    int direction = 0;  // +1 / -1 / 0 unknown.
    int scan_run = 0;
  };

  Shard& ShardFor(const BlockKey& key) const {
    return *shards_[BlockKeyHash{}(key) % shards_.size()];
  }
  /// Caller holds the shard mutex. Evicts unpinned LRU victims until
  /// `need` more bytes fit; false if pins make that impossible.
  bool MakeRoom(Shard& shard, std::int64_t need);
  /// Caller holds the shard mutex. Pins a resident entry (the shared hit
  /// path of Pin and TryPin); a staged entry is claimed here — pulled off
  /// the staging list and promoted to retained when admission allows.
  Pinned PinHitLocked(Shard& shard, const BlockKey& key, Entry& entry,
                      bool bypassing);
  /// Caller holds the shard mutex.
  void TouchLru(Shard& shard, const BlockKey& key, Entry& entry);
  /// Updates the owner's detector with this access; returns whether
  /// admission is currently bypassed.
  bool UpdateGesture(const BlockKey& key, storage::RowId row);

  Config config_;
  /// Declared before the shards: their entries release frames into it.
  FramePool frames_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex gesture_mu_;
  std::unordered_map<std::uint64_t, Detector> detectors_;
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_BLOCK_CACHE_H_
