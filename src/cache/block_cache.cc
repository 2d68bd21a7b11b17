#include "cache/block_cache.h"

#include <algorithm>

#include "common/macros.h"

namespace dbtouch::cache {

namespace {

std::int64_t ShardStagedCap(const BlockCache::Config& config) {
  const std::int64_t staged_cap = config.staged_cap_bytes > 0
                                      ? config.staged_cap_bytes
                                      : config.capacity_bytes / 8;
  return std::max<std::int64_t>(staged_cap / std::max(config.shards, 1), 1);
}

}  // namespace

BlockCache::BlockCache(const Config& config)
    : config_(config),
      // Retained plus staged payloads are what the cache holds between
      // faults; spares beyond that are unmapped as they are released.
      frames_(config.capacity_bytes +
              ShardStagedCap(config) * std::max(config.shards, 1)) {
  DBTOUCH_CHECK(config.capacity_bytes >= 0);
  DBTOUCH_CHECK(config.shards > 0);
  const int shards = config.shards;
  const std::int64_t base = config.capacity_bytes / shards;
  const std::int64_t remainder = config.capacity_bytes % shards;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity_bytes = base + (i < remainder ? 1 : 0);
    shard->staged_cap_bytes = ShardStagedCap(config);
    shards_.push_back(std::move(shard));
  }
}

bool BlockCache::UpdateGesture(const BlockKey& key, storage::RowId row) {
  const std::lock_guard<std::mutex> lock(gesture_mu_);
  Detector& d = detectors_[key.owner];
  if (row >= 0) {
    if (d.last_row >= 0 && row != d.last_row) {
      const int dir = row > d.last_row ? 1 : -1;
      if (dir == d.direction) {
        ++d.scan_run;
      } else {
        d.direction = dir;
        d.scan_run = 0;  // Reversal: user re-examining — cache again.
      }
    }
    d.last_row = row;
  }
  return config_.gesture_aware && d.scan_run >= config_.scan_run_length;
}

BlockCache::Pinned BlockCache::PinHitLocked(Shard& shard, const BlockKey& key,
                                            Entry& entry, bool bypassing) {
  ++shard.stats.hits;
  if (entry.pins++ == 0) {
    ++shard.pinned_blocks;
  }
  if (entry.staged) {
    // First claim of an async completion: leave the staging pad and run
    // normal admission, so an awaited block is retained when room exists.
    if (!entry.staged_demand) {
      ++shard.stats.prefetch_staged_claims;  // Warm-up paid off.
    }
    entry.staged = false;
    entry.staged_demand = false;
    shard.staged_fifo.erase(entry.staged_it);
    const auto size = static_cast<std::int64_t>(entry.payload.size());
    shard.staged_bytes -= size;
    if (!bypassing && MakeRoom(shard, size)) {
      entry.retained = true;
      shard.lru.push_front(key);
      entry.lru_it = shard.lru.begin();
      shard.resident_bytes += size;
      shard.stats.peak_resident_bytes =
          std::max(shard.stats.peak_resident_bytes, shard.resident_bytes);
      ++shard.stats.admissions;
    } else if (bypassing) {
      ++shard.stats.bypasses;
    } else {
      ++shard.stats.budget_rejections;
    }
  } else if (entry.retained) {
    TouchLru(shard, key, entry);
  }
  return Pinned{entry.payload.data(), entry.payload.size(), true,
                entry.retained};
}

Result<BlockCache::Pinned> BlockCache::Pin(const BlockKey& key,
                                           storage::RowId row,
                                           const Filler& fill) {
  const bool bypassing = UpdateGesture(key, row);

  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.stats.lookups;
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    return PinHitLocked(shard, key, it->second, bypassing);
  }

  // Miss: materialise under the shard lock (concurrent faults of one
  // block serialise into a single fetch).
  ++shard.stats.faults;
  DBTOUCH_ASSIGN_OR_RETURN(Frame payload, fill());
  const auto size = static_cast<std::int64_t>(payload.size());

  Entry entry;
  entry.payload = std::move(payload);
  entry.pins = 1;
  ++shard.pinned_blocks;
  if (!bypassing && MakeRoom(shard, size)) {
    entry.retained = true;
    shard.lru.push_front(key);
    entry.lru_it = shard.lru.begin();
    shard.resident_bytes += size;
    shard.stats.peak_resident_bytes =
        std::max(shard.stats.peak_resident_bytes, shard.resident_bytes);
    ++shard.stats.admissions;
  } else if (bypassing) {
    ++shard.stats.bypasses;
  } else {
    ++shard.stats.budget_rejections;
  }
  const auto [ins, ok] = shard.map.emplace(key, std::move(entry));
  DBTOUCH_CHECK(ok);
  Entry& stored = ins->second;
  return Pinned{stored.payload.data(), stored.payload.size(), false,
                stored.retained};
}

void BlockCache::Unpin(const BlockKey& key) {
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  DBTOUCH_CHECK(it != shard.map.end());
  Entry& entry = it->second;
  DBTOUCH_CHECK(entry.pins > 0);
  if (--entry.pins == 0) {
    --shard.pinned_blocks;
    if (!entry.retained) {
      shard.map.erase(it);  // Transient: freed with its last pin.
    }
  }
}

std::optional<BlockCache::Pinned> BlockCache::TryPin(const BlockKey& key,
                                                     storage::RowId row) {
  const bool bypassing = UpdateGesture(key, row);

  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.stats.lookups;
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.stats.would_block;
    return std::nullopt;
  }
  return PinHitLocked(shard, key, it->second, bypassing);
}

void BlockCache::Insert(const BlockKey& key, Frame payload, bool demand) {
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.count(key) > 0) {
    // A synchronous fill (or a duplicate completion) beat us to it.
    ++shard.stats.insert_duplicates;
    return;
  }
  const auto size = static_cast<std::int64_t>(payload.size());
  // Make room on the staging pad. Oldest prefetch warm-ups go first; a
  // demand-staged block — some session is parked until it claims it — is
  // evicted only when warm-ups alone cannot make room, so prefetch churn
  // cannot force a suspended session to re-fetch its own answer. (Staged
  // entries are never pinned — a pin claims them off the pad.)
  const auto evict = [&](bool spare_demand) {
    for (auto it = shard.staged_fifo.begin();
         it != shard.staged_fifo.end(); ++it) {
      const auto vit = shard.map.find(*it);
      DBTOUCH_CHECK(vit != shard.map.end());
      if (spare_demand && vit->second.staged_demand) {
        continue;
      }
      if (!vit->second.staged_demand) {
        ++shard.stats.prefetch_staged_evictions;  // Warm-up died unclaimed.
      }
      shard.staged_bytes -=
          static_cast<std::int64_t>(vit->second.payload.size());
      shard.staged_fifo.erase(it);
      shard.map.erase(vit);
      ++shard.stats.staged_evictions;
      return true;
    }
    return false;
  };
  while (shard.staged_bytes + size > shard.staged_cap_bytes &&
         !shard.staged_fifo.empty()) {
    if (!evict(/*spare_demand=*/true) && !evict(/*spare_demand=*/false)) {
      break;
    }
  }
  ++shard.stats.inserts;
  // An adopted completion IS the materialisation of an async miss: count
  // it as a fault so cold-tier fault/hit accounting agrees across the
  // sync (Pin-filler) and async (FetchQueue) paths.
  ++shard.stats.faults;
  Entry entry;
  entry.payload = std::move(payload);
  entry.staged = true;
  entry.staged_demand = demand;
  shard.staged_fifo.push_back(key);
  entry.staged_it = std::prev(shard.staged_fifo.end());
  shard.staged_bytes += size;
  const auto [ins, ok] = shard.map.emplace(key, std::move(entry));
  DBTOUCH_CHECK(ok);
}

void BlockCache::OnGesturePause() {
  const std::lock_guard<std::mutex> lock(gesture_mu_);
  for (auto& [owner, detector] : detectors_) {
    detector.scan_run = 0;
  }
}

void BlockCache::OnGesturePause(std::uint64_t owner) {
  const std::lock_guard<std::mutex> lock(gesture_mu_);
  const auto it = detectors_.find(owner);
  if (it != detectors_.end()) {
    it->second.scan_run = 0;
  }
}

void BlockCache::ForgetOwner(std::uint64_t owner) {
  const std::lock_guard<std::mutex> lock(gesture_mu_);
  detectors_.erase(owner);
}

bool BlockCache::Contains(const BlockKey& key) const {
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  return shard.map.count(key) > 0;
}

std::int64_t BlockCache::size() const {
  std::int64_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    total += static_cast<std::int64_t>(shard->lru.size());
  }
  return total;
}

std::int64_t BlockCache::resident_bytes() const {
  std::int64_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->resident_bytes;
  }
  return total;
}

BlockCacheStats BlockCache::stats() const {
  BlockCacheStats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    total.lookups += shard->stats.lookups;
    total.hits += shard->stats.hits;
    total.faults += shard->stats.faults;
    total.admissions += shard->stats.admissions;
    total.bypasses += shard->stats.bypasses;
    total.budget_rejections += shard->stats.budget_rejections;
    total.evictions += shard->stats.evictions;
    total.would_block += shard->stats.would_block;
    total.inserts += shard->stats.inserts;
    total.insert_duplicates += shard->stats.insert_duplicates;
    total.staged_evictions += shard->stats.staged_evictions;
    total.prefetch_staged_claims += shard->stats.prefetch_staged_claims;
    total.prefetch_staged_evictions +=
        shard->stats.prefetch_staged_evictions;
    total.staged_blocks +=
        static_cast<std::int64_t>(shard->staged_fifo.size());
    total.staged_bytes += shard->staged_bytes;
    total.pinned_blocks += shard->pinned_blocks;
    total.resident_blocks += static_cast<std::int64_t>(shard->lru.size());
    total.resident_bytes += shard->resident_bytes;
    total.peak_resident_bytes += shard->stats.peak_resident_bytes;
  }
  const FramePoolStats frames = frames_.stats();
  total.frame_bytes = frames.mapped_bytes;
  total.peak_frame_bytes = frames.peak_mapped_bytes;
  total.frame_maps = frames.maps;
  return total;
}

bool BlockCache::in_scan_mode() const {
  const std::lock_guard<std::mutex> lock(gesture_mu_);
  for (const auto& [owner, detector] : detectors_) {
    if (detector.scan_run >= config_.scan_run_length) {
      return true;
    }
  }
  return false;
}

bool BlockCache::MakeRoom(Shard& shard, std::int64_t need) {
  if (need > shard.capacity_bytes) {
    return false;
  }
  while (shard.resident_bytes + need > shard.capacity_bytes) {
    // Coldest unpinned retained block; pinned entries are skipped (and
    // re-skipped next round — pins are few and short-lived).
    auto victim = shard.lru.end();
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      if (shard.map.at(*it).pins == 0) {
        victim = std::prev(it.base());
        break;
      }
    }
    if (victim == shard.lru.end()) {
      return false;  // Everything left is pinned.
    }
    const auto it = shard.map.find(*victim);
    shard.resident_bytes -=
        static_cast<std::int64_t>(it->second.payload.size());
    shard.lru.erase(victim);
    shard.map.erase(it);
    ++shard.stats.evictions;
  }
  return true;
}

void BlockCache::TouchLru(Shard& shard, const BlockKey& /*key*/,
                          Entry& entry) {
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
  entry.lru_it = shard.lru.begin();
}

}  // namespace dbtouch::cache
