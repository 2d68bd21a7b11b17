#include "cache/fetch_queue.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/macros.h"
#include "obs/trace_recorder.h"

namespace dbtouch::cache {

namespace {

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool IsTransientFetchError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kAborted:             // Lost/short response.
    case StatusCode::kResourceExhausted:   // Backpressure.
    case StatusCode::kDeadlineExceeded:    // Timeout.
      return true;
    default:
      return false;
  }
}

Status ReadBlocksWithRetry(BlockProvider& provider, std::int64_t first_block,
                           std::span<Frame> frames,
                           const FetchQueueConfig& config,
                           std::int64_t* retries_out,
                           const std::atomic<bool>* abort) {
  int attempt = 0;
  for (;;) {
    Status status = provider.ReadBlocks(first_block, frames);
    if (status.ok() || !IsTransientFetchError(status) ||
        attempt >= config.max_retries) {
      return status;
    }
    if (abort != nullptr && abort->load(std::memory_order_acquire)) {
      // Cancelled mid-flight: nobody is waiting for this read any more,
      // so return the attempt's outcome instead of burning the remaining
      // retry budget (and its backoff sleeps) on a dead session.
      return status;
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(config.retry_backoff_us << attempt));
    ++attempt;
    if (retries_out != nullptr) {
      ++*retries_out;
    }
  }
}

FetchQueue::FetchQueue(const FetchQueueConfig& config, BlockCache& cache)
    : config_(config), cache_(cache) {
  DBTOUCH_CHECK(config_.num_fetchers > 0);
  fetchers_.reserve(static_cast<std::size_t>(config_.num_fetchers));
  for (int i = 0; i < config_.num_fetchers; ++i) {
    fetchers_.emplace_back([this] { FetcherLoop(); });
  }
}

FetchQueue::~FetchQueue() { Shutdown(); }

bool FetchQueue::Enqueue(const BlockKey& key,
                         std::shared_ptr<BlockProvider> provider,
                         std::int64_t block, FetchPriority priority,
                         Completion done, std::uint64_t tag) {
  Completion reject;  // Invoked outside the lock if the enqueue is refused.
  bool created = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      reject = std::move(done);
    } else {
      auto [it, inserted] = requests_.try_emplace(key);
      created = inserted;
      Request& request = it->second;
      if (inserted) {
        request.provider = std::move(provider);
        request.block = block;
        request.priority = priority;
        if (priority == FetchPriority::kDemand) {
          ++stats_.demand_enqueued;
          demand_queue_.push_back(key);
        } else {
          ++stats_.prefetch_enqueued;
          prefetch_queue_.push_back(key);
        }
      } else {
        ++stats_.coalesced;
        if (priority == FetchPriority::kDemand &&
            request.priority == FetchPriority::kPrefetch) {
          // A session is now parked on a block that was only a warm-up:
          // raise the priority in place. Still queued → move it to the
          // demand lane (carving it out of any pre-formed warm-up range
          // first, so the demand read stays block-sized and the range's
          // other blocks keep warming); already in flight → the raised
          // priority is what the delivery reads (it is re-read after the
          // fetch), so the completion is staged with demand protection
          // either way.
          if (!request.in_flight) {
            DetachFromRangeLocked(key);
            request.priority = FetchPriority::kDemand;
            std::erase(prefetch_queue_, key);
            demand_queue_.push_back(key);
            ++stats_.upgraded;
          } else {
            request.priority = FetchPriority::kDemand;
          }
        }
      }
      if (done != nullptr) {
        request.waiters.push_back(Waiter{std::move(done), tag});
      }
    }
  }
  if (reject != nullptr) {
    reject(Status::Aborted("fetch queue shut down"));
    return false;
  }
  work_cv_.notify_one();
  return created;
}

std::size_t FetchQueue::EnqueueRange(std::uint64_t owner,
                                     std::shared_ptr<BlockProvider> provider,
                                     std::int64_t first_block,
                                     std::int64_t count) {
  DBTOUCH_CHECK(provider != nullptr);
  std::size_t created = 0;
  std::size_t tickets = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || count <= 0) {
      return 0;
    }
    // Each maximal run of blocks with no existing request becomes one
    // ticket; blocks with requests split the range (they are already on
    // their way however they got there).
    const auto commit = [&](std::int64_t start, std::int64_t end) {
      for (std::int64_t block = start; block < end; ++block) {
        auto [it, inserted] = requests_.try_emplace(BlockKey{owner, block});
        DBTOUCH_CHECK(inserted);
        Request& request = it->second;
        request.provider = provider;
        request.block = block;
        request.priority = FetchPriority::kPrefetch;
        if (block == start) {
          request.range_count = end - start;
        } else {
          request.range_member = true;
          request.head_block = start;
        }
        ++stats_.prefetch_enqueued;
      }
      if (end - start > 1) {
        ++stats_.prefetch_ranges;
      }
      prefetch_queue_.push_back(BlockKey{owner, start});
      created += static_cast<std::size_t>(end - start);
      ++tickets;
    };
    std::int64_t run_start = -1;
    for (std::int64_t block = first_block; block <= first_block + count;
         ++block) {
      const bool fresh = block < first_block + count &&
                         !requests_.contains(BlockKey{owner, block});
      if (fresh) {
        if (run_start < 0) {
          run_start = block;
        }
        continue;
      }
      if (block < first_block + count) {
        ++stats_.coalesced;  // Absorbed by whatever already covers it.
      }
      if (run_start >= 0) {
        commit(run_start, block);
        run_start = -1;
      }
    }
  }
  if (tickets > 1) {
    work_cv_.notify_all();
  } else if (tickets == 1) {
    work_cv_.notify_one();
  }
  return created;
}

void FetchQueue::DetachFromRangeLocked(const BlockKey& key) {
  Request& request = requests_.find(key)->second;
  std::int64_t head_block = 0;
  if (request.range_member) {
    head_block = request.head_block;
  } else if (request.range_count > 1) {
    head_block = request.block;
  } else {
    return;  // Ordinary request, nothing to carve.
  }
  Request& head = requests_.find(BlockKey{key.owner, head_block})->second;
  const std::int64_t end = head_block + head.range_count;  // One past.
  // Right remainder (key.block, end) re-heads and re-queues; the head's
  // lane position is unchanged for the left part.
  if (key.block + 1 < end) {
    const BlockKey new_head_key{key.owner, key.block + 1};
    Request& new_head = requests_.find(new_head_key)->second;
    new_head.range_member = false;
    new_head.range_count = end - (key.block + 1);
    for (std::int64_t block = key.block + 2; block < end; ++block) {
      requests_.find(BlockKey{key.owner, block})->second.head_block =
          new_head_key.block;
    }
    prefetch_queue_.push_back(new_head_key);
  }
  if (key.block == head_block) {
    // Carving the head: its lane entry now denotes just itself; the left
    // part is empty.
    head.range_count = 1;
  } else {
    head.range_count = key.block - head_block;
  }
  request.range_member = false;
  request.range_count = 1;
}

bool FetchQueue::PopLocked(BlockKey* key) {
  if (!demand_queue_.empty()) {
    *key = demand_queue_.front();
    demand_queue_.pop_front();
    return true;
  }
  if (!prefetch_queue_.empty()) {
    *key = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    return true;
  }
  return false;
}

std::vector<BlockKey> FetchQueue::GatherRangeLocked(const BlockKey& key) {
  std::vector<BlockKey> keys{key};
  const auto head = requests_.find(key);
  DBTOUCH_CHECK(head != requests_.end());
  head->second.in_flight = true;
  if (head->second.range_count > 1) {
    // A pre-formed ranged ticket: the horizon sized it when it was
    // enqueued, so it is taken whole — no neighbour walk, no
    // max_coalesce_blocks cap, exactly one ReadBlocks.
    for (std::int64_t block = key.block + 1;
         block < key.block + head->second.range_count; ++block) {
      const BlockKey member{key.owner, block};
      requests_.find(member)->second.in_flight = true;
      keys.push_back(member);
    }
    return keys;
  }
  if (config_.max_coalesce_blocks <= 1) {
    return keys;
  }
  const BlockProvider* provider = head->second.provider.get();
  const FetchPriority priority = head->second.priority;
  // Extend in both directions: a stall enqueues its band in ascending
  // order, but the fetcher may pop a middle block first when an earlier
  // one was already in flight. Only still-queued requests of the SAME
  // priority join — an in-flight neighbour is already being read (popping
  // it twice would double-deliver), and a warm-up must never ride a
  // demand range (it would inflate the read a session is parked on, and
  // demand pops must drain before prefetch work starts).
  const auto joinable = [&](std::int64_t block) -> bool {
    const auto it = requests_.find(BlockKey{key.owner, block});
    // Blocks of a pre-formed ranged ticket never join a walk: their
    // ticket fetches them as its own unit (absorbing a member here would
    // double-deliver it when the ticket pops).
    return it != requests_.end() && !it->second.in_flight &&
           !it->second.range_member && it->second.range_count == 1 &&
           it->second.priority == priority &&
           it->second.provider.get() == provider;
  };
  const auto take = [&](std::int64_t block) {
    const BlockKey neighbour{key.owner, block};
    Request& request = requests_.find(neighbour)->second;
    request.in_flight = true;
    std::erase(priority == FetchPriority::kDemand ? demand_queue_
                                                  : prefetch_queue_,
               neighbour);
    keys.push_back(neighbour);
  };
  std::int64_t lo = key.block;
  std::int64_t hi = key.block;
  while (static_cast<int>(keys.size()) < config_.max_coalesce_blocks) {
    if (joinable(hi + 1)) {
      take(++hi);
    } else if (joinable(lo - 1)) {
      take(--lo);
    } else {
      break;
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const BlockKey& a, const BlockKey& b) {
              return a.block < b.block;
            });
  return keys;
}

void FetchQueue::SettleFetch(std::unique_lock<std::mutex>& lock,
                             const std::vector<BlockKey>& keys,
                             const Status& status, std::vector<Frame> frames,
                             std::int64_t retries, std::int64_t wall_us) {
  if (!status.ok()) {
    frames.clear();  // Back to the pool before any waiter wakes.
  }
  lock.lock();
  stats_.retries += retries;
  stats_.fetch_wall_us += wall_us;
  stats_.max_fetch_wall_us = std::max(stats_.max_fetch_wall_us, wall_us);
  const std::int64_t count = static_cast<std::int64_t>(keys.size());
  if (status.ok()) {
    stats_.completed += count;
    for (const Frame& frame : frames) {
      stats_.bytes_fetched += static_cast<std::int64_t>(frame.size());
    }
    if (count > 1) {
      ++stats_.ranged_reads;
      stats_.ranged_blocks += count;
    }
    // Fold this fetch into the per-block latency EWMA (a ranged read
    // amortises its wall over the blocks it covered). Successful fetches
    // only: a failure's wall measures the retry/backoff policy, not the
    // tier.
    const std::int64_t per_block = wall_us / std::max<std::int64_t>(count, 1);
    const std::int64_t prev = stats_.ewma_block_fetch_us;
    stats_.ewma_block_fetch_us =
        prev == 0 ? per_block : (prev * 4 + per_block) / 5;
    ewma_block_us_.store(stats_.ewma_block_fetch_us,
                         std::memory_order_relaxed);
  } else {
    stats_.failures += count;
  }

  // Read each priority only now: a demand enqueue that coalesced while
  // the fetch was in flight upgraded it, and the insert must carry that
  // (the cache shelters demand-staged blocks from warm-up churn).
  std::vector<bool> demand;
  std::vector<Waiter> waiters;
  demand.reserve(keys.size());
  for (const BlockKey& key : keys) {
    const auto it = requests_.find(key);
    DBTOUCH_CHECK(it != requests_.end());
    demand.push_back(it->second.priority == FetchPriority::kDemand);
    std::move(it->second.waiters.begin(), it->second.waiters.end(),
              std::back_inserter(waiters));
    requests_.erase(it);
  }
  ++active_callbacks_;  // Covers the inserts too: WaitIdle implies
                        // delivered payloads are in the cache.
  lock.unlock();
  // Insert every block before waking any waiter: a waiter that re-probes
  // its whole stall on the completion signal must hit all of it.
  if (status.ok()) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache_.Insert(keys[i], std::move(frames[i]), demand[i]);
    }
  }
  for (const Waiter& waiter : waiters) {
    waiter.done(status);
  }
  lock.lock();
  --active_callbacks_;
  if (requests_.empty() && active_callbacks_ == 0) {
    idle_cv_.notify_all();
  }
}

void FetchQueue::FetcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    BlockKey key;
    while (!shutdown_ && !PopLocked(&key)) {
      work_cv_.wait(lock);
    }
    if (shutdown_) {
      return;
    }
    // Gather queued adjacent requests into one ranged read (the popped
    // key rides alone when it has no queued neighbours). Demand pops
    // drain before any prefetch is even considered, so a demand fault
    // always preempts a coalesced prefetch range.
    const std::vector<BlockKey> keys = GatherRangeLocked(key);
    std::shared_ptr<BlockProvider> provider;
    // One cancellation latch covers the whole fetch: CancelTagged flips
    // it when every covered request has lost its last waiter.
    auto abort = std::make_shared<std::atomic<bool>>(false);
    for (const BlockKey& k : keys) {
      const auto it = requests_.find(k);
      DBTOUCH_CHECK(it != requests_.end());
      it->second.abort = abort;
      provider = it->second.provider;
      // Iterators must not outlive this scope: concurrent Enqueues
      // during the unlocked fetch below may rehash the map, invalidating
      // every iterator — the requests are re-found after relocking.
    }
    const std::int64_t first_block = keys.front().block;
    const std::int64_t count = static_cast<std::int64_t>(keys.size());

    lock.unlock();
    obs::TraceRecorder* trace = trace_.load(std::memory_order_acquire);
    const std::int64_t trace_owner =
        static_cast<std::int64_t>(keys.front().owner);
    if (trace != nullptr) {
      trace->Record(obs::SpanStage::kFetchStarted, 0, trace_owner,
                    first_block, count);
    }
    std::vector<Frame> frames;
    frames.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      frames.push_back(
          cache_.frames().Acquire(provider->geometry().frame_bytes()));
    }
    std::int64_t retries = 0;
    const std::int64_t t0 = NowUs();
    const Status status = ReadBlocksWithRetry(*provider, first_block, frames,
                                              config_, &retries, abort.get());
    const std::int64_t wall = NowUs() - t0;
    if (trace != nullptr) {
      trace->Record(obs::SpanStage::kFetchDone, 0, trace_owner,
                    status.ok() ? 1 : 0, wall);
    }
    SettleFetch(lock, keys, status, std::move(frames), retries, wall);
  }
}

std::size_t FetchQueue::CancelTagged(std::uint64_t tag) {
  std::vector<Waiter> cancelled;
  std::size_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // In-flight fetches that may deserve an abort: decided after the
    // retraction pass, once every request's surviving waiters are known.
    std::vector<std::shared_ptr<std::atomic<bool>>> candidates;
    for (auto it = requests_.begin(); it != requests_.end();) {
      Request& request = it->second;
      const std::size_t before = request.waiters.size();
      std::erase_if(request.waiters, [&](Waiter& waiter) {
        if (waiter.tag != tag) {
          return false;
        }
        cancelled.push_back(std::move(waiter));
        return true;
      });
      const bool retracted = request.waiters.size() < before;
      if (request.in_flight) {
        // Already being read: the fetch finishes its current attempt and
        // settles (deliveries balance; the retracted waiters were failed
        // here instead). If this retraction left the request — a demand
        // read nobody else shares — waiterless, its fetch is an abort
        // candidate: no further retries for a closed session.
        if (retracted && request.waiters.empty() &&
            request.priority == FetchPriority::kDemand &&
            request.abort != nullptr) {
          candidates.push_back(request.abort);
        }
        ++it;
        continue;
      }
      if (retracted && request.waiters.empty() &&
          request.priority == FetchPriority::kDemand) {
        // Nobody is left waiting on this demand read — fetching it would
        // only spend cold-tier bandwidth on a closed session. (Waiterless
        // prefetches stay: they are deliberate fire-and-forget warm-ups
        // of the shared pool.)
        std::erase(demand_queue_, it->first);
        it = requests_.erase(it);
        ++stats_.cancelled;
        ++dropped;
      } else {
        ++it;
      }
    }
    // Abort only fetches no request of which still has a waiter or is a
    // shared warm-up: a ranged read another session is parked on — or
    // that warms the pool — runs its full retry budget as before.
    for (const auto& abort : candidates) {
      bool still_wanted = false;
      for (const auto& [k, request] : requests_) {
        if (request.abort == abort &&
            (!request.waiters.empty() ||
             request.priority == FetchPriority::kPrefetch)) {
          still_wanted = true;
          break;
        }
      }
      if (!still_wanted &&
          !abort->exchange(true, std::memory_order_acq_rel)) {
        ++stats_.aborted;
      }
    }
    if (requests_.empty() && active_callbacks_ == 0) {
      idle_cv_.notify_all();
    }
  }
  for (const Waiter& waiter : cancelled) {
    waiter.done(Status::Aborted("fetch cancelled: session closed"));
  }
  return dropped;
}

std::size_t FetchQueue::outstanding() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return requests_.size();
}

void FetchQueue::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return shutdown_ || (requests_.empty() && active_callbacks_ == 0);
  });
}

void FetchQueue::Shutdown() {
  std::vector<Completion> orphans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    // Unstarted requests will never run: release their waiters and drop
    // them, so outstanding() converges to zero once in-flight fetches —
    // which complete on their fetcher before it exits — drain.
    for (auto it = requests_.begin(); it != requests_.end();) {
      if (!it->second.in_flight) {
        for (Waiter& waiter : it->second.waiters) {
          orphans.push_back(std::move(waiter.done));
        }
        it = requests_.erase(it);
      } else {
        ++it;
      }
    }
    demand_queue_.clear();
    prefetch_queue_.clear();
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  for (const Completion& orphan : orphans) {
    orphan(Status::Aborted("fetch queue shut down"));
  }
  for (std::thread& fetcher : fetchers_) {
    fetcher.join();
  }
  fetchers_.clear();
}

FetchQueueStats FetchQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dbtouch::cache
