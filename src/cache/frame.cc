#include "cache/frame.h"

#include <sys/mman.h>

#include <algorithm>

#include "common/macros.h"

namespace dbtouch::cache {

namespace {

void Unmap(std::byte* data, std::size_t capacity) {
  DBTOUCH_CHECK(::munmap(data, capacity) == 0);
}

}  // namespace

Frame& Frame::operator=(Frame&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = std::exchange(other.pool_, nullptr);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

void Frame::set_size(std::size_t size) {
  DBTOUCH_CHECK(size <= capacity_);
  size_ = size;
}

void Frame::Release() {
  if (pool_ != nullptr) {
    pool_->Release(data_, capacity_);
    pool_ = nullptr;
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }
}

FramePool::~FramePool() {
  DBTOUCH_CHECK(stats_.in_use_bytes == 0);
  for (const auto& [capacity, data] : spares_) {
    Unmap(data, capacity);
  }
}

Frame FramePool::Acquire(std::size_t bytes) {
  const std::size_t capacity = AlignUpFrame(std::max<std::size_t>(bytes, 1));
  const auto size = static_cast<std::int64_t>(capacity);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.in_use_bytes += size;
    for (auto it = spares_.rbegin(); it != spares_.rend(); ++it) {
      if (it->first == capacity) {
        std::byte* data = it->second;
        spares_.erase(std::next(it).base());
        return Frame(this, data, capacity);
      }
    }
    // A miss: spares of other capacities cannot serve it, so they give
    // way (oldest first) before the pool maps past its bound.
    while (stats_.mapped_bytes + size > keep_bytes_ && !spares_.empty()) {
      Unmap(spares_.front().second, spares_.front().first);
      stats_.mapped_bytes -= static_cast<std::int64_t>(spares_.front().first);
      spares_.erase(spares_.begin());
    }
    stats_.mapped_bytes += size;
    stats_.peak_mapped_bytes =
        std::max(stats_.peak_mapped_bytes, stats_.mapped_bytes);
    ++stats_.maps;
  }
  // Mapped outside the lock: the kernel call is the slow part, and the
  // accounting above already reserved the bytes.
  void* data = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DBTOUCH_CHECK(data != MAP_FAILED);
  return Frame(this, static_cast<std::byte*>(data), capacity);
}

void FramePool::Release(std::byte* data, std::size_t capacity) {
  const auto size = static_cast<std::int64_t>(capacity);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.in_use_bytes -= size;
    if (stats_.mapped_bytes <= keep_bytes_) {
      spares_.emplace_back(capacity, data);
      return;
    }
    stats_.mapped_bytes -= size;
  }
  Unmap(data, capacity);
}

FramePoolStats FramePool::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dbtouch::cache
