// Test helper: a provider's block payloads as plain byte vectors, so tests
// can compare tiers and read paths byte for byte.

#ifndef DBTOUCH_TESTS_BLOCK_PAYLOADS_H_
#define DBTOUCH_TESTS_BLOCK_PAYLOADS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/block_provider.h"
#include "cache/frame.h"
#include "common/result.h"

namespace dbtouch::testing_util {

/// Reads blocks [first_block, first_block + count) of `provider` with ONE
/// ReadBlocks call (a ranged read when count > 1) and returns each block's
/// payload.
inline Result<std::vector<std::vector<std::byte>>> ReadBlockPayloads(
    cache::BlockProvider& provider, std::int64_t first_block,
    std::int64_t count = 1) {
  cache::FramePool pool(/*keep_bytes=*/0);
  std::vector<cache::Frame> frames;
  for (std::int64_t i = 0; i < count; ++i) {
    frames.push_back(pool.Acquire(provider.geometry().frame_bytes()));
  }
  const Status status = provider.ReadBlocks(first_block, frames);
  if (!status.ok()) {
    return status;
  }
  std::vector<std::vector<std::byte>> payloads;
  for (const cache::Frame& frame : frames) {
    payloads.emplace_back(frame.data(), frame.data() + frame.size());
  }
  return payloads;
}

/// One block's payload.
inline Result<std::vector<std::byte>> ReadBlockPayload(
    cache::BlockProvider& provider, std::int64_t block) {
  Result<std::vector<std::vector<std::byte>>> payloads =
      ReadBlockPayloads(provider, block);
  if (!payloads.ok()) {
    return payloads.status();
  }
  return std::move(payloads->front());
}

}  // namespace dbtouch::testing_util

#endif  // DBTOUCH_TESTS_BLOCK_PAYLOADS_H_
