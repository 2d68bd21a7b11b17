#include "cache/block_provider.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/macros.h"

namespace dbtouch::cache {

Status CheckBlockRead(const BlockGeometry& geometry, std::int64_t first_block,
                      std::span<const Frame> frames) {
  const auto count = static_cast<std::int64_t>(frames.size());
  if (count <= 0 || first_block < 0 ||
      first_block + count > geometry.num_blocks()) {
    return Status::OutOfRange("block range [" +
                              std::to_string(first_block) + ", " +
                              std::to_string(first_block + count) +
                              ") out of range");
  }
  for (const Frame& frame : frames) {
    if (frame.capacity() < geometry.frame_bytes()) {
      return Status::InvalidArgument(
          "frame of " + std::to_string(frame.capacity()) +
          " bytes cannot hold a " + std::to_string(geometry.frame_bytes()) +
          "-byte block");
    }
  }
  return Status::OK();
}

TableBlockProvider::TableBlockProvider(
    std::shared_ptr<const storage::Table> table, std::size_t column,
    std::int64_t rows_per_block)
    : table_(std::move(table)), column_(column) {
  DBTOUCH_CHECK(table_ != nullptr);
  DBTOUCH_CHECK(column_ < table_->schema().num_fields());
  DBTOUCH_CHECK(rows_per_block > 0);
  geometry_.type = table_->schema().field(column_).type;
  geometry_.row_count = table_->row_count();
  geometry_.rows_per_block = rows_per_block;
}

Status TableBlockProvider::ReadBlocks(std::int64_t first_block,
                                      std::span<Frame> frames) {
  DBTOUCH_RETURN_IF_ERROR(CheckBlockRead(geometry_, first_block, frames));
  const std::size_t width = geometry_.width();
  // The copy runs under the table's release gate: a concurrent spill
  // reclamation waits for it, and once the matrix is gone this read
  // fails permanently (FailedPrecondition is not a transient fetch
  // error) instead of reading freed memory — a stale binding sheds its
  // gesture cleanly while rebound sources serve from disk.
  return table_->WithRawColumn(
      column_, [&](const storage::ColumnView& view) -> Status {
        for (std::size_t i = 0; i < frames.size(); ++i) {
          const std::int64_t block =
              first_block + static_cast<std::int64_t>(i);
          const storage::RowId first = block * geometry_.rows_per_block;
          const std::int64_t count = geometry_.BlockRowCount(block);
          Frame& frame = frames[i];
          frame.set_size(static_cast<std::size_t>(count) * width);
          if (view.stride() == width) {
            // Column-major storage: the block is one contiguous run.
            std::memcpy(frame.data(),
                        view.data() + static_cast<std::size_t>(first) * width,
                        frame.size());
          } else {
            // Row-major storage: gather strided fields into a dense block.
            const std::byte* src =
                view.data() + static_cast<std::size_t>(first) * view.stride();
            std::byte* dst = frame.data();
            for (std::int64_t r = 0; r < count; ++r) {
              std::memcpy(dst, src, width);
              src += view.stride();
              dst += width;
            }
          }
        }
        return Status::OK();
      });
}

RemoteBlockProvider::RemoteBlockProvider(
    remote::RemoteServer* server, storage::DataType type,
    std::int64_t rows_per_block, const storage::Dictionary* dictionary)
    : server_(server), dictionary_(dictionary) {
  DBTOUCH_CHECK(server_ != nullptr);
  DBTOUCH_CHECK(rows_per_block > 0);
  geometry_.type = type;
  geometry_.row_count = server_->hierarchy().LevelView(0).row_count();
  geometry_.rows_per_block = rows_per_block;
}

Status RemoteBlockProvider::ReadBlocks(std::int64_t first_block,
                                       std::span<Frame> frames) {
  DBTOUCH_RETURN_IF_ERROR(CheckBlockRead(geometry_, first_block, frames));
  const auto count = static_cast<std::int64_t>(frames.size());
  const storage::RowId first = first_block * geometry_.rows_per_block;
  const std::int64_t rows =
      std::min((first_block + count) * geometry_.rows_per_block,
               geometry_.row_count) -
      first;
  std::int64_t response_bytes = 0;
  std::vector<double> values;
  {
    const std::lock_guard<std::mutex> lock(server_mu_);
    values = server_->ReadRange(0, first, rows, &response_bytes);
  }
  // A short read is a transport failure (lost or truncated response), not
  // an invariant violation: surface it as a transient status so the fetch
  // path — ReadBlocksWithRetry inline, or the FetchQueue's fetchers — can
  // retry with backoff instead of aborting the process.
  if (static_cast<std::int64_t>(values.size()) != rows) {
    return Status::Aborted(
        "remote short read: got " + std::to_string(values.size()) +
        " of " + std::to_string(rows) + " entries for blocks " +
        std::to_string(first_block) + ".." +
        std::to_string(first_block + count - 1));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (count > 1) {
    ranged_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  bytes_fetched_.fetch_add(response_bytes, std::memory_order_relaxed);

  // Re-encode the doubles into the declared type, block by block.
  const std::size_t width = geometry_.width();
  std::size_t next = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::int64_t block_rows =
        geometry_.BlockRowCount(first_block + static_cast<std::int64_t>(i));
    Frame& frame = frames[i];
    frame.set_size(static_cast<std::size_t>(block_rows) * width);
    std::byte* dst = frame.data();
    for (std::int64_t r = 0; r < block_rows; ++r, dst += width) {
      const double v = values[next++];
      switch (geometry_.type) {
        case storage::DataType::kInt32:
        case storage::DataType::kString: {
          const auto x = static_cast<std::int32_t>(std::llround(v));
          std::memcpy(dst, &x, sizeof(x));
          break;
        }
        case storage::DataType::kInt64: {
          const std::int64_t x = std::llround(v);
          std::memcpy(dst, &x, sizeof(x));
          break;
        }
        case storage::DataType::kFloat: {
          const auto x = static_cast<float>(v);
          std::memcpy(dst, &x, sizeof(x));
          break;
        }
        case storage::DataType::kDouble:
          std::memcpy(dst, &v, sizeof(v));
          break;
      }
    }
  }
  return Status::OK();
}

}  // namespace dbtouch::cache
