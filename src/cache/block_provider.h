// BlockProvider: the backing-store seam behind the BufferManager. A
// provider reads fixed-size blocks of a column, as densely packed
// native-width fields, into frames the caller hands it (cache/frame.h);
// the BufferManager decides which blocks stay resident. Tiers:
//
//   - TableBlockProvider: copies blocks out of an in-memory base table
//     (the fast tier — a fault costs one memcpy).
//   - RemoteBlockProvider: faults blocks in from a remote::RemoteServer
//     via level-0 range reads (paper Section 4's slow tier: "the server
//     may store the base data ... while the touch device may store only
//     small samples").
//   - FileBlockProvider (cache/file_block_provider.h): the disk spill
//     tier.

#ifndef DBTOUCH_CACHE_BLOCK_PROVIDER_H_
#define DBTOUCH_CACHE_BLOCK_PROVIDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "cache/frame.h"
#include "common/result.h"
#include "remote/remote_store.h"
#include "storage/dictionary.h"
#include "storage/pax.h"
#include "storage/table.h"
#include "storage/types.h"

namespace dbtouch::cache {

/// Shape of the column (or PAX row-group) a provider serves.
struct BlockGeometry {
  storage::DataType type = storage::DataType::kInt32;
  std::int64_t row_count = 0;
  std::int64_t rows_per_block = 0;
  /// Bytes one row contributes to a block payload. 0 (the default) means
  /// "derive from `type`" — the single-column case. PAX multi-column
  /// providers set it to the summed field widths, so every size formula
  /// below (payload = BlockRowCount * width()) holds unchanged.
  std::size_t row_bytes = 0;

  std::size_t width() const {
    return row_bytes != 0 ? row_bytes : storage::TypeWidth(type);
  }
  std::int64_t num_blocks() const {
    return rows_per_block == 0
               ? 0
               : (row_count + rows_per_block - 1) / rows_per_block;
  }
  std::int64_t BlockRowCount(std::int64_t block) const {
    const std::int64_t first = block * rows_per_block;
    return std::min<std::int64_t>(rows_per_block, row_count - first);
  }
  /// Capacity of the frame one block is read into: a full block, rounded
  /// up to the frame alignment. A short last block uses the same size, so
  /// one binding recycles one frame size.
  std::size_t frame_bytes() const {
    return AlignUpFrame(static_cast<std::size_t>(rows_per_block) * width());
  }
};

/// Shared argument validation for ReadBlocks implementations: OK iff
/// `frames` is non-empty, [first_block, first_block + frames.size()) lies
/// inside the geometry and every frame holds geometry.frame_bytes().
Status CheckBlockRead(const BlockGeometry& geometry, std::int64_t first_block,
                      std::span<const Frame> frames);

class BlockProvider {
 public:
  virtual ~BlockProvider() = default;

  virtual const BlockGeometry& geometry() const = 0;
  /// Dictionary to attach to views over fetched blocks (string columns).
  virtual const storage::Dictionary* dictionary() const { return nullptr; }

  /// Reads blocks [first_block, first_block + frames.size()) into
  /// `frames`, one block per frame: frame i receives block first_block + i
  /// as geometry().BlockRowCount densely packed fields of
  /// geometry().width() bytes, and its size() is set to that. Each frame
  /// must hold geometry().frame_bytes(). One call over N adjacent blocks
  /// is the batched demand-fetch seam: tiers with per-request cost (disk
  /// seeks, remote round trips) pay it once. Must be thread-safe: the
  /// BufferManager may fault different blocks concurrently.
  ///
  /// Errors are data, not invariants: a provider over a lossy transport
  /// returns a transient status (Aborted / ResourceExhausted /
  /// DeadlineExceeded) and the fetch path retries with backoff — see
  /// cache/fetch_queue.h. After an error the frames' contents are
  /// unspecified.
  virtual Status ReadBlocks(std::int64_t first_block,
                            std::span<Frame> frames) = 0;

  /// True when reads are slow enough that callers should suspend on them
  /// rather than block a worker (remote / disk tiers). Immediate providers
  /// (in-memory copies) fill synchronously even on the non-blocking path.
  virtual bool async() const { return false; }

  /// Multi-column (PAX) providers: how each block payload is carved into
  /// per-column minipages. Null for single-column providers. The layout
  /// must stay valid for the provider's lifetime.
  virtual const storage::PaxLayout* pax_layout() const { return nullptr; }

  /// Dictionary of PAX column `column` (string columns), else null. Only
  /// meaningful when pax_layout() is non-null.
  virtual const storage::Dictionary* pax_dictionary(
      std::size_t column) const {
    (void)column;
    return nullptr;
  }
};

/// Fast tier: blocks copied out of an in-memory table column, bound only
/// explicitly (serving reads resident tables in place). Reads the column
/// view at fetch time, so a layout rotation between faults changes the
/// copy path, never the values.
class TableBlockProvider final : public BlockProvider {
 public:
  TableBlockProvider(std::shared_ptr<const storage::Table> table,
                     std::size_t column, std::int64_t rows_per_block);

  const BlockGeometry& geometry() const override { return geometry_; }
  const storage::Dictionary* dictionary() const override {
    return table_->dictionary(column_).get();
  }
  Status ReadBlocks(std::int64_t first_block,
                    std::span<Frame> frames) override;

 private:
  std::shared_ptr<const storage::Table> table_;
  std::size_t column_;
  BlockGeometry geometry_;
};

/// Slow tier: blocks faulted in from a RemoteServer's base level through
/// ranged reads. The wire format is doubles (the server's numeric view),
/// re-encoded into the declared type on arrival — exact for int32/float/
/// double and for int64 magnitudes below 2^53; string columns round-trip
/// their dictionary codes.
class RemoteBlockProvider final : public BlockProvider {
 public:
  RemoteBlockProvider(remote::RemoteServer* server, storage::DataType type,
                      std::int64_t rows_per_block,
                      const storage::Dictionary* dictionary = nullptr);

  const BlockGeometry& geometry() const override { return geometry_; }
  const storage::Dictionary* dictionary() const override {
    return dictionary_;
  }
  /// One ranged read against the server spanning the blocks' rows — N
  /// adjacent cold blocks cost one round trip instead of N.
  Status ReadBlocks(std::int64_t first_block,
                    std::span<Frame> frames) override;
  bool async() const override { return true; }

  std::int64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  std::int64_t ranged_requests() const {
    return ranged_requests_.load(std::memory_order_relaxed);
  }
  std::int64_t bytes_fetched() const {
    return bytes_fetched_.load(std::memory_order_relaxed);
  }

 private:
  remote::RemoteServer* server_;  // Not owned.
  /// RemoteServer models one synchronous endpoint and is not itself
  /// thread-safe; faults from concurrent cache shards serialise here.
  std::mutex server_mu_;
  const storage::Dictionary* dictionary_;
  BlockGeometry geometry_;
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> ranged_requests_{0};
  std::atomic<std::int64_t> bytes_fetched_{0};
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_BLOCK_PROVIDER_H_
