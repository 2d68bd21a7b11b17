// SharedState: the read-only half of the kernel, factored out so many
// concurrent sessions can explore one dataset.
//
// The single-user kernel of the paper owns everything: catalog, sample
// hierarchies, indexes, views, operator state. Serving many users forces a
// split: state that is a pure function of the data (catalog, sample
// hierarchies, base zone maps) is immutable once built and safe to share;
// state that depends on what one user is doing (views, operator state,
// result stream, session tracker) stays inside the per-session Kernel.
//
// Thread-safety contract: construction of shared artefacts (hierarchies,
// zone maps) happens under an internal mutex; per-touch reads take no
// locks. Sample hierarchies build the levels the sessions' level policy
// can select before they are handed out; a finer level is built on its
// first use under the hierarchy's own mutex and published with release
// ordering (sampling/sample_hierarchy.h), so lazy builds are safe under
// sharing and a built level is immutable.
//
// The SharedState also owns the server-wide cache::BufferManager, which
// holds only blocks that do not live in RAM (spilled or remote columns,
// under one byte budget); resident tables read in place. The
// BufferManager is internally synchronised (sharded); sessions pin
// blocks concurrently.

#ifndef DBTOUCH_CORE_SHARED_STATE_H_
#define DBTOUCH_CORE_SHARED_STATE_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "cache/buffer_manager.h"
#include "common/result.h"
#include "common/status.h"
#include "index/level_index_set.h"
#include "sampling/sample_hierarchy.h"
#include "storage/catalog.h"
#include "storage/paged_column.h"

namespace dbtouch::storage {
class TableSpiller;
}  // namespace dbtouch::storage

namespace dbtouch::core {

class SharedState {
 public:
  /// `force_eager`: build every reachable hierarchy level up front, so no
  /// session's touch pays for a build (the server's choice); a Kernel's
  /// private SharedState passes false to honour the user's sampling config
  /// exactly as the single-user system did. `reach`: what the sessions'
  /// level policy can select (core::LevelReachOf); levels it cannot reach
  /// are built on first use only. The 3-argument form assumes
  /// KernelConfig{} defaults.
  explicit SharedState(sampling::SampleHierarchyConfig sampling = {},
                       bool force_eager = true,
                       const cache::BufferManagerConfig& buffer = {});
  SharedState(sampling::SampleHierarchyConfig sampling, bool force_eager,
              const cache::BufferManagerConfig& buffer,
              const sampling::LevelReach& reach);

  SharedState(const SharedState&) = delete;
  SharedState& operator=(const SharedState&) = delete;

  storage::Catalog& catalog() { return catalog_; }
  const storage::Catalog& catalog() const { return catalog_; }

  Status RegisterTable(std::shared_ptr<storage::Table> table) {
    return catalog_.Register(std::move(table));
  }

  /// The sample hierarchy over `table.column`, built on first request and
  /// shared by every session thereafter; concurrent LevelView reads (and
  /// the lazy builds they may trigger) are safe.
  Result<std::shared_ptr<sampling::SampleHierarchy>> GetOrBuildHierarchy(
      const std::string& table, std::size_t column);

  /// The base-level (level 0) zone map over `hierarchy`, built on first
  /// request and shared by every object bound to that hierarchy. Keyed by
  /// hierarchy identity — not table name — so an object always prunes
  /// with a map over exactly the data it scans, even after its table's
  /// name is re-registered with new contents. The returned (aliasing)
  /// shared_ptr pins the owning index set (and through it the hierarchy);
  /// the map itself is immutable, so per-touch MayMatch probes take no
  /// locks.
  std::shared_ptr<const index::ZoneMap> GetOrBuildBaseZoneMap(
      const std::shared_ptr<sampling::SampleHierarchy>& hierarchy);

  /// The server-wide buffer pool every session's base-data reads share.
  cache::BufferManager& buffer_manager() { return buffer_; }
  const cache::BufferManager& buffer_manager() const { return buffer_; }

  /// The source one data object reads `table.column` through: the shared
  /// pool for a column bound to a provider (SetColumnProvider, SpillTable,
  /// SpillTablePax), else the table's release-gated zero-copy source.
  /// `in_place`, when given, is set true for the zero-copy case: such a
  /// source's pins fail with FailedPrecondition once a reclaim frees the
  /// matrix, so its holder must move to Table::PagedColumnAt then.
  Result<std::shared_ptr<storage::PagedColumnSource>> GetColumnSource(
      const std::string& table, std::size_t column,
      bool* in_place = nullptr);

  /// Binds `table.column` base reads to an explicit BlockProvider — the
  /// cold-tier deployment of paper Section 4 ("the server may store the
  /// base data ... the touch device may store only small samples"): the
  /// catalog's table supplies schema, row count and sample hierarchies,
  /// while block faults go to the provider (e.g. a RemoteBlockProvider).
  /// Sources created by GetColumnSource after this call fault through it.
  /// The provider's geometry must match the table's row count.
  Status SetColumnProvider(const std::string& table, std::size_t column,
                           std::shared_ptr<cache::BlockProvider> provider);

  /// Spills every column of `table` to disk through `spiller` and rebinds
  /// the columns' base reads to the resulting cache::FileBlockProvider —
  /// the disk tier: after this, a table many times the buffer budget
  /// explores through the pool's bounded resident set, faulting blocks
  /// from the spill files. Columns are rebound only after every file is
  /// written and validated, so a failed spill leaves the in-memory
  /// binding fully intact.
  ///
  /// With `reclaim_raw`, the spill then actually frees memory: every
  /// shared sample hierarchy over the table is rebound to the paged tier
  /// (its reachable level copies are materialised first — they are all
  /// that survives in RAM; finer levels, if ever needed, are built later
  /// from the paged tier), and the table's matrix storage is released
  /// (storage::Table::ReleaseRaw), so the tracked resident bytes of the
  /// table drop to ~0 and the pool's byte budget becomes the only bound
  /// on base-data residency — the out-of-core promise made literal.
  /// Remaining readers go through PagedColumnSource pins: taps and
  /// group-bys via Table::GetValue's paged fallback, hierarchies rebuilt
  /// later via GetOrBuildHierarchy's paged build, zone maps via the
  /// paged index builds. Racing readers are safe, not transparent:
  /// transient raw reads drain behind the table's release gate, a live
  /// zero-copy pin (an operator or column cursor mid-gesture) makes the
  /// reclaim itself fail cleanly — the spill files stay written and
  /// bound, so retry once gestures pause — and zero-copy sources handed
  /// out BEFORE the reclaim return FailedPrecondition for pins after the
  /// release. Kernel column objects hold a zero-copy pin for each whole
  /// gesture and move to the pool binding at their next gesture, so they
  /// keep answering; operators a table object built before the reclaim
  /// do not. Reclaim before opening the table to sessions for zero
  /// disruption.
  Status SpillTable(const std::string& table, storage::TableSpiller& spiller,
                    bool reclaim_raw = false);

  /// SpillTable's PAX variant: the whole table goes to ONE multi-column
  /// block file (storage::TableSpiller::SpillTablePax) and every column
  /// rebinds to that shared provider through the pool's shared PAX
  /// binding — a block faulted for one attribute is resident for all of
  /// them, so fat-table tuple probes cost one fault instead of one per
  /// column. Same failure contract and `reclaim_raw` semantics as
  /// SpillTable.
  Status SpillTablePax(const std::string& table,
                       storage::TableSpiller& spiller,
                       bool reclaim_raw = false);

  /// Number of distinct (table, column) hierarchies built so far.
  std::size_t hierarchy_count() const;

  /// Bytes held by all shared sample copies.
  std::size_t sample_bytes() const;

  const sampling::SampleHierarchyConfig& sampling_config() const {
    return sampling_;
  }

 private:
  using ColumnKey = std::pair<std::string, std::size_t>;

  /// SetColumnProvider against an already-resolved table identity — the
  /// SpillTable path, where the binding must pin the table the spill
  /// actually read, not whatever the name resolves to at bind time.
  Status BindColumnProvider(std::shared_ptr<storage::Table> table,
                            std::size_t column,
                            std::shared_ptr<cache::BlockProvider> provider);

  storage::Catalog catalog_;
  sampling::SampleHierarchyConfig sampling_;
  sampling::LevelReach reach_;
  cache::BufferManager buffer_;

  /// Cached artefacts pin the Table they were built over: the pin keeps
  /// the hierarchy's base ColumnView alive even if the catalog drops the
  /// table, and identity-checking it detects a name being re-registered
  /// with new data (the stale entry is then rebuilt).
  struct HierarchyEntry {
    std::shared_ptr<storage::Table> table;
    std::shared_ptr<sampling::SampleHierarchy> hierarchy;
  };

  /// Explicit cold-tier provider (SetColumnProvider), pinned to the
  /// identity of the table it was validated against: a name re-registered
  /// with new data silently retires the override (the new table's
  /// in-memory data serves) instead of faulting stale remote data.
  struct ProviderEntry {
    /// Identity pin (like HierarchyEntry's): holding the shared_ptr rules
    /// out a recycled allocation masquerading as the validated table.
    std::shared_ptr<storage::Table> table;
    std::shared_ptr<cache::BlockProvider> provider;
  };

  mutable std::mutex mu_;
  std::map<ColumnKey, HierarchyEntry> hierarchies_;
  /// Consulted by GetColumnSource before defaulting to in-place reads.
  std::map<ColumnKey, ProviderEntry> providers_;
  /// Index sets piggy-back on the hierarchies, keyed by hierarchy
  /// identity; only their level-0 zone maps are exposed (built under mu_,
  /// then read-only). Each set's deleter pins its hierarchy, so the raw
  /// key pointer stays valid for the entry's whole life.
  std::map<const sampling::SampleHierarchy*,
           std::shared_ptr<index::LevelIndexSet>>
      indexes_;
};

}  // namespace dbtouch::core

#endif  // DBTOUCH_CORE_SHARED_STATE_H_
