#include "core/shared_state.h"

#include <vector>

#include "common/macros.h"
#include "core/kernel.h"
#include "storage/spill.h"

namespace dbtouch::core {

SharedState::SharedState(sampling::SampleHierarchyConfig sampling,
                         bool force_eager,
                         const cache::BufferManagerConfig& buffer)
    : SharedState(sampling, force_eager, buffer,
                  LevelReachOf(KernelConfig{})) {}

SharedState::SharedState(sampling::SampleHierarchyConfig sampling,
                         bool force_eager,
                         const cache::BufferManagerConfig& buffer,
                         const sampling::LevelReach& reach)
    : sampling_(sampling), reach_(reach), buffer_(buffer) {
  if (force_eager) {
    sampling_.eager = true;
  }
}

Result<std::shared_ptr<sampling::SampleHierarchy>>
SharedState::GetOrBuildHierarchy(const std::string& table,
                                 std::size_t column) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  if (column >= t->schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for table '" + table + "'");
  }
  const ColumnKey key{table, column};
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = hierarchies_.find(key);
  if (it != hierarchies_.end() && it->second.table == t) {
    return it->second.hierarchy;
  }
  // First build, or the name was re-registered with a different table:
  // (re)build and retire any index set over the stale hierarchy. A
  // reclaimed table has no matrix to stride over — the rebuild pins
  // blocks of its paged rebind source instead (streamed through the
  // shared pool, so even this build honours the byte budget).
  std::shared_ptr<sampling::SampleHierarchy> hierarchy;
  if (t->raw_released()) {
    hierarchy = std::make_shared<sampling::SampleHierarchy>(
        t->PagedColumnAt(column), sampling_, reach_);
  } else {
    // Builds read the release-gated in-place source, not the raw view: a
    // lazy build may run long after a layout rotation replaced the matrix
    // the view points into. The handle pins the table it borrows.
    auto gated = t->PagedColumnAt(column);
    hierarchy = std::make_shared<sampling::SampleHierarchy>(
        t->ColumnViewAt(column),
        std::shared_ptr<storage::PagedColumnSource>(
            gated.get(), [gated, t](storage::PagedColumnSource*) {}),
        sampling_, reach_);
  }
  if (it != hierarchies_.end()) {
    indexes_.erase(it->second.hierarchy.get());
  }
  hierarchies_[key] = HierarchyEntry{t, hierarchy};
  return hierarchy;
}

std::shared_ptr<const index::ZoneMap> SharedState::GetOrBuildBaseZoneMap(
    const std::shared_ptr<sampling::SampleHierarchy>& hierarchy) {
  DBTOUCH_CHECK(hierarchy != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = indexes_[hierarchy.get()];
  if (slot == nullptr) {
    // The index set captures the hierarchy shared_ptr in its deleter so
    // the raw pointer it holds — and this map's key — stay valid for the
    // set's whole life.
    slot = std::shared_ptr<index::LevelIndexSet>(
        new index::LevelIndexSet(hierarchy.get()),
        [hierarchy](index::LevelIndexSet* set) { delete set; });
    // Build now, under the lock; afterwards the zone map is read-only.
    slot->ZoneMapAt(0);
  }
  // Aliasing: the ZoneMap pointer keeps the whole index set (and through
  // it the hierarchy) alive for as long as any caller holds it.
  return std::shared_ptr<const index::ZoneMap>(slot, &slot->ZoneMapAt(0));
}

Result<std::shared_ptr<storage::PagedColumnSource>>
SharedState::GetColumnSource(const std::string& table, std::size_t column,
                             bool* in_place) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = providers_.find(ColumnKey{table, column});
    if (it != providers_.end()) {
      if (it->second.table == t) {
        // PAX-spilled tables: every column reads its minipage of the one
        // shared multi-column binding.
        if (it->second.provider->pax_layout() != nullptr) {
          return buffer_.PaxSourceFor(table, column, it->second.provider);
        }
        return buffer_.SourceFor(table, column, it->second.provider);
      }
      // The name was re-registered with different data since the provider
      // was bound: the override is stale — retire it rather than serve
      // remote blocks of the old table under the new table's geometry.
      providers_.erase(it);
    }
  }
  if (column >= t->schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for table '" + table + "'");
  }
  // Resident data reads in place: release-gated zero-copy slices (or the
  // pool-backed rebind source once a spill reclaimed the matrix). The
  // slices borrow the table, so the handle's deleter pins it.
  auto source = t->PagedColumnAt(column, buffer_.config().rows_per_block);
  if (in_place != nullptr) {
    *in_place = !t->raw_released();
  }
  return std::shared_ptr<storage::PagedColumnSource>(
      source.get(), [source, t](storage::PagedColumnSource*) {});
}

Status SharedState::SetColumnProvider(
    const std::string& table, std::size_t column,
    std::shared_ptr<cache::BlockProvider> provider) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  return BindColumnProvider(std::move(t), column, std::move(provider));
}

Status SharedState::BindColumnProvider(
    std::shared_ptr<storage::Table> table, std::size_t column,
    std::shared_ptr<cache::BlockProvider> provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("null provider");
  }
  if (column >= table->schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for table '" +
                              table->name() + "'");
  }
  if (provider->geometry().row_count != table->row_count()) {
    return Status::InvalidArgument(
        "provider row count " +
        std::to_string(provider->geometry().row_count) +
        " does not match table '" + table->name() + "' (" +
        std::to_string(table->row_count()) + " rows)");
  }
  const std::string name = table->name();
  const std::lock_guard<std::mutex> lock(mu_);
  providers_[ColumnKey{name, column}] =
      ProviderEntry{std::move(table), std::move(provider)};
  return Status::OK();
}

Status SharedState::SpillTable(const std::string& table,
                               storage::TableSpiller& spiller,
                               bool reclaim_raw) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  // Write (and validate) every column's file before rebinding any: a
  // spill that fails halfway must not leave the table half on disk.
  std::vector<std::shared_ptr<cache::BlockProvider>> providers;
  providers.reserve(t->schema().num_fields());
  for (std::size_t column = 0; column < t->schema().num_fields();
       ++column) {
    DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<cache::FileBlockProvider> p,
                             spiller.SpillColumn(t, column));
    providers.push_back(std::move(p));
  }
  for (std::size_t column = 0; column < providers.size(); ++column) {
    // Bind against the exact table the spill read — not a fresh catalog
    // lookup: a concurrent re-registration of the name must not get the
    // old table's spill files pinned under the new table's identity (the
    // identity mismatch then retires the binding, as for any provider).
    DBTOUCH_RETURN_IF_ERROR(BindColumnProvider(t, column, providers[column]));
  }
  if (!reclaim_raw) {
    return Status::OK();
  }
  // Reclamation: every file is written, validated and bound — the matrix
  // is now a redundant copy. Build the paged rebind sources (pool-backed,
  // same binding GetColumnSource hands out, so probe pins and point reads
  // share cache keys), move the hierarchies onto them, then free the raw
  // storage. ReleaseRaw waits out raw readers still in flight.
  std::vector<std::shared_ptr<storage::PagedColumnSource>> sources;
  sources.reserve(providers.size());
  for (std::size_t column = 0; column < providers.size(); ++column) {
    sources.push_back(
        buffer_.SourceFor(t->name(), column, providers[column]));
  }
  // One critical section for rebind + release: a concurrent
  // GetOrBuildHierarchy (same mutex) either runs before — and is rebound
  // here — or after, when raw_released() already steers it to the paged
  // build. Releasing between the two would let it build over a matrix
  // about to be freed. Lock order is mu_ then the table's release gate;
  // no raw-gate holder ever takes mu_.
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : hierarchies_) {
    if (entry.table == t) {
      // Materialises any unbuilt reachable levels from the still-valid
      // matrix, then pins blocks for every later build.
      entry.hierarchy->RebindBase(sources[key.second]);
    }
  }
  return t->ReleaseRaw(std::move(sources));
}

Status SharedState::SpillTablePax(const std::string& table,
                                  storage::TableSpiller& spiller,
                                  bool reclaim_raw) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  // One file for the whole table; written and validated before any column
  // rebinds, so a failed spill leaves the in-memory binding intact.
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<cache::FileBlockProvider> provider,
                           spiller.SpillTablePax(t));
  for (std::size_t column = 0; column < t->schema().num_fields(); ++column) {
    DBTOUCH_RETURN_IF_ERROR(BindColumnProvider(t, column, provider));
  }
  if (!reclaim_raw) {
    return Status::OK();
  }
  // Mirrors SpillTable's reclamation, except every rebind source is a PAX
  // column view of the one shared binding (see SpillTable for the
  // locking/failure discussion).
  std::vector<std::shared_ptr<storage::PagedColumnSource>> sources;
  sources.reserve(t->schema().num_fields());
  for (std::size_t column = 0; column < t->schema().num_fields(); ++column) {
    DBTOUCH_ASSIGN_OR_RETURN(
        std::shared_ptr<storage::PagedColumnSource> source,
        buffer_.PaxSourceFor(t->name(), column, provider));
    sources.push_back(std::move(source));
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : hierarchies_) {
    if (entry.table == t) {
      entry.hierarchy->RebindBase(sources[key.second]);
    }
  }
  return t->ReleaseRaw(std::move(sources));
}

std::size_t SharedState::hierarchy_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hierarchies_.size();
}

std::size_t SharedState::sample_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, entry] : hierarchies_) {
    total += entry.hierarchy->sample_bytes();
  }
  return total;
}

}  // namespace dbtouch::core
