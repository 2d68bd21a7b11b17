#include "storage/table.h"

#include <mutex>
#include <utility>

#include "common/macros.h"

namespace dbtouch::storage {

/// Zero-copy paged source over a resident table column, gated against
/// spill reclamation and layout rotation: every pin registers in the
/// table's pin counter before touching the matrix, and ReleaseRaw and
/// ReplaceStorage refuse to free or move it while any pin is live — so
/// operators holding block views (column cursors, group-bys, joins,
/// summary cursors) can never dangle; a reclaim or rotation racing them
/// fails cleanly and is retried once gestures pause. Pins attempted after
/// the release fail with FailedPrecondition.
class GatedTableColumnSource final : public PagedColumnSource {
 public:
  GatedTableColumnSource(const Table* table, std::size_t column,
                         std::int64_t rows_per_block)
      : table_(table),
        column_(column),
        type_(table->schema().field(column).type),
        rows_per_block_(rows_per_block > 0
                            ? rows_per_block
                            : std::max<std::int64_t>(table->row_count(), 1)),
        row_count_(table->row_count()) {}

  DataType type() const override { return type_; }
  const Dictionary* dictionary() const override {
    return table_->dictionaries_[column_].get();
  }
  std::int64_t row_count() const override { return row_count_; }
  std::int64_t rows_per_block() const override { return rows_per_block_; }

  Result<BlockPin> PinBlock(std::int64_t block,
                            RowId /*row_hint*/ = -1) override {
    if (block < 0 || block >= num_blocks()) {
      return Status::OutOfRange("block " + std::to_string(block) +
                                " out of range");
    }
    // Register under the gate held shared: ReleaseRaw and ReplaceStorage
    // count live pins under it held exclusive, so a pin either registers
    // before they look (and they back out) or runs after them (and sees
    // the released flag or the new matrix).
    const std::shared_lock<std::shared_mutex> lock(table_->raw_mu_);
    if (table_->raw_released_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition(
          "raw storage of table '" + table_->name() +
          "' was released after a spill; rebind through PagedColumnAt");
    }
    table_->zero_copy_pins_.fetch_add(1, std::memory_order_relaxed);
    const RowId first = BlockFirstRow(block);
    const ColumnView view =
        table_->storage_.ColumnAt(column_, dictionary());
    return BlockPin(this, block, view.Slice(first, BlockRowCount(block)),
                    first);
  }

 protected:
  void UnpinBlock(std::int64_t /*block*/) override {
    // Release: reads through the pin happen-before a free that observes
    // the count at zero.
    table_->zero_copy_pins_.fetch_sub(1, std::memory_order_release);
  }

 private:
  const Table* table_;  // Borrowed; callers hold the owning shared_ptr.
  std::size_t column_;
  DataType type_;
  std::int64_t rows_per_block_;
  std::int64_t row_count_;
};

Table::Table(std::string name, Schema schema, MajorOrder order)
    : name_(std::move(name)),
      schema_(schema),
      storage_(schema, order),
      dictionaries_(schema_.num_fields()) {
  for (std::size_t c = 0; c < schema_.num_fields(); ++c) {
    if (schema_.field(c).type == DataType::kString) {
      dictionaries_[c] = std::make_shared<Dictionary>();
    }
  }
}

Result<std::shared_ptr<Table>> Table::FromColumns(std::string name,
                                                  std::vector<Column> columns,
                                                  MajorOrder order) {
  if (columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  const std::int64_t rows = columns[0].row_count();
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (const Column& c : columns) {
    if (c.row_count() != rows) {
      return Status::InvalidArgument(
          "column '" + c.name() + "' has " + std::to_string(c.row_count()) +
          " rows, expected " + std::to_string(rows));
    }
    fields.push_back(Field{c.name(), c.type()});
  }
  auto table =
      std::make_shared<Table>(std::move(name), Schema(std::move(fields)),
                              order);
  std::vector<const std::byte*> field_data;
  field_data.reserve(columns.size());
  for (const Column& c : columns) {
    field_data.push_back(c.raw_data());
  }
  table->storage_.AppendRowsColumnar(field_data, rows);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].type() == DataType::kString) {
      table->dictionaries_[c] = columns[c].dictionary();
    }
  }
  return table;
}

Status Table::AppendRow(const std::vector<Value>& row) {
  // The gate covers the whole append: a reclaim cannot free the matrix
  // between the released check and the mutation.
  const std::shared_lock<std::shared_mutex> lock(raw_mu_);
  if (raw_released_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "table '" + name_ + "' is spilled and frozen; cannot append");
  }
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_fields()));
  }
  // Intern strings first so AppendRow sees only fixed-width values.
  std::vector<Value> encoded;
  encoded.reserve(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    const DataType t = schema_.field(c).type;
    if (t == DataType::kString) {
      if (!row[c].is_string()) {
        return Status::InvalidArgument("field " + std::to_string(c) +
                                       " expects a string value");
      }
      encoded.emplace_back(static_cast<std::int64_t>(
          dictionaries_[c]->Intern(row[c].AsString())));
    } else if (row[c].is_string()) {
      return Status::InvalidArgument("field " + std::to_string(c) +
                                     " is numeric but got a string");
    } else {
      encoded.push_back(row[c]);
    }
  }
  storage_.AppendRow(encoded);
  return Status::OK();
}

Value Table::GetValue(RowId row, std::size_t col) const {
  {
    const std::shared_lock<std::shared_mutex> lock(raw_mu_);
    if (!raw_released_.load(std::memory_order_acquire)) {
      const Value raw = storage_.GetCell(row, col);
      if (schema_.field(col).type == DataType::kString &&
          dictionaries_[col] != nullptr) {
        return Value(dictionaries_[col]->Lookup(
            static_cast<std::int32_t>(raw.AsInt())));
      }
      return raw;
    }
  }
  // Released: pin the covering block through the paged tier. The view
  // carries the provider's dictionary, so strings decode as before.
  const std::shared_ptr<PagedColumnSource>& source = paged_rebind_[col];
  Result<BlockPin> pin = source->PinBlock(source->BlockFor(row), row);
  DBTOUCH_CHECK(pin.ok());
  return pin->view().GetValue(row - pin->first_row());
}

ColumnView Table::ColumnViewAt(std::size_t col) const {
  DBTOUCH_CHECK(col < schema_.num_fields());
  // Raw views escape any lock scope, so they cannot exist at all once the
  // matrix may be freed; every surviving caller reads under WithRawColumn
  // or through PagedColumnAt.
  DBTOUCH_CHECK(!raw_released());
  return storage_.ColumnAt(col, dictionaries_[col].get());
}

Result<ColumnView> Table::ColumnViewByName(const std::string& name) const {
  DBTOUCH_ASSIGN_OR_RETURN(const std::size_t idx, schema_.FieldIndex(name));
  return ColumnViewAt(idx);
}

Status Table::WithRawColumn(
    std::size_t col,
    const std::function<Status(const ColumnView&)>& fn) const {
  DBTOUCH_CHECK(col < schema_.num_fields());
  const std::shared_lock<std::shared_mutex> lock(raw_mu_);
  if (raw_released_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "raw storage of table '" + name_ +
        "' was released after a spill; read the paged tier instead");
  }
  return fn(storage_.ColumnAt(col, dictionaries_[col].get()));
}

std::shared_ptr<PagedColumnSource> Table::PagedColumnAt(
    std::size_t col, std::int64_t rows_per_block) const {
  DBTOUCH_CHECK(col < schema_.num_fields());
  if (raw_released()) {
    return paged_rebind_[col];
  }
  return std::make_shared<GatedTableColumnSource>(this, col,
                                                  rows_per_block);
}

Column Table::ExtractColumn(std::size_t col) const {
  DBTOUCH_CHECK(col < schema_.num_fields());
  const Field& f = schema_.field(col);
  Column out(f.name, f.type);
  out.Reserve(row_count());
  // Block-at-a-time through whatever tier backs the column: raw slices on
  // a resident table, pinned cache blocks on a released one.
  PagedColumnCursor cursor(PagedColumnAt(col));
  for (RowId r = 0; r < row_count(); ++r) {
    switch (f.type) {
      case DataType::kInt32:
        out.AppendInt32(cursor.GetInt32(r));
        break;
      case DataType::kInt64:
        out.AppendInt64(cursor.GetInt64(r));
        break;
      case DataType::kFloat:
        out.AppendFloat(cursor.GetFloat(r));
        break;
      case DataType::kDouble:
        out.AppendDouble(cursor.GetDouble(r));
        break;
      case DataType::kString:
        // Codes are interned in row order, matching the original column's
        // dictionary order for first occurrences.
        out.AppendString(dictionaries_[col]->Lookup(cursor.GetInt32(r)));
        break;
    }
  }
  return out;
}

Status Table::ReplaceStorage(Matrix&& replacement) {
  const std::unique_lock<std::shared_mutex> lock(raw_mu_);
  if (raw_released_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "table '" + name_ +
        "' is spilled; its layout lives in the block files");
  }
  if (zero_copy_pins_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "table '" + name_ +
        "' has live zero-copy pins; pause gestures and retry the swap");
  }
  if (!(replacement.schema() == schema_)) {
    return Status::InvalidArgument("replacement schema mismatch");
  }
  if (replacement.row_count() != storage_.row_count()) {
    return Status::InvalidArgument("replacement row count mismatch");
  }
  storage_ = std::move(replacement);
  return Status::OK();
}

Status Table::ReleaseRaw(
    std::vector<std::shared_ptr<PagedColumnSource>> paged) {
  if (paged.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "release needs one paged source per column: got " +
        std::to_string(paged.size()) + ", want " +
        std::to_string(schema_.num_fields()));
  }
  for (std::size_t c = 0; c < paged.size(); ++c) {
    if (paged[c] == nullptr) {
      return Status::InvalidArgument("null paged source for column " +
                                     std::to_string(c));
    }
    if (paged[c]->row_count() != row_count() ||
        paged[c]->type() != schema_.field(c).type) {
      return Status::InvalidArgument(
          "paged source geometry mismatch for column " + std::to_string(c) +
          " of table '" + name_ + "'");
    }
  }
  // Exclusive lock: every transient raw reader in flight drains first,
  // every later one observes the released state. Zero-copy pins
  // (GatedTableColumnSource) outlive any lock hold, so they are counted
  // instead: they register under the lock held shared, and live ones
  // abort the release cleanly (the matrix stays; the caller retries once
  // gestures pause).
  const std::unique_lock<std::shared_mutex> lock(raw_mu_);
  if (raw_released_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("raw storage of table '" + name_ +
                                      "' already released");
  }
  if (zero_copy_pins_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "table '" + name_ +
        "' has live zero-copy pins; pause gestures and retry the reclaim");
  }
  paged_rebind_ = std::move(paged);
  raw_released_.store(true, std::memory_order_release);
  storage_.ReleaseStorage();
  return Status::OK();
}

}  // namespace dbtouch::storage
