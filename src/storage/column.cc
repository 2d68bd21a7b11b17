#include "storage/column.h"

#include <algorithm>

namespace dbtouch::storage {

Value ColumnView::GetValue(RowId row) const {
  switch (type_) {
    case DataType::kInt32:
      return Value(static_cast<std::int64_t>(GetInt32(row)));
    case DataType::kInt64:
      return Value(GetInt64(row));
    case DataType::kFloat:
      return Value(static_cast<double>(GetFloat(row)));
    case DataType::kDouble:
      return Value(GetDouble(row));
    case DataType::kString: {
      const std::int32_t code = GetInt32(row);
      if (dictionary_ != nullptr) {
        return Value(dictionary_->Lookup(code));
      }
      return Value(static_cast<std::int64_t>(code));
    }
  }
  return Value();
}

ColumnView ColumnView::Slice(RowId first, std::int64_t count) const {
  DBTOUCH_CHECK(first >= 0 && count >= 0 && first + count <= row_count_);
  return ColumnView(type_, data_ + static_cast<std::size_t>(first) * stride_,
                    stride_, count, dictionary_);
}

Column::Column(std::string name, DataType type)
    : name_(std::move(name)), type_(type), width_(TypeWidth(type)) {
  if (type_ == DataType::kString) {
    dictionary_ = std::make_shared<Dictionary>();
  }
}

Column Column::FromInt32(std::string name,
                         const std::vector<std::int32_t>& v) {
  Column c(std::move(name), DataType::kInt32);
  c.AppendBulk(v.data(), v.size());
  return c;
}

Column Column::FromInt64(std::string name,
                         const std::vector<std::int64_t>& v) {
  Column c(std::move(name), DataType::kInt64);
  c.AppendBulk(v.data(), v.size());
  return c;
}

Column Column::FromDouble(std::string name, const std::vector<double>& v) {
  Column c(std::move(name), DataType::kDouble);
  c.AppendBulk(v.data(), v.size());
  return c;
}

Column Column::FromFloat(std::string name, const std::vector<float>& v) {
  Column c(std::move(name), DataType::kFloat);
  c.AppendBulk(v.data(), v.size());
  return c;
}

Column Column::FromStrings(std::string name,
                           const std::vector<std::string>& v) {
  Column c(std::move(name), DataType::kString);
  std::vector<std::int32_t> codes;
  codes.reserve(v.size());
  for (const auto& s : v) {
    codes.push_back(c.dictionary_->Intern(s));
  }
  c.AppendBulk(codes.data(), codes.size());
  return c;
}

void Column::Reserve(std::int64_t rows) {
  data_.reserve(static_cast<std::size_t>(rows) * width_);
  tracked_.Update(data_.capacity());
}

void Column::AppendString(std::string_view s) {
  DBTOUCH_CHECK(type_ == DataType::kString);
  const std::int32_t code = dictionary_->Intern(s);
  AppendRaw(&code, sizeof(code));
}

void Column::AppendValue(const Value& v) {
  switch (type_) {
    case DataType::kInt32:
      AppendInt32(static_cast<std::int32_t>(v.AsInt()));
      return;
    case DataType::kInt64:
      AppendInt64(v.AsInt());
      return;
    case DataType::kFloat:
      AppendFloat(static_cast<float>(v.ToDouble()));
      return;
    case DataType::kDouble:
      AppendDouble(v.ToDouble());
      return;
    case DataType::kString:
      AppendString(v.AsString());
      return;
  }
}

void Column::Grow(std::size_t bytes) {
  data_.reserve(std::max(bytes, 2 * data_.capacity()));
  tracked_.Update(data_.capacity());
}

void Column::AppendBulk(const void* src, std::size_t rows) {
  const auto* bytes = static_cast<const std::byte*>(src);
  data_.insert(data_.end(), bytes, bytes + rows * width_);
  tracked_.Update(data_.capacity());
}

}  // namespace dbtouch::storage
