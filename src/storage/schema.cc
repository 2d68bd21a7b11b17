#include "storage/schema.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace dbtouch::storage {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  offsets_.reserve(fields_.size());
  for (const Field& f : fields_) {
    offsets_.push_back(row_width_);
    row_width_ += TypeWidth(f.type);
  }
}

Result<std::size_t> Schema::FieldIndex(const std::string& name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) {
      return i;
    }
  }
  return Status::NotFound("no field named '" + name + "'");
}

Schema Schema::Project(const std::vector<std::size_t>& indices) const {
  std::vector<Field> projected;
  projected.reserve(indices.size());
  for (const std::size_t i : indices) {
    DBTOUCH_CHECK(i < fields_.size());
    projected.push_back(fields_[i]);
  }
  return Schema(std::move(projected));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const Field& f : fields_) {
    parts.push_back(f.name + ":" + std::string(DataTypeName(f.type)));
  }
  // Appended in place: `"(" + std::string&&` trips a GCC 12 -Wrestrict
  // false positive at -O2.
  std::string out = "(";
  out += Join(parts, ", ");
  out += ")";
  return out;
}

}  // namespace dbtouch::storage
