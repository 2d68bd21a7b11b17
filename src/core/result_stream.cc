#include "core/result_stream.h"

#include <memory>

namespace dbtouch::core {

const char* ResultKindName(ResultKind kind) {
  switch (kind) {
    case ResultKind::kValue:
      return "value";
    case ResultKind::kTuple:
      return "tuple";
    case ResultKind::kAggregate:
      return "aggregate";
    case ResultKind::kSummary:
      return "summary";
    case ResultKind::kFilterMatch:
      return "filter-match";
    case ResultKind::kJoinMatch:
      return "join-match";
    case ResultKind::kGroupUpdate:
      return "group-update";
  }
  return "?";
}

void ResultItems::push_back(ResultItem item) {
  const std::size_t slot = size_ % kChunkItems;
  if (slot == 0 && size_ / kChunkItems == chunks_.size()) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  std::construct_at(&chunks_[size_ / kChunkItems]->items[slot],
                    std::move(item));
  ++size_;
}

void ResultItems::clear() {
  for (std::size_t i = 0; i < size_; ++i) {
    std::destroy_at(&(*this)[i]);
  }
  size_ = 0;
  if (chunks_.size() > 1) {
    chunks_.resize(1);
    chunks_.shrink_to_fit();
  }
}

std::vector<VisibleResult> ResultStream::VisibleAt(sim::Micros now) const {
  std::vector<VisibleResult> out;
  for (const ResultItem& item : items_) {
    if (item.timestamp_us > now) {
      continue;  // Not yet produced.
    }
    const sim::Micros age = now - item.timestamp_us;
    if (age >= fade_us_) {
      continue;  // Fully faded.
    }
    VisibleResult v;
    v.item = &item;
    v.opacity = 1.0 - static_cast<double>(age) /
                          static_cast<double>(fade_us_);
    out.push_back(v);
  }
  return out;
}

std::int64_t ResultStream::CountKind(ResultKind kind) const {
  std::int64_t n = 0;
  for (const ResultItem& item : items_) {
    if (item.kind == kind) {
      ++n;
    }
  }
  return n;
}

}  // namespace dbtouch::core
