#include "vec/scan.h"

#include <algorithm>

#include "common/string_util.h"

namespace x100ir::vec {

ScanOperator::ScanOperator(ExecContext* ctx, Schema schema,
                           std::vector<VectorSourcePtr> sources)
    : ctx_(ctx), sources_(std::move(sources)) {
  schema_ = std::move(schema);
}

Status ScanOperator::Open() {
  if (ctx_ == nullptr) {
    return InvalidArgument("scan needs an execution context");
  }
  X100IR_RETURN_IF_ERROR(ctx_->Validate());
  if (sources_.size() != schema_.NumColumns()) {
    return InvalidArgument(
        StrFormat("scan has %zu sources but schema has %u columns",
                  sources_.size(), schema_.NumColumns()));
  }
  n_ = sources_.empty() ? 0 : sources_[0]->size();
  for (uint32_t c = 0; c < sources_.size(); ++c) {
    if (sources_[c] == nullptr) return InvalidArgument("null source");
    if (sources_[c]->size() != n_) {
      return InvalidArgument("scan sources differ in length");
    }
    if (sources_[c]->type() != schema_.type(c)) {
      return InvalidArgument("source type does not match schema for column " +
                             schema_.name(c));
    }
  }
  vectors_.clear();
  vectors_.reserve(sources_.size());
  batch_.columns.clear();
  for (uint32_t c = 0; c < sources_.size(); ++c) {
    vectors_.emplace_back(schema_.type(c), ctx_->vector_size);
  }
  // Vector storage is stable from here on (no reallocation), so batch
  // column pointers can be wired once.
  for (auto& v : vectors_) batch_.columns.push_back(&v);
  pos_ = 0;
  return OkStatus();
}

Status ScanOperator::Next(Batch** out) {
  if (out == nullptr) return InvalidArgument("null output");
  const uint64_t remaining = n_ - pos_;
  if (remaining == 0) {
    *out = nullptr;
    return OkStatus();
  }
  const uint32_t len = static_cast<uint32_t>(
      std::min<uint64_t>(ctx_->vector_size, remaining));
  for (uint32_t c = 0; c < sources_.size(); ++c) {
    sources_[c]->Read(pos_, len, vectors_[c].RawData());
  }
  pos_ += len;
  batch_.count = len;
  *out = &batch_;
  return OkStatus();
}

void ScanOperator::Close() {
  pos_ = n_;
}

}  // namespace x100ir::vec
