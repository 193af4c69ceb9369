#include "vec/streaming_merge.h"

namespace x100ir::vec {

StreamingJoinOperator::StreamingJoinOperator(
    ExecContext* ctx, std::vector<SkipCursorPtr> cursors)
    : ctx_(ctx), cursors_(std::move(cursors)) {}

Status StreamingJoinOperator::Open() {
  if (cursors_.empty()) {
    return InvalidArgument("streaming merge-join needs at least one cursor");
  }
  if (ctx_ == nullptr) {
    return InvalidArgument("streaming merge-join needs an execution context");
  }
  X100IR_RETURN_IF_ERROR(ctx_->Validate());
  for (const SkipCursorPtr& c : cursors_) {
    if (c == nullptr) return InvalidArgument("null cursor");
  }
  schema_ = Schema();
  schema_.Add("docid", TypeId::kI32);
  out_docid_.Reset(TypeId::kI32, ctx_->vector_size);
  batch_.columns = {&out_docid_};
  done_ = false;
  stats_folded_ = false;
  // An empty child empties the intersection before any probing starts.
  for (const SkipCursorPtr& c : cursors_) {
    if (c->AtEnd()) {
      done_ = true;
      break;
    }
  }
  return OkStatus();
}

Status StreamingJoinOperator::Next(Batch** out) {
  if (out == nullptr) return InvalidArgument("null output");
  int32_t* dst = out_docid_.Data<int32_t>();
  uint32_t filled = 0;
  const size_t n = cursors_.size();
  while (!done_ && filled < ctx_->vector_size) {
    // Leapfrog: candidate from cursor 0 (rarest list), every overshoot by
    // another cursor becomes the new candidate until all n agree.
    int32_t d = cursors_[0]->value();
    size_t agree = 1;
    size_t i = 1 % n;
    while (agree < n) {
      if (!cursors_[i]->SkipTo(d)) {
        done_ = true;
        break;
      }
      const int32_t v = cursors_[i]->value();
      if (v == d) {
        ++agree;
      } else {
        // Strictly increasing inputs guarantee v > d here; a misordered
        // child would loop, so fail loudly instead.
        if (v < d) {
          return Internal("skip cursor moved backwards (unsorted input)");
        }
        d = v;
        agree = 1;
      }
      i = (i + 1) % n;
    }
    if (done_) break;
    dst[filled++] = d;
    if (!cursors_[0]->Next()) done_ = true;
  }
  if (filled == 0) {
    *out = nullptr;
    return OkStatus();
  }
  batch_.count = filled;
  *out = &batch_;
  return OkStatus();
}

void StreamingJoinOperator::Close() {
  if (!stats_folded_ && ctx_ != nullptr) {
    for (const SkipCursorPtr& c : cursors_) {
      if (c != nullptr) c->FoldStats(&ctx_->stats);
    }
    stats_folded_ = true;
  }
}

}  // namespace x100ir::vec
