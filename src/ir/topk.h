// Top-k selection for ranked runs, in two layers:
//
//   - TopK: a bounded min-heap of (score, docid). The weakest kept entry
//     sits at the root, so the running admission threshold is O(1).
//   - TopKOperator: the plan root for ranked queries. It drains its child's
//     (docid, score) stream, filtering each vector *branch-free* through
//     SelectColVal (score >= threshold emits candidate positions with no
//     mispredictable branch — the same trick as the select primitives and
//     the codec's LOOP2) and only the few survivors touch the branchy heap.
//     Once the heap holds k entries the threshold is the kth score and
//     nearly every vector position is rejected in the tight select loop.
//
// Memory ownership (DESIGN.md §6.3): the operator owns the heap and the
// materialized, rank-sorted result vectors; emitted batches borrow them and
// stay valid until the operator's Close. Ordering is score descending with
// docid ascending as the tiebreak, which makes ranked output deterministic
// and lets tests compare against a naive oracle exactly.
#ifndef X100IR_IR_TOPK_H_
#define X100IR_IR_TOPK_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ir/collection_stats.h"
#include "ir/gather.h"
#include "vec/primitives.h"
#include "vec/scan.h"

namespace x100ir::ir {

class TopK {
 public:
  explicit TopK(uint32_t k) : k_(k) {}

  uint32_t k() const { return k_; }
  bool full() const { return entries_.size() >= k_; }

  // Scores strictly below the threshold can never be admitted. Until the
  // heap fills this is -inf (everything is a candidate).
  float threshold() const {
    return full() ? entries_.front().score
                  : -std::numeric_limits<float>::infinity();
  }

  void Push(int32_t docid, float score) {
    if (!full()) {
      entries_.push_back({score, docid});
      std::push_heap(entries_.begin(), entries_.end(), RankedBefore);
      return;
    }
    if (RankedBefore({score, docid}, entries_.front())) {
      std::pop_heap(entries_.begin(), entries_.end(), RankedBefore);
      entries_.back() = {score, docid};
      std::push_heap(entries_.begin(), entries_.end(), RankedBefore);
    }
  }

  // Drains the heap in rank order (score desc, docid asc) and resets it.
  void FinishSorted(std::vector<int32_t>* docids,
                    std::vector<float>* scores) {
    std::sort(entries_.begin(), entries_.end(), RankedBefore);
    docids->resize(entries_.size());
    scores->resize(entries_.size());
    for (size_t i = 0; i < entries_.size(); ++i) {
      (*docids)[i] = entries_[i].docid;
      (*scores)[i] = entries_[i].score;
    }
    entries_.clear();
  }

 private:
  uint32_t k_;
  // A heap under RankedBefore (gather.h): the "largest" element under it is
  // the weakest entry, which std::push_heap keeps at the root.
  std::vector<RankedDoc> entries_;
};

// Plan root for ranked runs. Child schema: (docid i32, score f32). Output:
// the same schema, rows in rank order, emitted vector-at-a-time.
class TopKOperator : public vec::Operator {
 public:
  TopKOperator(vec::ExecContext* ctx, vec::OperatorPtr child, uint32_t k)
      : ctx_(ctx), child_(std::move(child)), topk_(k) {}

  // Documents the child drained into the heap (== total candidate matches
  // for a disjunctive ranked query). Valid after the first Next.
  uint64_t rows_consumed() const { return rows_consumed_; }

  // Borrowed tombstone bitmap over the child's docid space (segmented
  // reads, search_engine.h). Deleted rows are dropped before the heap and
  // excluded from rows_consumed. Must be set before Open.
  void set_tombstones(const uint64_t* bits) { tombstones_ = bits; }

  Status Open() override {
    if (child_ == nullptr) return InvalidArgument("top-k needs a child");
    if (ctx_ == nullptr) {
      return InvalidArgument("top-k needs an execution context");
    }
    X100IR_RETURN_IF_ERROR(ctx_->Validate());
    if (topk_.k() == 0) return InvalidArgument("top-k needs k > 0");
    X100IR_RETURN_IF_ERROR(child_->Open());
    const vec::Schema& cs = child_->schema();
    if (cs.NumColumns() != 2 || cs.type(0) != vec::TypeId::kI32 ||
        cs.type(1) != vec::TypeId::kF32) {
      return InvalidArgument("top-k child must produce (docid i32, score f32)");
    }
    schema_ = cs;
    cand_sel_.resize(ctx_->vector_size);
    drained_ = false;
    pos_ = 0;
    rows_consumed_ = 0;
    result_docids_.clear();
    result_scores_.clear();
    return OkStatus();
  }

  Status Next(vec::Batch** out) override {
    if (out == nullptr) return InvalidArgument("null output");
    if (!drained_) {
      X100IR_RETURN_IF_ERROR(Drain());
      drained_ = true;
    }
    const uint64_t remaining = result_docids_.size() - pos_;
    if (remaining == 0) {
      *out = nullptr;
      return OkStatus();
    }
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(ctx_->vector_size, remaining));
    if (batch_.columns.empty()) {
      out_docid_.Reset(vec::TypeId::kI32, ctx_->vector_size);
      out_score_.Reset(vec::TypeId::kF32, ctx_->vector_size);
      batch_.columns = {&out_docid_, &out_score_};
    }
    std::copy_n(result_docids_.data() + pos_, len,
                out_docid_.Data<int32_t>());
    std::copy_n(result_scores_.data() + pos_, len, out_score_.Data<float>());
    pos_ += len;
    batch_.count = len;
    batch_.sel = nullptr;
    batch_.sel_count = 0;
    *out = &batch_;
    return OkStatus();
  }

  void Close() override {
    if (child_ != nullptr) child_->Close();
  }

 private:
  Status Drain() {
    vec::Batch* b = nullptr;
    for (;;) {
      X100IR_RETURN_IF_ERROR(child_->Next(&b));
      if (b == nullptr) break;
      const int32_t* docids = b->columns[0]->Data<int32_t>();
      const float* scores = b->columns[1]->Data<float>();
      if (tombstones_ == nullptr) {
        rows_consumed_ += b->ActiveCount();
        // Branch-free candidate filter: >= (not >) so a score tying the
        // current kth can still win on the docid tiebreak inside Push.
        const uint32_t n_cand = vec::SelectColVal<vec::GeCmp, float>(
            b->count, b->sel, b->sel_count, cand_sel_.data(), scores,
            topk_.threshold());
        ++ctx_->stats.primitive_calls;
        for (uint32_t j = 0; j < n_cand; ++j) {
          const vec::sel_t i = cand_sel_[j];
          topk_.Push(docids[i], scores[i]);
        }
      } else {
        // Segmented read with deletes: drop dead rows before the heap and
        // keep num_matches an exact live count. The heap's final content
        // is push-order-independent (exact top-k under (score, docid)),
        // so this branchy path stays bit-identical to an index rebuilt
        // without the deleted docs.
        const uint32_t active =
            b->sel != nullptr ? b->sel_count : b->count;
        for (uint32_t j = 0; j < active; ++j) {
          const uint32_t i = b->sel != nullptr ? b->sel[j] : j;
          if (TombstoneTest(tombstones_, docids[i])) continue;
          ++rows_consumed_;
          if (scores[i] >= topk_.threshold()) topk_.Push(docids[i], scores[i]);
        }
      }
    }
    topk_.FinishSorted(&result_docids_, &result_scores_);
    return OkStatus();
  }

  vec::ExecContext* ctx_;
  vec::OperatorPtr child_;
  TopK topk_;
  const uint64_t* tombstones_ = nullptr;
  std::vector<vec::sel_t> cand_sel_;
  std::vector<int32_t> result_docids_;
  std::vector<float> result_scores_;
  vec::Vector out_docid_, out_score_;
  vec::Batch batch_;
  uint64_t pos_ = 0;
  uint64_t rows_consumed_ = 0;
  bool drained_ = false;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_TOPK_H_
