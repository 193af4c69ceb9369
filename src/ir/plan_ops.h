// Engine-internal plan operators shared by the ranked-run paths
// (search_engine.cc) and the storage-era runs (storage_runs.cc):
//
//   Bm25ScoreOperator — per-term map: gathers doclen for the vector's
//     docids and runs the fused MapBm25 kernel (ir/bm25.h), emitting
//     (docid, score). The docid column passes through zero-copy.
//   MergeUnionOperator — streaming N-ary union of docid-sorted children,
//     vector-at-a-time: distinct docids (BoolOR) or per-docid score sums
//     (the BM25 disjunction). Children decode lazily, so a union never
//     materializes whole posting lists — constant memory per child.
//   RunRankedUnion — the score-all ranked root over scored children,
//     MergeUnion(sum scores) → TopK(k), drained into a SearchResult.
//
// Every operator here consumes and emits dense batches (vec/scan.h).
// Moved out of search_engine.cc when storage/ landed: the Table 2 runs
// execute the same plan shapes over cold columns (the paper's flexibility
// claim), so the operators are shared rather than duplicated. Not part of
// the public API.
#ifndef X100IR_IR_PLAN_OPS_H_
#define X100IR_IR_PLAN_OPS_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "ir/bm25.h"
#include "ir/search_engine.h"
#include "ir/topk.h"
#include "vec/scan.h"
#include "vec/vector.h"

namespace x100ir::ir {

class Bm25ScoreOperator : public vec::Operator {
 public:
  Bm25ScoreOperator(vec::ExecContext* ctx, vec::OperatorPtr child, float idf,
                    Bm25Params params, const int32_t* doclens,
                    float inv_avgdl)
      : ctx_(ctx),
        child_(std::move(child)),
        idf_(idf),
        params_(params),
        doclens_(doclens),
        inv_avgdl_(inv_avgdl) {}

  Status Open() override {
    if (child_ == nullptr) return InvalidArgument("bm25-score needs a child");
    if (ctx_ == nullptr) {
      return InvalidArgument("bm25-score needs an execution context");
    }
    X100IR_RETURN_IF_ERROR(ctx_->Validate());
    X100IR_RETURN_IF_ERROR(child_->Open());
    const vec::Schema& cs = child_->schema();
    if (cs.NumColumns() != 2 || cs.type(0) != vec::TypeId::kI32 ||
        cs.type(1) != vec::TypeId::kI32) {
      return InvalidArgument(
          "bm25-score child must produce (docid i32, tf i32)");
    }
    schema_ = vec::Schema();
    schema_.Add("docid", vec::TypeId::kI32);
    schema_.Add("score", vec::TypeId::kF32);
    doclen_vec_.Reset(vec::TypeId::kI32, ctx_->vector_size);
    score_vec_.Reset(vec::TypeId::kF32, ctx_->vector_size);
    return OkStatus();
  }

  Status Next(vec::Batch** out) override {
    if (out == nullptr) return InvalidArgument("null output");
    vec::Batch* b = nullptr;
    X100IR_RETURN_IF_ERROR(child_->Next(&b));
    if (b == nullptr) {
      *out = nullptr;
      return OkStatus();
    }
    const int32_t* docids = b->columns[0]->Data<int32_t>();
    const int32_t* tfs = b->columns[1]->Data<int32_t>();
    int32_t* dl = doclen_vec_.Data<int32_t>();
    // Doclen gather, then the fused scoring kernel.
    for (uint32_t i = 0; i < b->count; ++i) dl[i] = doclens_[docids[i]];
    MapBm25(b->count, score_vec_.Data<float>(), tfs, dl, idf_, params_.k1,
            params_.b, inv_avgdl_);
    ++ctx_->stats.primitive_calls;
    // Zero-copy docid passthrough: the child's vector stays valid until
    // its next Next(), which happens only after ours.
    batch_.columns = {b->columns[0], &score_vec_};
    batch_.count = b->count;
    *out = &batch_;
    return OkStatus();
  }

  void Close() override {
    if (child_ != nullptr) child_->Close();
  }

 private:
  vec::ExecContext* ctx_;
  vec::OperatorPtr child_;
  float idf_;
  Bm25Params params_;
  const int32_t* doclens_;
  float inv_avgdl_;
  vec::Vector doclen_vec_, score_vec_;
  vec::Batch batch_;
};

// Streaming N-ary union on column 0 (i32 docid, strictly increasing per
// child). Output: distinct docids ascending; with sum_scores, column 1
// carries the sum of the children's scores for that docid.
class MergeUnionOperator : public vec::Operator {
 public:
  MergeUnionOperator(vec::ExecContext* ctx,
                     std::vector<vec::OperatorPtr> children, bool sum_scores)
      : ctx_(ctx), children_(std::move(children)), sum_scores_(sum_scores) {}

  Status Open() override {
    if (children_.empty()) {
      return InvalidArgument("union needs at least one child");
    }
    if (ctx_ == nullptr) {
      return InvalidArgument("union needs an execution context");
    }
    X100IR_RETURN_IF_ERROR(ctx_->Validate());
    schema_ = vec::Schema();
    schema_.Add("docid", vec::TypeId::kI32);
    if (sum_scores_) schema_.Add("score", vec::TypeId::kF32);
    states_.assign(children_.size(), ChildState());
    for (size_t c = 0; c < children_.size(); ++c) {
      if (children_[c] == nullptr) return InvalidArgument("null child");
      X100IR_RETURN_IF_ERROR(children_[c]->Open());
      const vec::Schema& cs = children_[c]->schema();
      const uint32_t want = sum_scores_ ? 2 : 1;
      if (cs.NumColumns() < want || cs.type(0) != vec::TypeId::kI32 ||
          (sum_scores_ && cs.type(1) != vec::TypeId::kF32)) {
        return InvalidArgument(StrFormat(
            "union child %zu must lead with docid i32%s", c,
            sum_scores_ ? " and carry a f32 score" : ""));
      }
      X100IR_RETURN_IF_ERROR(Refill(c));
    }
    out_docid_.Reset(vec::TypeId::kI32, ctx_->vector_size);
    if (sum_scores_) out_score_.Reset(vec::TypeId::kF32, ctx_->vector_size);
    batch_.columns.clear();
    batch_.columns.push_back(&out_docid_);
    if (sum_scores_) batch_.columns.push_back(&out_score_);
    return OkStatus();
  }

  Status Next(vec::Batch** out) override {
    if (out == nullptr) return InvalidArgument("null output");
    int32_t* out_d = out_docid_.Data<int32_t>();
    float* out_s = sum_scores_ ? out_score_.Data<float>() : nullptr;
    uint32_t filled = 0;
    while (filled < ctx_->vector_size) {
      // Head of the merge: smallest live docid (term counts are tiny, a
      // linear sweep beats a heap).
      int32_t min_d = 0;
      bool any = false;
      for (const ChildState& st : states_) {
        if (st.cur == nullptr) continue;
        const int32_t d = st.docids[st.off];
        if (!any || d < min_d) {
          min_d = d;
          any = true;
        }
      }
      if (!any) break;
      float sum = 0.0f;
      for (size_t c = 0; c < states_.size(); ++c) {
        ChildState& st = states_[c];
        if (st.cur == nullptr || st.docids[st.off] != min_d) continue;
        if (sum_scores_) sum += st.scores[st.off];
        X100IR_RETURN_IF_ERROR(Advance(c, min_d));
      }
      out_d[filled] = min_d;
      if (out_s != nullptr) out_s[filled] = sum;
      ++filled;
    }
    if (filled == 0) {
      *out = nullptr;
      return OkStatus();
    }
    batch_.count = filled;
    *out = &batch_;
    return OkStatus();
  }

  void Close() override {
    for (auto& child : children_) {
      if (child != nullptr) child->Close();
    }
  }

 private:
  struct ChildState {
    vec::Batch* cur = nullptr;  // null = exhausted or awaiting refill
    uint32_t off = 0;
    const int32_t* docids = nullptr;
    const float* scores = nullptr;
  };

  Status Refill(size_t c) {
    ChildState& st = states_[c];
    for (;;) {
      vec::Batch* b = nullptr;
      X100IR_RETURN_IF_ERROR(children_[c]->Next(&b));
      if (b == nullptr) {
        st.cur = nullptr;
        return OkStatus();
      }
      if (b->count == 0) continue;
      st.cur = b;
      st.off = 0;
      st.docids = b->columns[0]->Data<int32_t>();
      st.scores = sum_scores_ ? b->columns[1]->Data<float>() : nullptr;
      return OkStatus();
    }
  }

  Status Advance(size_t c, int32_t prev_docid) {
    ChildState& st = states_[c];
    if (++st.off >= st.cur->count) {
      X100IR_RETURN_IF_ERROR(Refill(c));
    }
    if (st.cur != nullptr && st.docids[st.off] <= prev_docid) {
      return InvalidArgument("union input docids must be strictly increasing");
    }
    return OkStatus();
  }

  vec::ExecContext* ctx_;
  std::vector<vec::OperatorPtr> children_;
  bool sum_scores_;
  std::vector<ChildState> states_;
  vec::Vector out_docid_, out_score_;
  vec::Batch batch_;
};

// The score-all ranked plan: MergeUnion(sum scores) over the scored
// children (each emitting (docid i32, score f32)) → TopK(opts.k,
// opts.tombstones), drained with a deadline checkpoint before every batch
// (§9.3). Appends the ranked rows to result->docids/scores and sets
// result->num_matches to the rows the top-k consumed, on every exit past
// Open — a DeadlineExceeded result keeps its partial count. Execution
// stats stay in *ctx; the caller accounts them.
inline Status RunRankedUnion(vec::ExecContext* ctx,
                             std::vector<vec::OperatorPtr> scored,
                             const SearchOptions& opts,
                             SearchResult* result) {
  TopKOperator topk(ctx,
                    std::make_unique<MergeUnionOperator>(
                        ctx, std::move(scored), /*sum_scores=*/true),
                    opts.k);
  topk.set_tombstones(opts.tombstones);
  X100IR_RETURN_IF_ERROR(topk.Open());
  Status s;
  vec::Batch* b = nullptr;
  for (;;) {
    if (opts.deadline != nullptr) {
      s = opts.deadline->Check();
      if (!s.ok()) break;
    }
    s = topk.Next(&b);
    if (!s.ok() || b == nullptr) break;
    const int32_t* docids = b->columns[0]->Data<int32_t>();
    const float* scores = b->columns[1]->Data<float>();
    result->docids.insert(result->docids.end(), docids, docids + b->count);
    result->scores.insert(result->scores.end(), scores, scores + b->count);
  }
  result->num_matches = topk.rows_consumed();
  topk.Close();
  return s;
}

}  // namespace x100ir::ir

#endif  // X100IR_IR_PLAN_OPS_H_
