// The engine's scan and join plans and their engine-internal operators:
//
//   Bm25ScoreOperator — per-term map: gathers doclen for the vector's
//     docids and runs the fused MapBm25 kernel (ir/bm25.h), emitting
//     (docid, score). The docid column passes through zero-copy.
//   MergeUnionOperator — streaming N-ary union of docid-sorted children,
//     vector-at-a-time: distinct docids (BoolOR) or per-docid score sums
//     (the BM25 disjunction). Children decode lazily, so a union never
//     materializes whole posting lists — constant memory per child.
//   SearchBool — BoolAND's rarest-first StreamingJoin, BoolOR's distinct
//     MergeUnion over docid scans.
//   SearchBm25 — the score-all ranked plan.
//
// The plans are templates over per-term leaves (ir/posting_cursor.h): a
// segment's columns or a write buffer's copy. A segment runs them for the
// boolean runs and kBm25's score-all union (maxscore_bm25 = false), a
// write buffer for every run; a segment's other ranked runs run the
// MaxScore executor (ir/maxscore.h). Every operator here consumes and emits
// dense batches (vec/scan.h). Not part of the public API.
#ifndef X100IR_IR_PLAN_OPS_H_
#define X100IR_IR_PLAN_OPS_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "compress/skip_cursor.h"
#include "ir/bm25.h"
#include "ir/posting_cursor.h"
#include "ir/search_engine.h"
#include "ir/topk.h"
#include "vec/scan.h"
#include "vec/streaming_merge.h"
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
    doclen_vec_.Reset(ctx_->vector_size);
    score_vec_.Reset(ctx_->vector_size);
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
    states_.assign(children_.size(), ChildState());
    for (size_t c = 0; c < children_.size(); ++c) {
      if (children_[c] == nullptr) return InvalidArgument("null child");
      X100IR_RETURN_IF_ERROR(children_[c]->Open());
      X100IR_RETURN_IF_ERROR(Refill(c));
    }
    out_docid_.Reset(ctx_->vector_size);
    if (sum_scores_) {
      out_score_.Reset(ctx_->vector_size);
      batch_.columns = {&out_docid_, &out_score_};
    } else {
      batch_.columns = {&out_docid_};
    }
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

// Leaf of the scan plans: one term's range of the docid column, and of the
// tf column when the run scores, read through the leaves' window sources.
template <class Leaves>
vec::OperatorPtr MakeTermScan(const Leaves& leaves, vec::ExecContext* ctx,
                              uint32_t term, bool with_tf) {
  using Scan = vec::ScanOperator<typename Leaves::Source>;
  const TermRange r = leaves.Range(term);
  if (!with_tf) {
    return std::make_unique<Scan>(ctx, leaves.docid_windows(), r.begin, r.len);
  }
  return std::make_unique<Scan>(ctx, leaves.docid_windows(),
                                leaves.value_windows(), r.begin, r.len);
}

// The boolean plans over `terms` (PrepareQuery's, every one with
// postings): collects the first opts.k docids into result->docids and
// counts every match in result->num_matches, dropping opts.tombstones.
template <class Leaves>
Status SearchBool(const Leaves& leaves, const std::vector<uint32_t>& terms,
                  bool conjunctive, const SearchOptions& opts,
                  SearchResult* result) {
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  vec::OperatorPtr root;
  if (conjunctive) {
    // Streaming skip join: cursors rarest-first so the shortest list
    // drives and the long lists are only probed (DESIGN.md §7.2).
    std::vector<uint32_t> by_df = terms;
    std::sort(by_df.begin(), by_df.end(), [&leaves](uint32_t a, uint32_t b) {
      const uint32_t da = leaves.Range(a).len, db = leaves.Range(b).len;
      return da != db ? da < db : a < b;
    });
    using Source = typename Leaves::Source;
    std::vector<compress::SortedCursor<Source>> cursors(by_df.size());
    for (size_t i = 0; i < by_df.size(); ++i) {
      const TermRange r = leaves.Range(by_df[i]);
      X100IR_RETURN_IF_ERROR(
          cursors[i].Init(leaves.docid_windows(), r.begin, r.begin + r.len));
    }
    root = std::make_unique<vec::StreamingJoinOperator<Source>>(
        &ctx, std::move(cursors));
  } else {
    std::vector<vec::OperatorPtr> children;
    children.reserve(terms.size());
    for (uint32_t t : terms) {
      children.push_back(MakeTermScan(leaves, &ctx, t, /*with_tf=*/false));
    }
    root = std::make_unique<MergeUnionOperator>(&ctx, std::move(children),
                                                /*sum_scores=*/false);
  }
  X100IR_RETURN_IF_ERROR(root->Open());
  vec::Batch* b = nullptr;
  for (;;) {
    // Deadline checkpoint: once per batch (§9.3), so an expiring query
    // surfaces within one vector's worth of work, with its partial stats.
    if (opts.deadline != nullptr) {
      Status live = opts.deadline->Check();
      if (!live.ok()) {
        root->Close();
        result->stats = ctx.stats;
        return live;
      }
    }
    X100IR_RETURN_IF_ERROR(root->Next(&b));
    if (b == nullptr) break;
    const int32_t* docids = b->columns[0]->Data<int32_t>();
    if (opts.tombstones == nullptr) {
      result->num_matches += b->count;
      const uint32_t room =
          opts.k > result->docids.size()
              ? opts.k - static_cast<uint32_t>(result->docids.size())
              : 0;
      const uint32_t take = std::min(room, b->count);
      result->docids.insert(result->docids.end(), docids, docids + take);
    } else {
      // Segmented read with deletes: only live docids count toward
      // num_matches and the k cap, so the result matches an index rebuilt
      // without the deleted documents.
      for (uint32_t i = 0; i < b->count; ++i) {
        if (TombstoneTest(opts.tombstones, docids[i])) continue;
        ++result->num_matches;
        if (result->docids.size() < opts.k) {
          result->docids.push_back(docids[i]);
        }
      }
    }
  }
  root->Close();
  result->stats = ctx.stats;
  return OkStatus();
}

// The score-all ranked plan over `terms` (PrepareQuery's, every one with
// postings): Scan(docid, tf) → Bm25Score per term, children in ascending
// term order — the float addition order of every score sum — then
// MergeUnion(sum scores) → TopK(opts.k, opts.tombstones), drained with a
// deadline checkpoint before every batch (§9.3). Sets result->num_matches
// to the rows the top-k consumed and result->stats on every exit past
// Open — a DeadlineExceeded result keeps its partial accounting.
template <class Leaves>
Status SearchBm25(const Leaves& leaves, const std::vector<uint32_t>& terms,
                  const SearchOptions& opts, SearchResult* result) {
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  const double avgdl = leaves.avg_doc_len();
  const float inv_avgdl =
      avgdl > 0.0 ? static_cast<float>(1.0 / avgdl) : 0.0f;
  std::vector<vec::OperatorPtr> scored;
  scored.reserve(terms.size());
  for (uint32_t t : terms) {
    scored.push_back(std::make_unique<Bm25ScoreOperator>(
        &ctx, MakeTermScan(leaves, &ctx, t, /*with_tf=*/true), leaves.Idf(t),
        opts.bm25, leaves.doc_lens(), inv_avgdl));
  }
  TopKOperator topk(&ctx,
                    std::make_unique<MergeUnionOperator>(
                        &ctx, std::move(scored), /*sum_scores=*/true),
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
  result->stats = ctx.stats;
  return s;
}

}  // namespace x100ir::ir

#endif  // X100IR_IR_PLAN_OPS_H_
