// Top-k selection for ranked runs, in two layers:
//
//   - TopK: a bounded min-heap of rank keys (one uint64_t per entry, see
//     RankKey). The weakest kept entry sits at the root, so admission is
//     one integer compare and the running threshold is O(1).
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
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ir/collection_stats.h"
#include "vec/primitives.h"
#include "vec/scan.h"

namespace x100ir::ir {

// The engine's rank order as one unsigned integer: a larger key ranks
// first. The high word maps the score's float bits so that unsigned order is
// float order (a negative has every bit flipped, a non-negative only its
// sign bit); the low word is the docid XOR 0x7FFFFFFF, which turns int32
// order into reversed unsigned order, so the lower docid gets the larger
// key. Keys therefore order exactly as (score desc, docid asc) for every
// finite score and every int32 docid. −0.0 is folded into +0.0 (x + 0.0f)
// before mapping, so the two tie as they do under float compare, and a
// −0.0 score decodes as +0.0; no ranked path produces one (idf > 0,
// tf >= 1). NaN has no rank.
inline uint64_t RankKey(float score, int32_t docid) {
  const float folded = score + 0.0f;
  uint32_t bits;
  std::memcpy(&bits, &folded, sizeof(bits));
  bits ^= (bits & 0x80000000u) != 0 ? 0xFFFFFFFFu : 0x80000000u;
  return (static_cast<uint64_t>(bits) << 32) |
         (static_cast<uint32_t>(docid) ^ 0x7FFFFFFFu);
}

inline float RankKeyScore(uint64_t key) {
  uint32_t bits = static_cast<uint32_t>(key >> 32);
  bits ^= (bits & 0x80000000u) != 0 ? 0x80000000u : 0xFFFFFFFFu;
  float score;
  std::memcpy(&score, &bits, sizeof(score));
  return score;
}

inline int32_t RankKeyDocid(uint64_t key) {
  return static_cast<int32_t>(static_cast<uint32_t>(key) ^ 0x7FFFFFFFu);
}

class TopK {
 public:
  // k must be > 0 (PrepareQuery and TopKOperator::Open refuse 0). The heap
  // reserves k entries up front, capped so that a huge k (k is unbounded,
  // e.g. "every match") allocates only as the stream fills it.
  explicit TopK(uint32_t k) : k_(k) {
    heap_.reserve(std::min<uint32_t>(k, kReserveCap));
  }

  uint32_t k() const { return k_; }
  bool full() const { return heap_.size() >= k_; }

  // Scores strictly below the threshold can never be admitted. Until the
  // heap fills this is -inf (everything is a candidate). Cached whenever
  // the root changes.
  float threshold() const { return threshold_; }

  void Push(int32_t docid, float score) {
    const uint64_t key = RankKey(score, docid);
    if (!full()) {
      heap_.push_back(key);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<uint64_t>());
      if (full()) threshold_ = RankKeyScore(heap_.front());
      return;
    }
    if (key > heap_.front()) {
      SiftDownFromRoot(key);
      threshold_ = RankKeyScore(heap_.front());
    }
  }

  // Drains the heap in rank order (score desc, docid asc) and resets it.
  void FinishSorted(std::vector<int32_t>* docids,
                    std::vector<float>* scores) {
    std::sort(heap_.begin(), heap_.end());  // ascending: weakest first
    const size_t n = heap_.size();
    docids->resize(n);
    scores->resize(n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = heap_[n - 1 - i];
      (*docids)[i] = RankKeyDocid(key);
      (*scores)[i] = RankKeyScore(key);
    }
    heap_.clear();
    threshold_ = -std::numeric_limits<float>::infinity();
  }

 private:
  static constexpr uint32_t kReserveCap = 4096;

  // Replaces the root with `key` and restores the heap: the hole walks down
  // along the smaller child until `key` fits. The layout is the standard
  // library's (children of i at 2i+1 and 2i+2), so it composes with the
  // std::push_heap that fills the heap.
  void SiftDownFromRoot(uint64_t key) {
    uint64_t* h = heap_.data();
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && h[child + 1] < h[child]) ++child;
      if (key <= h[child]) break;
      h[i] = h[child];
      i = child;
    }
    h[i] = key;
  }

  uint32_t k_;
  // A min-heap of rank keys: the weakest kept entry is at the root.
  std::vector<uint64_t> heap_;
  float threshold_ = -std::numeric_limits<float>::infinity();
};

// Plan root for ranked runs. Child columns: (docid i32, score f32). Output:
// the same columns, rows in rank order, emitted vector-at-a-time.
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
      out_docid_.Reset(ctx_->vector_size);
      out_score_.Reset(ctx_->vector_size);
      batch_.columns = {&out_docid_, &out_score_};
    }
    std::copy_n(result_docids_.data() + pos_, len,
                out_docid_.Data<int32_t>());
    std::copy_n(result_scores_.data() + pos_, len, out_score_.Data<float>());
    pos_ += len;
    batch_.count = len;
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
        rows_consumed_ += b->count;
        // Branch-free candidate filter: >= (not >) so a score tying the
        // current kth can still win on the docid tiebreak inside Push.
        const uint32_t n_cand = vec::SelectColVal<vec::GeCmp, float>(
            b->count, nullptr, 0, cand_sel_.data(), scores,
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
        for (uint32_t i = 0; i < b->count; ++i) {
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
