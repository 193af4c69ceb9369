// Streaming, skip-aware merge-join — the conjunctive (BoolAND) executor,
// and the inverted-list intersection of the paper's relational IR
// formulation: a conjunctive query is a merge-join of posting lists on
// docid (DESIGN.md §7.2).
//
// The operator drives the one skip cursor, compress::SortedCursor<Source>
// (compress/skip_cursor.h), held by value, with a leapfrog intersection:
// take the head of one list as the candidate, SkipTo(candidate) on each
// other list; any overshoot becomes the new candidate, and agreement by all
// children emits a row. Each SkipTo lands directly on the first window that
// can contain the probe, so a selective conjunction decodes only a sliver
// of the long lists — the cost profile of a hand-built DAAT engine, reached
// through the relational operator tree. `Source` is where the windows come
// from: a segment's resident compressed block (ResidentWindows) or a write
// buffer's copied array (ArrayWindows).
//
// Children must be strictly increasing (docids are unique per list). The
// engine passes cursors rarest-first: the shortest list is the candidate
// generator, so probe count is O(shortest), and the window search inside
// SkipTo makes each probe logarithmic in the distance jumped.
#ifndef X100IR_VEC_STREAMING_MERGE_H_
#define X100IR_VEC_STREAMING_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "compress/skip_cursor.h"
#include "vec/scan.h"
#include "vec/vector.h"

namespace x100ir::vec {

// First index in v[lo..n) with v[index] >= key (n if none): exponential
// probe from lo, then binary search inside the bracketed run. Cheap when
// the answer is near lo (dense intersections degrade to two-pointer), and
// logarithmic in the skip distance when it is far (sparse-vs-dense skew).
// The custom engine's MaxScore skips use it.
inline uint32_t GallopLowerBound(const int32_t* v, uint32_t lo, uint32_t n,
                                 int32_t key) {
  if (lo >= n || v[lo] >= key) return lo;
  // 64-bit probe arithmetic: with n - prev > 2^31 a uint32 step would
  // double to 0 and the probe loop would never advance again.
  uint64_t step = 1;
  uint64_t prev = lo;
  // Invariant: v[prev] < key.
  while (step < n - prev && v[prev + step] < key) {
    prev += step;
    step <<= 1;
  }
  const uint64_t hi = std::min<uint64_t>(n, prev + step);
  return static_cast<uint32_t>(
      std::lower_bound(v + prev + 1, v + hi, key) - v);
}

// Folds a skip cursor's window counters into a plan's ExecStats.
inline void AddSkipStats(const compress::SkipStats& s, ExecStats* out) {
  out->windows_decoded += s.windows_decoded;
  out->windows_skipped += s.windows_skipped;
  out->windows_blockmax_skipped += s.windows_blockmax_skipped;
}

// N-ary streaming intersection of initialized cursors on their values.
// Output: one dense i32 docid column, strictly increasing.
// Constant memory: one output vector, no materialization. The cursors'
// window counters fold into the context's ExecStats at Close (called once).
template <class Source>
class StreamingJoinOperator : public Operator {
 public:
  using Cursor = compress::SortedCursor<Source>;

  StreamingJoinOperator(ExecContext* ctx, std::vector<Cursor> cursors)
      : ctx_(ctx), cursors_(std::move(cursors)) {}

  Status Open() override {
    if (cursors_.empty()) {
      return InvalidArgument("streaming merge-join needs at least one cursor");
    }
    if (ctx_ == nullptr) {
      return InvalidArgument(
          "streaming merge-join needs an execution context");
    }
    X100IR_RETURN_IF_ERROR(ctx_->Validate());
    out_docid_.Reset(ctx_->vector_size);
    batch_.columns = {&out_docid_};
    // An empty child empties the intersection before any probing starts.
    done_ = std::any_of(cursors_.begin(), cursors_.end(),
                        [](const Cursor& c) { return c.AtEnd(); });
    return OkStatus();
  }

  Status Next(Batch** out) override {
    if (out == nullptr) return InvalidArgument("null output");
    int32_t* dst = out_docid_.Data<int32_t>();
    uint32_t filled = 0;
    const size_t n = cursors_.size();
    while (!done_ && filled < ctx_->vector_size) {
      // Leapfrog: candidate from cursor 0 (rarest list), every overshoot by
      // another cursor becomes the new candidate until all n agree.
      int32_t d = cursors_[0].value();
      size_t agree = 1;
      size_t i = 1 % n;
      while (agree < n) {
        if (!cursors_[i].SkipTo(d)) {
          done_ = true;
          break;
        }
        const int32_t v = cursors_[i].value();
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
      if (!cursors_[0].Next()) done_ = true;
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
    if (ctx_ == nullptr) return;
    for (const Cursor& c : cursors_) AddSkipStats(c.stats(), &ctx_->stats);
  }

 private:
  ExecContext* ctx_;
  std::vector<Cursor> cursors_;
  Vector out_docid_;
  Batch batch_;
  bool done_ = false;
};

}  // namespace x100ir::vec

#endif  // X100IR_VEC_STREAMING_MERGE_H_
