// Vector-at-a-time (Volcano-with-vectors) operator interface and the leaf
// scan operator. Operators pull dense batches of up to
// ExecContext::vector_size rows — the §4 demonstration knob
// bench_vector_size sweeps: size 1
// degenerates to tuple-at-a-time interpretation, huge sizes spill the
// cache, the optimum sits in between.
#ifndef X100IR_VEC_SCAN_H_
#define X100IR_VEC_SCAN_H_

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "vec/vector.h"

namespace x100ir::vec {

// Per-query execution telemetry, accumulated by the operators of one plan
// into the shared ExecContext and surfaced through SearchResult::stats.
// Counters are only incremented by code that actually did the work, so
// tests and the bench gates can assert that skipping *happened* (e.g.
// windows_skipped > 0 on a selective conjunctive query) instead of trusting
// wall-clock.
struct ExecStats {
  // Compressed 128-value docid windows range-decoded by skip cursors.
  uint64_t windows_decoded = 0;
  // Windows a SkipTo jumped over without decoding (block skipping).
  uint64_t windows_skipped = 0;
  // Windows rejected by a Block-Max score bound without decoding (the
  // per-window BM25 upper bound could not beat θ). With windows_decoded
  // and windows_skipped this partitions a cursor's candidate windows
  // exactly (SkipStats invariant, DESIGN.md §12.4).
  uint64_t windows_blockmax_skipped = 0;
  // tf windows decoded for scoring/probes (separate column, separate cost).
  uint64_t tf_windows_decoded = 0;
  // tf windows scored by the fused decode→score kernel (never materialized
  // as an int32 vector; counted against tf_windows_decoded's two-step
  // path).
  uint64_t fused_windows = 0;
  // Vectorized kernel invocations (map/select/fused-score primitives).
  uint64_t primitive_calls = 0;
  // Whole term vectors never decoded/scored because the term fell below
  // the top-k threshold (MaxScore pruning).
  uint64_t vectors_pruned = 0;
  // Individual non-essential-list lookups during MaxScore completion.
  uint64_t docs_probed = 0;

  ExecStats& operator+=(const ExecStats& o) {
    windows_decoded += o.windows_decoded;
    windows_skipped += o.windows_skipped;
    windows_blockmax_skipped += o.windows_blockmax_skipped;
    tf_windows_decoded += o.tf_windows_decoded;
    fused_windows += o.fused_windows;
    primitive_calls += o.primitive_calls;
    vectors_pruned += o.vectors_pruned;
    docs_probed += o.docs_probed;
    return *this;
  }
};

// Per-query execution knobs, shared by every operator in a plan.
struct ExecContext {
  // Largest vector any operator will allocate. Past ~1M values a single
  // column vector is 4 MB — far beyond any cache level, so bigger sizes
  // only waste memory; callers sweeping the knob (bench_vector_size) get
  // clamped instead of OOM-ing the plan.
  static constexpr uint32_t kMaxVectorSize = 1u << 20;

  uint32_t vector_size = 1024;

  // Filled in by the plan's operators as they run; read (and reset) by the
  // engine around each query.
  ExecStats stats;

  // Called by every operator at Open: vector_size arrives from user-facing
  // APIs (SearchOptions), so the plan rejects 0 and clamps oversizes here
  // instead of trusting callers. Mutates in place; idempotent, so N
  // operators sharing one context can all validate.
  Status Validate() {
    if (vector_size == 0) {
      return InvalidArgument("vector_size must be > 0");
    }
    if (vector_size > kMaxVectorSize) vector_size = kMaxVectorSize;
    return OkStatus();
  }
};

// Pull-based operator. Lifecycle: Open() once, Next() until *out == nullptr
// (end of stream), Close() once. The returned Batch is dense (all `count`
// rows live; an operator that filters keeps its selection vector to
// itself) and it and everything it points at belong to the operator and
// stay valid until its next Next()/Close(). Which columns a batch carries,
// and their types, is fixed by the plan's templates (ir/plan_ops.h), not
// checked at run time.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  virtual Status Next(Batch** out) = 0;
  virtual void Close() {}
};

using OperatorPtr = std::unique_ptr<Operator>;

// Leaf operator: positions [begin, begin + len) of an i32 column — one
// term's docids — and of a parallel i32 column (its tfs) when given, read
// through their window sources (compress/skip_cursor.h: a resident block's
// range decode or an array's copy) straight into the output vectors,
// vector_size values per Next(). It keeps no window across calls: each
// vector decodes only the 128-value windows it overlaps. Open rejects a
// range outside either column, as SortedCursor::Init does. Output: (docid)
// or (docid, tf).
template <class Source>
class ScanOperator : public Operator {
 public:
  ScanOperator(ExecContext* ctx, const Source& docids, uint64_t begin,
               uint64_t len)
      : ctx_(ctx), docids_(docids), begin_(begin), end_(begin + len) {}
  ScanOperator(ExecContext* ctx, const Source& docids, const Source& tfs,
               uint64_t begin, uint64_t len)
      : ctx_(ctx),
        docids_(docids),
        tfs_(tfs),
        with_tf_(true),
        begin_(begin),
        end_(begin + len) {}

  Status Open() override {
    if (ctx_ == nullptr) {
      return InvalidArgument("scan needs an execution context");
    }
    X100IR_RETURN_IF_ERROR(ctx_->Validate());
    if (end_ < begin_ || end_ > docids_.size() ||
        (with_tf_ && end_ > tfs_.size())) {
      return InvalidArgument("scan range out of bounds");
    }
    docid_vec_.Reset(ctx_->vector_size);
    if (with_tf_) {
      tf_vec_.Reset(ctx_->vector_size);
      batch_.columns = {&docid_vec_, &tf_vec_};
    } else {
      batch_.columns = {&docid_vec_};
    }
    pos_ = begin_;
    return OkStatus();
  }

  Status Next(Batch** out) override {
    if (out == nullptr) return InvalidArgument("null output");
    if (pos_ >= end_) {
      *out = nullptr;
      return OkStatus();
    }
    const auto len =
        static_cast<uint32_t>(std::min<uint64_t>(ctx_->vector_size,
                                                 end_ - pos_));
    docids_.Read(pos_, len, docid_vec_.Data<int32_t>());
    if (with_tf_) tfs_.Read(pos_, len, tf_vec_.Data<int32_t>());
    pos_ += len;
    batch_.count = len;
    *out = &batch_;
    return OkStatus();
  }

  void Close() override { pos_ = end_; }

 private:
  ExecContext* ctx_;
  Source docids_;
  Source tfs_;
  bool with_tf_ = false;
  uint64_t begin_;
  uint64_t end_;
  uint64_t pos_ = end_;  // a Next before Open ends the stream
  Vector docid_vec_, tf_vec_;
  Batch batch_;
};

}  // namespace x100ir::vec

#endif  // X100IR_VEC_SCAN_H_
