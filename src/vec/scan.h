// Vector-at-a-time (Volcano-with-vectors) operator interface and the leaf
// scan operator. Operators pull dense batches of up to
// ExecContext::vector_size rows — the §4 demonstration knob
// bench_vector_size sweeps: size 1
// degenerates to tuple-at-a-time interpretation, huge sizes spill the
// cache, the optimum sits in between.
#ifndef X100IR_VEC_SCAN_H_
#define X100IR_VEC_SCAN_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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
// stay valid until its next Next()/Close().
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  virtual Status Next(Batch** out) = 0;
  virtual void Close() {}

  const Schema& schema() const { return schema_; }

 protected:
  Schema schema_;
};

using OperatorPtr = std::unique_ptr<Operator>;

// A readable column: the scan's abstraction over in-memory arrays
// (MemVectorSource) and compressed blocks decoded on the fly via
// BlockDecoder::Decode range decode (BlockVectorSource) — both in
// mem_source.h.
class VectorSource {
 public:
  virtual ~VectorSource() = default;

  virtual uint64_t size() const = 0;
  virtual TypeId type() const = 0;
  // Fills dst[0..len) with values [pos, pos + len); the caller guarantees
  // pos + len <= size().
  virtual void Read(uint64_t pos, uint32_t len, void* dst) const = 0;
};

using VectorSourcePtr = std::unique_ptr<VectorSource>;

// Leaf operator: streams the sources' columns in lockstep, vector_size
// values per Next(). All sources must have equal size and match the
// schema's column count and types.
class ScanOperator : public Operator {
 public:
  ScanOperator(ExecContext* ctx, Schema schema,
               std::vector<VectorSourcePtr> sources);

  Status Open() override;
  Status Next(Batch** out) override;
  void Close() override;

 private:
  ExecContext* ctx_;
  std::vector<VectorSourcePtr> sources_;
  std::vector<Vector> vectors_;
  Batch batch_;
  uint64_t pos_ = 0;
  uint64_t n_ = 0;
};

}  // namespace x100ir::vec

#endif  // X100IR_VEC_SCAN_H_
