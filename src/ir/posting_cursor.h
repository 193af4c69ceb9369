// Skip-aware access to one term's postings — the adapters between the
// compressed TD columns (index_builder.h) and the streaming operators:
//
//   DocidSkipCursor — vec::SkipCursor over the term's slice of TD.docid,
//     backed by compress::SortedRangeCursor so SkipTo decodes only windows
//     that can contain the probe. Decode/skip counters fold into the plan's
//     ExecStats at Close.
//   TfWindowReader — random access to TD.tf at posting positions, cached
//     per 128-value window. tf is only read for postings that actually get
//     scored, so a skipped docid window never costs a tf decode — and a
//     MaxScore probe that misses costs neither.
//
// Both are per-query objects over borrowed index state (the index must
// outlive them), like SliceVectorSource.
#ifndef X100IR_IR_POSTING_CURSOR_H_
#define X100IR_IR_POSTING_CURSOR_H_

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "compress/skip_cursor.h"
#include "ir/index_builder.h"
#include "vec/streaming_merge.h"

namespace x100ir::ir {

class DocidSkipCursor : public vec::SkipCursor {
 public:
  // Cursor over postings [start + offset, start + doc_freq) of `term`.
  // A nonzero offset resumes mid-list — how MaxScore turns a demoted
  // term's already-advanced stream into a probe cursor.
  Status Init(const InvertedIndex* index, uint32_t term,
              uint64_t offset = 0) {
    if (index == nullptr) return InvalidArgument("null index");
    if (term >= index->vocab_size()) {
      return InvalidArgument("term outside vocabulary");
    }
    const TermInfo& info = index->term(term);
    if (offset > info.doc_freq) {
      return InvalidArgument("posting offset past the list");
    }
    return cursor_.Init(index->docid_decoder(), info.posting_start + offset,
                        info.posting_start + info.doc_freq);
  }

  bool AtEnd() override { return cursor_.AtEnd(); }
  int32_t value() override { return cursor_.value(); }
  uint64_t position() override { return cursor_.position(); }
  bool Next() override { return cursor_.Next(); }
  bool SkipTo(int32_t target) override { return cursor_.SkipTo(target); }

  void FoldStats(vec::ExecStats* stats) override {
    stats->windows_decoded += cursor_.stats().windows_decoded;
    stats->windows_skipped += cursor_.stats().windows_skipped;
    stats->windows_blockmax_skipped +=
        cursor_.stats().windows_blockmax_skipped;
  }

  // The underlying range cursor, for window-granular drivers (the Block-Max
  // MaxScore refill loop: CurrentWindowIndex / SkipCurrentWindowBlockMax /
  // CurrentRunView / AdvanceTo).
  compress::SortedRangeCursor& range_cursor() { return cursor_; }

 private:
  compress::SortedRangeCursor cursor_;
};

class TfWindowReader {
 public:
  // The source must outlive the reader (the index's whole-table tf column).
  void Init(const vec::VectorSource* tf_source) {
    src_ = tf_source;
    win_base_ = kNoWindow;
    windows_decoded_ = 0;
  }

  // tf at absolute posting position `pos` (caller guarantees in-range).
  int32_t TfAt(uint64_t pos) {
    const uint64_t base = pos & ~static_cast<uint64_t>(kStride - 1);
    if (base != win_base_) {
      win_base_ = base;
      const uint32_t len = static_cast<uint32_t>(
          std::min<uint64_t>(kStride, src_->size() - base));
      src_->Read(base, len, win_);
      ++windows_decoded_;
    }
    return win_[pos - win_base_];
  }

  uint64_t windows_decoded() const { return windows_decoded_; }

 private:
  static constexpr uint32_t kStride = compress::kEntryPointStride;
  static constexpr uint64_t kNoWindow = ~0ull;

  const vec::VectorSource* src_ = nullptr;
  uint64_t win_base_ = kNoWindow;
  int32_t win_[kStride];
  uint64_t windows_decoded_ = 0;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_POSTING_CURSOR_H_
