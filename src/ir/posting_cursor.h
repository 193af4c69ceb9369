// Skip-aware access to one term's postings — the adapter between the
// compressed TD.docid column (index_builder.h) and the streaming join:
//
//   DocidSkipCursor — vec::SkipCursor over the term's slice of TD.docid,
//     backed by compress::SortedRangeCursor so SkipTo decodes only windows
//     that can contain the probe. Decode/skip counters fold into the plan's
//     ExecStats at Close.
//
// A per-query object over borrowed index state (the index must outlive
// it), like SliceVectorSource.
#ifndef X100IR_IR_POSTING_CURSOR_H_
#define X100IR_IR_POSTING_CURSOR_H_

#include <cstdint>

#include "common/status.h"
#include "compress/skip_cursor.h"
#include "ir/index_builder.h"
#include "vec/streaming_merge.h"

namespace x100ir::ir {

// Folds a skip cursor's window counters into a plan's ExecStats.
inline void AddSkipStats(const compress::SkipStats& s, vec::ExecStats* out) {
  out->windows_decoded += s.windows_decoded;
  out->windows_skipped += s.windows_skipped;
  out->windows_blockmax_skipped += s.windows_blockmax_skipped;
}

class DocidSkipCursor : public vec::SkipCursor {
 public:
  // Cursor over the postings of `term`.
  Status Init(const InvertedIndex* index, uint32_t term) {
    if (index == nullptr) return InvalidArgument("null index");
    if (term >= index->vocab_size()) {
      return InvalidArgument("term outside vocabulary");
    }
    const TermInfo& info = index->term(term);
    return cursor_.Init(index->docid_decoder(), info.posting_start,
                        info.posting_start + info.doc_freq);
  }

  bool AtEnd() override { return cursor_.AtEnd(); }
  int32_t value() override { return cursor_.value(); }
  uint64_t position() override { return cursor_.position(); }
  bool Next() override { return cursor_.Next(); }
  bool SkipTo(int32_t target) override { return cursor_.SkipTo(target); }

  void FoldStats(vec::ExecStats* stats) override {
    AddSkipStats(cursor_.stats(), stats);
  }

 private:
  compress::SortedRangeCursor cursor_;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_POSTING_CURSOR_H_
