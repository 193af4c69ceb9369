// Per-term posting leaves: what the scan and join plans (plan_ops.h) read a
// structure's postings through, so a segment and a write buffer run the
// same plans (DESIGN.md §6.2, §10.2). Leaves supply the window sources
// (`Source`, compress/skip_cursor.h) of the whole docid column
// (docid_windows()) and of the parallel tf column (value_windows()), which
// a plan's scans read and its skip cursors search over Range(t); document
// lengths by structure-local docid; and the BM25 statistics the scores
// follow (Idf(t), avg_doc_len()). A segment's leaves are MemPostings
// (search_engine.cc), over its compressed TD columns; a write buffer's are
// DeltaLeaves below. Plans ask only for terms the read's PrepareQuery kept
// for the structure.
#ifndef X100IR_IR_POSTING_CURSOR_H_
#define X100IR_IR_POSTING_CURSOR_H_

#include <algorithm>
#include <cstdint>

#include "compress/skip_cursor.h"
#include "ir/bm25.h"
#include "ir/collection_stats.h"
#include "ir/delta_segment.h"

namespace x100ir::ir {

// One term's postings: positions [begin, begin + len) of the columns.
struct TermRange {
  uint64_t begin = 0;
  uint32_t len = 0;
};

// A write buffer's postings, copied out for one read: compress::ArrayWindows
// over the copy, which must outlive every plan built from them. `stats` is
// the read's collection model.
class DeltaLeaves {
 public:
  using Source = compress::ArrayWindows;

  DeltaLeaves(const DeltaPostings& copy, const CollectionStats& stats)
      : copy_(copy), stats_(stats) {}

  // t must be one of the copied terms.
  TermRange Range(uint32_t t) const {
    const size_t i =
        std::lower_bound(copy_.terms.begin(), copy_.terms.end(), t) -
        copy_.terms.begin();
    return {copy_.begin[i], copy_.begin[i + 1] - copy_.begin[i]};
  }
  Source docid_windows() const {
    return Source(copy_.docids.data(), copy_.docids.size());
  }
  Source value_windows() const {
    return Source(copy_.tfs.data(), copy_.tfs.size());
  }
  const int32_t* doc_lens() const { return copy_.doc_lens.data(); }
  float Idf(uint32_t t) const { return Bm25Idf(stats_.num_docs, stats_.df[t]); }
  double avg_doc_len() const { return stats_.avg_doc_len; }

 private:
  const DeltaPostings& copy_;
  const CollectionStats& stats_;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_POSTING_CURSOR_H_
