// The one gather (DESIGN.md §10.2, §11.2): folds per-part results — the
// segments and delta buffers of a snapshot, the shards of a cluster — into
// one result in global docid space, never re-scoring: ranked runs take the
// top k of the parts' top-k lists, boolean runs the first k of their
// concatenated docid-ordered lists.
#ifndef X100IR_IR_GATHER_H_
#define X100IR_IR_GATHER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ir/search_engine.h"

namespace x100ir::ir {

struct RankedDoc {
  float score;
  int32_t docid;
};

// The engine's rank order: score descending, docid ascending on exact
// float ties. Docids are unique, so it is a total order and a top-k under
// it does not depend on arrival order.
inline bool RankedBefore(const RankedDoc& a, const RankedDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.docid < b.docid;
}

class Gather {
 public:
  // `out` must be freshly reset: it takes each part's accounting as the
  // part arrives, and the merged docids and scores at Finish.
  Gather(RunType type, uint32_t k, SearchResult* out)
      : ranked_(IsRankedRun(type)), k_(k), out_(out) {}

  // Parts arrive in ascending global docid order, each mapped by a strictly
  // increasing `to_global`, so boolean lists concatenate docid-sorted and
  // a ranked list keeps its rank order.
  template <typename ToGlobal>
  void Add(SearchResult&& part, ToGlobal to_global) {
    out_->MergeAccounting(part);
    if (part.docids.empty()) return;
    for (int32_t& d : part.docids) d = to_global(d);
    if (docids_.empty()) {
      docids_ = std::move(part.docids);
      scores_ = std::move(part.scores);
    } else {
      docids_.insert(docids_.end(), part.docids.begin(), part.docids.end());
      scores_.insert(scores_.end(), part.scores.begin(), part.scores.end());
    }
    ++parts_;
  }

  // A single contributing part is already in order and passes through.
  // A ranked merge is written to fresh k-sized vectors: callers keep
  // results, and the concatenation can be many times k.
  void Finish() {
    if (ranked_ && parts_ > 1) {
      std::vector<RankedDoc> all(docids_.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = {scores_[i], docids_[i]};
      const size_t k = std::min<size_t>(k_, all.size());
      std::partial_sort(all.begin(), all.begin() + k, all.end(), RankedBefore);
      out_->docids.resize(k);
      out_->scores.resize(k);
      for (size_t i = 0; i < k; ++i) {
        out_->docids[i] = all[i].docid;
        out_->scores[i] = all[i].score;
      }
      return;
    }
    if (docids_.size() > k_) docids_.resize(k_);  // boolean: the first k
    out_->docids = std::move(docids_);
    out_->scores = std::move(scores_);
  }

 private:
  const bool ranked_;
  const uint32_t k_;
  SearchResult* const out_;
  std::vector<int32_t> docids_;
  std::vector<float> scores_;
  uint32_t parts_ = 0;  // parts that contributed a docid
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_GATHER_H_
