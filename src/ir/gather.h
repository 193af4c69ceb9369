// The one gather (DESIGN.md §10.2, §11.2): folds per-part results — the
// segments and delta buffers of a snapshot, the shards of a cluster — into
// one result in global docid space, never re-scoring: ranked runs merge
// each part's rank-sorted top-k list into a running top-k list as the part
// arrives, boolean runs take the first k of their concatenated
// docid-ordered lists.
#ifndef X100IR_IR_GATHER_H_
#define X100IR_IR_GATHER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/shared_theta.h"
#include "ir/search_engine.h"
#include "ir/topk.h"

namespace x100ir::ir {

class Gather {
 public:
  // `out` must be freshly reset: it takes each part's accounting as the
  // part arrives, and the merged docids and scores at Finish. `theta` is
  // the read's shared θ channel, or null: once the running ranked list
  // holds k entries, every Add raises it to the list's k-th score, a
  // proven lower bound on the read's k-th best, so a part searched after
  // this one prunes against everything merged so far.
  Gather(RunType type, uint32_t k, SearchResult* out, SharedTheta* theta)
      : ranked_(IsRankedRun(type)), k_(k), out_(out), theta_(theta) {}

  // Parts arrive in ascending global docid order, each mapped by a strictly
  // increasing `to_global`, so boolean lists concatenate docid-sorted and
  // a ranked list keeps its rank order.
  template <typename ToGlobal>
  void Add(SearchResult&& part, ToGlobal to_global) {
    out_->MergeAccounting(part);
    if (part.docids.empty()) return;
    for (int32_t& d : part.docids) d = to_global(d);
    if (docids_.empty()) {
      // The first contributing part passes through: it is already in order.
      docids_ = std::move(part.docids);
      scores_ = std::move(part.scores);
    } else if (ranked_) {
      MergeRanked(part.docids, part.scores);
    } else {
      docids_.insert(docids_.end(), part.docids.begin(), part.docids.end());
      scores_.insert(scores_.end(), part.scores.begin(), part.scores.end());
    }
    if (ranked_ && theta_ != nullptr && docids_.size() >= k_) {
      theta_->RaiseTo(scores_[k_ - 1]);
    }
  }

  void Finish() {
    if (docids_.size() > k_) docids_.resize(k_);  // boolean: the first k
    out_->docids = std::move(docids_);
    out_->scores = std::move(scores_);
  }

 private:
  // One linear merge of two rank-sorted runs — the running list and the
  // part — cut at k. Rank keys make the (score desc, docid asc) compare one
  // integer compare; the scores themselves are copied, never decoded, so
  // they pass through bit for bit. The merge writes into the spare vectors
  // and swaps them in, so a gather allocates its spares once.
  void MergeRanked(const std::vector<int32_t>& docids,
                   const std::vector<float>& scores) {
    const size_t na = docids_.size();
    const size_t nb = docids.size();
    const size_t n = std::min<size_t>(k_, na + nb);
    spare_docids_.resize(n);
    spare_scores_.resize(n);
    size_t a = 0, b = 0;
    for (size_t o = 0; o < n; ++o) {
      const bool take_a =
          b == nb || (a < na && RankKey(scores_[a], docids_[a]) >
                                    RankKey(scores[b], docids[b]));
      if (take_a) {
        spare_docids_[o] = docids_[a];
        spare_scores_[o] = scores_[a++];
      } else {
        spare_docids_[o] = docids[b];
        spare_scores_[o] = scores[b++];
      }
    }
    docids_.swap(spare_docids_);
    scores_.swap(spare_scores_);
  }

  const bool ranked_;
  const uint32_t k_;
  SearchResult* const out_;
  SharedTheta* const theta_;
  std::vector<int32_t> docids_;
  std::vector<float> scores_;
  std::vector<int32_t> spare_docids_;
  std::vector<float> spare_scores_;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_GATHER_H_
