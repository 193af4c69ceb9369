// One immutable segment of the segmented index (DESIGN.md §10): a compressed
// InvertedIndex over a subset of the global document space, plus the
// local→global docid map that places it there. On disk every segment has
// its own directory, dir/seg_<id>/.
//
// Every segment has a forward store, a compressed Corpus of its documents
// (DESIGN.md §3.1), which serves delete accounting and the merges'
// forward copies. Two ways a segment comes to exist:
//   Build — seg_0, built at a database's first open, inverts the
//     database's corpus, borrows it as its forward store, and maps docids
//     by the identity. A merge's output gets its TD table from the
//     posting-list merge and owns the forward store the merge encoded from
//     its inputs' live documents; it persists its strictly-increasing
//     global docid list as segment.meta.
//   Load  — a manifest reopen: the index loads from its side tables and
//     columns. seg_0 borrows the corpus again once its side tables match
//     the corpus's. A merged segment reads its docid map from segment.meta
//     and transposes its TD columns into a forward store, one chunk of
//     documents at a time.
//
// Retirement: after a merge commits, the SnapshotManager marks replaced
// segments retire-on-release and drops its reference; in-flight snapshots
// keep them alive (shared_ptr refcount = the pin count). The LAST release
// runs the destructor, which removes the segment's directory; its column
// readers then close and drop their own pages from the shared buffer pool
// (BufferManager::EvictFile — exactly the dead pages drop, hot segments
// stay hot).
#ifndef X100IR_IR_SEGMENT_H_
#define X100IR_IR_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/corpus.h"
#include "ir/index_builder.h"

namespace x100ir::ir {

class Segment {
 public:
  // Builds seg_0 under `dir` from the database's corpus, borrowed as the
  // forward store (it must outlive the segment); the docid map is the
  // identity. Empty dir = in-memory segment. An Open waits on this build,
  // so its column jobs run concurrently (BuildMode::kConcurrent).
  static Status Build(const Corpus* corpus, const std::string& dir,
                      storage::BufferManager* pool,
                      std::unique_ptr<Segment>* out);

  // Builds a merged segment under `dir` (created if absent) from a
  // posting-list merge: `td` over merged-local docids, `forward` holding
  // the same documents in the same order, and `global_docids` (strictly
  // increasing, one per document) as the docid map. Empty dir = in-memory
  // segment. A merge runs beside live traffic, so its column jobs run
  // inline on the calling thread (BuildMode::kInline) and it starts no
  // thread.
  static Status Build(TdTable td, Corpus forward,
                      std::vector<int32_t> global_docids,
                      const std::string& dir, storage::BufferManager* pool,
                      uint32_t seg_id, std::unique_ptr<Segment>* out);

  // Reopens segment `seg_id` from `dir`. `corpus` is the database's; only
  // seg_0 uses it, as the table its side tables must match and as its
  // forward store. Any missing/torn/mismatched file is an error; the
  // caller rebuilds.
  static Status Load(const std::string& dir, storage::BufferManager* pool,
                     uint32_t seg_id, uint32_t expect_num_docs,
                     const Corpus* corpus, std::unique_ptr<Segment>* out);

  ~Segment();
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  uint32_t seg_id() const { return seg_id_; }
  uint32_t num_docs() const { return index_.num_docs(); }
  const std::string& dir() const { return dir_; }
  const InvertedIndex& index() const { return index_; }

  // Identity for seg_0; strictly increasing in `local` always, so local
  // result order IS global result order.
  bool identity_map() const { return docid_map_.empty(); }
  int32_t GlobalOf(int32_t local) const {
    return docid_map_.empty() ? local : docid_map_[local];
  }
  // Smallest global docid the segment could hold content for (segment
  // ordering when concatenating results).
  int32_t min_global() const {
    return docid_map_.empty() || num_docs() == 0 ? 0 : docid_map_.front();
  }
  // Local docid of `global`, or -1 when the segment doesn't hold it.
  int32_t LocalOf(int32_t global) const;

  // Forward store: the segment's documents by local docid.
  const Corpus& forward() const { return *forward_; }
  int32_t doc_len(uint32_t local) const { return forward_->doc_len(local); }

  // Arms directory removal on destruction (called by the merge that
  // replaced this segment, after the manifest no longer references it).
  void set_retire_on_release() {
    retire_.store(true, std::memory_order_release);
  }

 private:
  Segment() = default;

  uint32_t seg_id_ = 0;
  std::string dir_;
  std::atomic<bool> retire_{false};

  const Corpus* forward_ = nullptr;       // the corpus (seg_0) or owned_
  std::unique_ptr<Corpus> owned_;         // merged segments' forward store
  std::vector<int32_t> docid_map_;        // empty = identity
  InvertedIndex index_;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_SEGMENT_H_
