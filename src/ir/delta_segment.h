// The in-memory write buffer of the segmented index (DESIGN.md §10): newly
// added documents live here — uncompressed, forward (per-doc term lists)
// AND inverted (per-term posting vectors) — until a background merge
// compacts them into an immutable compressed Segment.
//
// Docid space: the delta owns the global docid range [base_docid, base +
// num_docs). Documents are append-only, so within every term's posting
// vector the docids ascend — the same invariant the compressed segments
// have, which keeps cross-structure result merging a concatenation.
//
// Snapshot reads (visible-prefix semantics): a snapshot captures the
// document count at acquire time and reads only postings whose doc index is
// below it. Appends after the capture are invisible to that snapshot, so a
// query sees one consistent document set without blocking writers for its
// whole duration. A read copies its terms' postings and the doc-length
// prefix out under one shared lock (the vectors reallocate under Add, so
// borrowed pointers would dangle) and runs the engine's plans over the copy
// (ir/snapshot_search.cc); the forward documents live in a deque, whose
// element references survive appends, so doc() returns without copying.
//
// Thread contract: Add under the writer lock; every accessor is safe
// concurrently with Add. Seal() flips the buffer read-only (merge prep);
// a sealed delta is scanned lock-free by convention but the accessors keep
// taking the shared lock anyway — uncontended, and TSan-clean by
// construction rather than by argument.
#ifndef X100IR_IR_DELTA_SEGMENT_H_
#define X100IR_IR_DELTA_SEGMENT_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ir/corpus.h"

namespace x100ir::ir {

// One read's copy of a delta's visible postings for a sorted term list:
// terms[i]'s postings are docids/tfs[begin[i], begin[i + 1]), delta-local
// doc indexes ascending, and doc_lens holds the visible documents' lengths
// by doc index (empty unless asked for).
struct DeltaPostings {
  std::vector<uint32_t> terms;
  std::vector<uint32_t> begin;
  std::vector<int32_t> docids;
  std::vector<int32_t> tfs;
  std::vector<int32_t> doc_lens;
};

class DeltaSegment {
 public:
  DeltaSegment(uint32_t vocab_size, int32_t base_docid)
      : vocab_size_(vocab_size), base_(base_docid), postings_(vocab_size) {}
  DeltaSegment(const DeltaSegment&) = delete;
  DeltaSegment& operator=(const DeltaSegment&) = delete;

  uint32_t vocab_size() const { return vocab_size_; }
  int32_t base_docid() const { return base_; }

  // Appends one document (normalized: terms strictly ascending, tfs > 0 —
  // the caller validated) and returns its global docid. Fails
  // FailedPrecondition on a sealed delta.
  Status Add(std::vector<DocTerm> doc, int32_t* global_docid);

  // Current document count (== how many are visible to a snapshot acquired
  // now).
  uint32_t num_docs() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return static_cast<uint32_t>(doc_lens_.size());
  }

  // Flips the buffer read-only; Add fails afterwards. Called by the merge
  // that adopts this delta as input, and again by WAL replay when a
  // DeltaSealed record re-seals a recovered delta. Idempotent: sealing a
  // sealed delta changes nothing (the double-recovery property test leans
  // on this — replaying the same log twice must not diverge).
  void Seal() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    sealed_ = true;
  }
  bool sealed() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return sealed_;
  }

  // Copies the postings with doc index < visible of each of `terms`
  // (sorted, below vocab_size()) and, when `with_doc_lens`, the first
  // `visible` doc lengths into *out, under one shared lock. Overwrites *out
  // and reuses its capacity.
  void CollectPostings(const std::vector<uint32_t>& terms, uint32_t visible,
                       bool with_doc_lens, DeltaPostings* out) const;

  // Per-document forward access, valid for local < the visible count the
  // caller captured. doc()'s reference stays valid across concurrent Adds
  // (deque-backed).
  int32_t doc_len(uint32_t local) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return doc_lens_[local];
  }
  const std::vector<DocTerm>& doc(uint32_t local) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return docs_[local];
  }

 private:
  const uint32_t vocab_size_;
  const int32_t base_;

  mutable std::shared_mutex mu_;
  bool sealed_ = false;
  // Inverted: postings_[t] = (delta-local doc index, tf), index ascending.
  std::vector<std::vector<std::pair<int32_t, int32_t>>> postings_;
  // Forward: a deque so element references survive appends.
  std::deque<std::vector<DocTerm>> docs_;
  std::vector<int32_t> doc_lens_;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_DELTA_SEGMENT_H_
