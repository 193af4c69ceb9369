// Query execution over a Snapshot (DESIGN.md §10): every compressed
// segment runs through the normal SearchEngine — with the read's
// CollectionStats and the segment's tombstone bitmap plumbed into
// SearchOptions — and every delta write buffer runs the same scan and join
// plans (ir/plan_ops.h) over its query terms' visible postings, copied out
// under one shared lock: BoolAND's rarest-first streaming join, BoolOR's
// distinct union, and for every ranked run the score-all union, whose
// ascending-term accumulation order makes a delta document's score
// bit-identical to what a rebuilt monolithic index would produce for it.
// Docid spaces are disjoint, so the Gather (gather.h) over the parts is a
// concatenation (boolean runs) or a top-k selection over their top-k lists
// (ranked runs) — never a re-score.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "ir/delta_segment.h"
#include "ir/gather.h"
#include "ir/plan_ops.h"
#include "ir/posting_cursor.h"
#include "ir/request.h"
#include "ir/snapshot.h"

namespace x100ir::ir {
namespace {

// One delta part over delta-local docids (ranked: its top k; boolean: its
// first k); *copy is a buffer the read's deltas share. As a segment's
// engine does, PrepareQuery on the read's prepared terms drops those
// without a visible posting here, and checks the deadline. MaxScore over a
// delta waits for a columnar write buffer, so every ranked run is the
// score-all union.
Status SearchDelta(const Snapshot::DeltaRead& dr, const Query& prepared,
                   RunType type, bool has_storage, SearchOptions opts,
                   DeltaPostings* copy, SearchResult* part) {
  dr.delta->CollectPostings(prepared.terms, dr.visible, IsRankedRun(type),
                            copy);
  const DeltaLeaves leaves(*copy, *opts.global_stats);
  std::vector<uint32_t> terms;
  X100IR_RETURN_IF_ERROR(PrepareQuery(
      prepared, type, opts, dr.delta->vocab_size(), has_storage,
      [&leaves](uint32_t t) { return leaves.Range(t).len; }, &terms));
  if (terms.empty()) return OkStatus();
  opts.tombstones =
      dr.tombstones != nullptr ? dr.tombstones->data() : nullptr;
  // No operator of the plan emits more rows than the copy holds postings,
  // so longer vectors would only be allocated and zeroed: the batches, and
  // with them results and stats, are the same, and 0 is still rejected.
  opts.vector_size = static_cast<uint32_t>(
      std::min<size_t>(opts.vector_size, copy->docids.size()));
  switch (type) {
    case RunType::kBoolAnd:
      return SearchBool(leaves, terms, /*conjunctive=*/true, opts, part);
    case RunType::kBoolOr:
      return SearchBool(leaves, terms, /*conjunctive=*/false, opts, part);
    default:
      return SearchBm25(leaves, terms, opts, part);
  }
}

}  // namespace

Status SearchSnapshot(const Snapshot& snap, const Query& query, RunType type,
                      const SearchOptions& user_opts, SearchResult* result) {
  if (result == nullptr) return InvalidArgument("null search result");
  SearchOptions opts = user_opts;
  if (opts.global_stats == nullptr) opts.global_stats = snap.stats.get();
  const CollectionStats* stats = opts.global_stats;
  if (stats == nullptr) {
    return InvalidArgument("snapshot carries no collection stats");
  }
  WallTimer timer;
  *result = SearchResult();
  result->epoch = snap.epoch;

  // "Unknown" means no live document of the read holds the term — the
  // rebuilt monolithic oracle would not have it at all. (A term whose only
  // occurrences are tombstoned counts as unknown too.)
  Query prepared;
  X100IR_RETURN_IF_ERROR(PrepareQuery(
      query, type, opts, static_cast<uint32_t>(stats->df.size()),
      snap.has_storage,
      [stats](uint32_t t) { return stats->df[t]; }, &prepared.terms));
  if (prepared.terms.empty()) {
    result->seconds = timer.ElapsedSeconds();
    return OkStatus();
  }

  // Segments ascend in global docid space and every delta base exceeds
  // every committed global, so the parts arrive in global docid order. A
  // segment's engine and each delta part re-run PrepareQuery against their
  // own postings, which on prepared terms only drops those the part holds
  // no postings for. The gather raises the caller's θ channel, if any, as
  // parts merge.
  Gather gather(type, opts.k, result, opts.shared_theta);
  for (const Snapshot::SegmentRead& sr : snap.segments) {
    opts.tombstones =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    SearchResult part;
    X100IR_RETURN_IF_ERROR(
        SearchEngine(&sr.seg->index()).Search(prepared, type, opts, &part));
    gather.Add(std::move(part),
               [&sr](int32_t d) { return sr.seg->GlobalOf(d); });
  }
  DeltaPostings copy;
  for (const Snapshot::DeltaRead& dr : snap.deltas) {
    SearchResult part;
    X100IR_RETURN_IF_ERROR(SearchDelta(dr, prepared, type, snap.has_storage,
                                       opts, &copy, &part));
    const int32_t base = dr.delta->base_docid();
    gather.Add(std::move(part), [base](int32_t d) { return base + d; });
  }
  gather.Finish();
  result->seconds = timer.ElapsedSeconds();
  return OkStatus();
}

}  // namespace x100ir::ir
