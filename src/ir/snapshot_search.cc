// Query execution over a Snapshot (DESIGN.md §10): every compressed
// segment runs through the normal SearchEngine — with the read's
// CollectionStats and the segment's tombstone bitmap plumbed into
// SearchOptions — and the delta write buffers are evaluated exactly, in
// scalar, with the same Bm25One kernel and the same ascending-term
// accumulation order the vectorized union plan uses. Docid spaces are
// disjoint, so the Gather (gather.h) over the parts is a concatenation
// (boolean runs) or a top-k selection over their top-k lists (ranked
// runs) — never a re-score.
#include <cstdint>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "ir/bm25.h"
#include "ir/gather.h"
#include "ir/request.h"
#include "ir/snapshot.h"
#include "ir/topk.h"

namespace x100ir::ir {
namespace {

// Exact scalar evaluation of one delta buffer into a part over delta-local
// docids (ranked: its top k; boolean: its first k). Ranked runs accumulate
// per-document scores term-by-term in ascending term order — the same
// float addition order MergeUnionOperator uses (children are built in
// ascending term order and partial sums fold in child order), so a delta
// document's score is bit-identical to what a rebuilt monolithic index
// would produce for it.
void EvalDelta(const Snapshot::DeltaRead& dr,
               const std::vector<uint32_t>& terms, RunType type,
               const SearchOptions& opts, SearchResult* part) {
  const CollectionStats& stats = *opts.global_stats;
  const uint64_t* tombs =
      dr.tombstones != nullptr ? dr.tombstones->data() : nullptr;
  const bool ranked_run = IsRankedRun(type);
  const float inv_avgdl = stats.avg_doc_len > 0.0
                              ? static_cast<float>(1.0 / stats.avg_doc_len)
                              : 0.0f;

  std::vector<float> acc(dr.visible, 0.0f);
  std::vector<uint32_t> hit_terms(dr.visible, 0);
  std::vector<int32_t> locals, tfs, lens;
  for (uint32_t t : terms) {  // ascending: the accumulation-order contract
    dr.delta->CollectPostings(t, dr.visible, &locals, &tfs, &lens);
    if (locals.empty()) continue;
    const float idf = Bm25Idf(stats.num_docs, stats.df[t]);
    for (size_t i = 0; i < locals.size(); ++i) {
      const int32_t local = locals[i];
      if (TombstoneTest(tombs, local)) continue;
      ++hit_terms[local];
      if (ranked_run) {
        acc[local] += Bm25One(idf, static_cast<float>(tfs[i]),
                              static_cast<float>(lens[i]), opts.bm25.k1,
                              opts.bm25.b, inv_avgdl);
      }
    }
  }

  const uint32_t need =
      type == RunType::kBoolAnd ? static_cast<uint32_t>(terms.size()) : 1;
  TopK topk(opts.k);
  for (uint32_t local = 0; local < dr.visible; ++local) {
    if (hit_terms[local] < need) continue;
    ++part->num_matches;
    if (ranked_run) {
      topk.Push(static_cast<int32_t>(local), acc[local]);
    } else if (part->docids.size() < opts.k) {
      part->docids.push_back(static_cast<int32_t>(local));
    }
  }
  if (ranked_run) topk.FinishSorted(&part->docids, &part->scores);
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
  // segment's engine re-runs PrepareQuery against its own index, which on
  // prepared terms only drops those the segment holds no postings for. The
  // gather raises the caller's θ channel, if any, as parts merge.
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
  for (const Snapshot::DeltaRead& dr : snap.deltas) {
    if (opts.deadline != nullptr) {
      X100IR_RETURN_IF_ERROR(opts.deadline->Check());
    }
    SearchResult part;
    EvalDelta(dr, prepared.terms, type, opts, &part);
    const int32_t base = dr.delta->base_docid();
    gather.Add(std::move(part), [base](int32_t d) { return base + d; });
  }
  gather.Finish();
  result->seconds = timer.ElapsedSeconds();
  return OkStatus();
}

}  // namespace x100ir::ir
