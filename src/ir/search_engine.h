// The engine's public query API: RunType selects the paper's Table 2 run
// configuration, SearchOptions carries the §4 demonstration knobs
// (vector_size) and the retrieval model parameters, and SearchEngine lowers
// a (query, run) pair onto a vec:: operator plan over the inverted index's
// compressed posting columns.
//
// Plan shapes (DESIGN.md §6.2):
//   kBoolAnd — DocidSkipCursorₜ, rarest first
//                                → StreamingJoin(leapfrog)      → collect
//   kBoolOr  — Scan(docid)ₜ per term  → MergeUnion(distinct)    → collect
//   kBm25    — Block-Max MaxScore (ir/maxscore.h) over the resident
//              compressed columns, windows scored by the fused
//              decode→score kernel                           → TopK(k)
//              (maxscore_bm25 = false: the score-all union plan,
//               Scan(docid,tf)ₜ → Bm25Score(idfₜ, doclen)
//                               → MergeUnion(sum scores)     → TopK(k))
//
// The storage-era runs (DESIGN.md §8.5) run the same Block-Max MaxScore
// executor over columns served through the buffer pool; they require an
// on-disk index and ignore maxscore_bm25. What each adds:
//   kBm25T     the pruned evaluation (the paper's two-pass cutoff; here
//              MaxScore) over the raw (uncompressed) columns
//   kBm25TC    + compressed columns (cold I/O shrinks by the §3.3 ratio)
//   kBm25TCM   + materialized f32 score column (no tf decode, no doclen
//                gather, no float kernel on the hot path)
//   kBm25TCMQ8 + 8-bit quantized scores (cold I/O shrinks 4x vs f32)
#ifndef X100IR_IR_SEARCH_ENGINE_H_
#define X100IR_IR_SEARCH_ENGINE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/shared_theta.h"
#include "common/status.h"
#include "ir/bm25.h"
#include "ir/collection_stats.h"
#include "ir/index_builder.h"
#include "ir/query_gen.h"
#include "vec/scan.h"

namespace x100ir::ir {

enum class RunType : uint8_t {
  kBoolAnd = 0,
  kBoolOr = 1,
  kBm25 = 2,
  kBm25T = 3,      // + pruned evaluation over pool-served raw columns
  kBm25TC = 4,     // + compressed cold I/O accounting
  kBm25TCM = 5,    // + materialized score column
  kBm25TCMQ8 = 6,  // + 8-bit quantized scores
};

inline const char* RunTypeName(RunType t) {
  switch (t) {
    case RunType::kBoolAnd:
      return "BoolAND";
    case RunType::kBoolOr:
      return "BoolOR";
    case RunType::kBm25:
      return "BM25";
    case RunType::kBm25T:
      return "BM25T";
    case RunType::kBm25TC:
      return "BM25TC";
    case RunType::kBm25TCM:
      return "BM25TCM";
    case RunType::kBm25TCMQ8:
      return "BM25TCMQ8";
  }
  return "UNKNOWN";
}

// Ranked runs return the top k by score, boolean runs the first k docids.
inline bool IsRankedRun(RunType t) {
  return t != RunType::kBoolAnd && t != RunType::kBoolOr;
}
// The storage-era runs (DESIGN.md §8.5) need an on-disk index.
inline bool IsStorageRun(RunType t) {
  return IsRankedRun(t) && t != RunType::kBm25;
}

inline std::array<RunType, 7> AllRunTypes() {
  return {RunType::kBoolAnd,  RunType::kBoolOr,   RunType::kBm25,
          RunType::kBm25T,    RunType::kBm25TC,   RunType::kBm25TCM,
          RunType::kBm25TCMQ8};
}

struct Bm25Params {
  float k1 = 1.2f;
  float b = 0.75f;
};

struct SearchOptions {
  // Execution vector size (the §4 knob bench_vector_size sweeps). Plans
  // validate at open: 0 is rejected, oversizes clamp to
  // vec::ExecContext::kMaxVectorSize.
  uint32_t vector_size = 1024;
  // Results to return (ranked runs) / result-set cap (boolean runs).
  // k == 0 is rejected (PrepareQuery validates the whole request up front).
  uint32_t k = 20;
  Bm25Params bm25;

  // kBm25 execution (DESIGN.md §7.4, §12): Block-Max MaxScore — per-term
  // upper bounds, essential/non-essential partition, per-window block-max
  // skips, fused decode→score windows, probe completion — vs the
  // score-all union plan, which the §4 vector-size curve and Table 1's
  // union row measure. The storage runs always run MaxScore.
  bool maxscore_bm25 = true;

  // Borrowed per-query deadline/cancellation token (DESIGN.md §9.3), or
  // nullptr for no limit. The engine checks it at vector-batch granularity
  // and returns DeadlineExceeded with the stats accumulated so far — a
  // partial result is reported as a failure, never as a short answer.
  const Deadline* deadline = nullptr;

  // Segmented-read plumbing (DESIGN.md §10). Both borrowed, valid for the
  // duration of the call; null means "score with the index's own
  // build-time stats / no deletes".
  //
  // Collection stats: idf and avg_doc_len override the index's values so
  // every part of a read scores under one model. SearchSnapshot honours a
  // caller's stats (a cluster node's cluster-wide stats), else it uses the
  // snapshot's live stats, on every segment and delta.
  const CollectionStats* global_stats = nullptr;
  // Tombstone bitmap over *this index's local docids* (bit d = doc d
  // deleted). Filtered in every path: boolean collect, union TopK drain,
  // and MaxScore candidates (the storage runs' too). Deleted docs are
  // excluded from results and from num_matches. (TombstoneTest lives in
  // collection_stats.h.) SearchSnapshot sets it per segment, replacing any
  // caller value.
  const uint64_t* tombstones = nullptr;

  // Distributed shared-θ channel (DESIGN.md §11.3), set by the dist/
  // coordinator for doc-partitioned scatter-gather queries; null for every
  // single-engine call. When present, the MaxScore executor (kBm25 and
  // the storage runs) floors its pruning threshold with the channel's
  // global k-th-best lower bound at every vector-batch boundary (pruning
  // candidates, demoting terms, and bailing out of probe completion that a
  // shard-local threshold could not) and publishes its own k-th-best
  // back. Results whose score is provably below the global bound may then
  // be *omitted* from this engine's top-k — sound for the coordinator
  // (they cannot enter the merged top-k; exact ties at the bound are
  // always kept so the docid tiebreak stays intact), but it means a
  // seeded engine's result is a top-k of the cluster, not of this shard
  // alone.
  SharedTheta* shared_theta = nullptr;
};

// Effective scoring statistics: the snapshot's live collection stats when
// the call is a segmented read, the index's own build-time values
// otherwise. Every tf-scoring path (union, MaxScore, BM25T/TC) resolves
// idf and avg_doc_len through these, so a segment always scores under the
// global live model.
inline float EffectiveIdf(const SearchOptions& opts, const InvertedIndex& idx,
                          uint32_t term) {
  return opts.global_stats != nullptr
             ? Bm25Idf(opts.global_stats->num_docs,
                       opts.global_stats->df[term])
             : idx.term(term).idf;
}
inline double EffectiveAvgDocLen(const SearchOptions& opts,
                                 const InvertedIndex& idx) {
  return opts.global_stats != nullptr ? opts.global_stats->avg_doc_len
                                      : idx.avg_doc_len();
}

struct SearchResult {
  // Ranked runs: top-k docids with scores, rank order (score desc, docid
  // asc tiebreak). Boolean runs: up to k matching docids in docid order,
  // scores empty.
  std::vector<int32_t> docids;
  std::vector<float> scores;
  // Full match count before the k cap. For ranked runs: candidate
  // documents considered. Under MaxScore pruning (kBm25 and every storage
  // run) this counts documents reached through the essential lists —
  // documents provably unable to enter the top k are never candidates, so
  // the count can be lower than the score-all union's.
  uint64_t num_matches = 0;
  // Always false: no run has a second pass. Kept only because the
  // repository benchmark still reads it.
  bool used_second_pass = false;
  // Wall-clock of the run (real decode/score work).
  double seconds = 0.0;
  // Simulated cold-I/O seconds charged by the storage layer's disk model
  // (zero for in-memory runs and for fully pool-resident storage runs).
  double io_seconds = 0.0;

  // Per-query execution telemetry (windows decoded/skipped, primitive
  // calls, vectors pruned, probes) — what the skipping tests and the
  // bench_table1_systems gates assert on.
  vec::ExecStats stats;

  // Snapshot epoch the query executed against (0 until the first live
  // update). Set by SearchSnapshot; the during-merge bit-identity tests
  // use it to pick which serial oracle a result must match.
  uint64_t epoch = 0;

  // What Table 2 reports: real work plus simulated disk time.
  double TotalSeconds() const { return seconds + io_seconds; }

  // Folds another structure's execution accounting into this result — the
  // one-call aggregation every multi-structure read uses (Gather, gather.h,
  // over a snapshot's segments or a cluster's shards). Docids/scores/epoch
  // are NOT touched: merging results is the gather's job. Matches are
  // additive because the merged structures partition the docid space.
  void MergeAccounting(const SearchResult& o) {
    num_matches += o.num_matches;
    used_second_pass = used_second_pass || o.used_second_pass;
    io_seconds += o.io_seconds;
    stats += o.stats;
  }
};

class SearchEngine {
 public:
  SearchEngine() = default;
  // The index must outlive the engine.
  explicit SearchEngine(const InvertedIndex* index) : index_(index) {}

  void set_index(const InvertedIndex* index) { index_ = index; }

  // Runs one query: PrepareQuery, then builds the plan, executes it, fills
  // `result` (overwritten), and records wall time in result->seconds.
  //
  // Const and thread-safe (DESIGN.md §9.1): the engine holds no per-query
  // state — every query builds its own plan over the immutable index, all
  // scratch lives in the per-query ExecContext, and the storage path goes
  // through the thread-safe buffer pool. Any number of threads may Search
  // through one engine concurrently.
  Status Search(const Query& query, RunType type, const SearchOptions& opts,
                SearchResult* result) const;

 private:
  Status SearchBool(const std::vector<uint32_t>& terms, bool conjunctive,
                    const SearchOptions& opts, SearchResult* result) const;
  Status SearchBm25(const std::vector<uint32_t>& terms,
                    const SearchOptions& opts, SearchResult* result) const;
  // The storage-era runs (storage_runs.cc): BM25T/TC/TCM/TCMQ8, the
  // MaxScore executor over pool-served columns. Requires
  // index_->has_storage().
  Status SearchStorageRun(RunType type, const std::vector<uint32_t>& terms,
                          const SearchOptions& opts,
                          SearchResult* result) const;

  const InvertedIndex* index_ = nullptr;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_SEARCH_ENGINE_H_
