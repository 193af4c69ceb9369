// Hand-built IR engine baselines for the Table 1 bake-off
// (bench_table1_systems): the paper's context is that "custom-built
// information retrieval engines have always outperformed generic database
// technology", and its claim is that a vectorized DBMS closes the gap.
// These are the custom engines for that comparison — classic
// document-at-a-time and term-at-a-time evaluation plus a MaxScore DAAT,
// all over raw uncompressed in-RAM posting arrays (no operators, no
// vectors, no compression: every structural advantage a bespoke engine
// enjoys, and the memory bill that comes with it — resident_bytes() is
// ~8 bytes/posting vs the index's compressed blocks).
//
// Scoring is the identical BM25 (same idf from the shared index, same
// kernel formula), so precision is equal by construction and the bench
// isolates execution architecture.
#ifndef X100IR_IR_CUSTOM_ENGINE_H_
#define X100IR_IR_CUSTOM_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ir/index_builder.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"

namespace x100ir::ir {

struct CustomSearchResult {
  // Rank order (score desc, docid asc) — same determinism contract as the
  // DBMS path, so results are comparable doc for doc.
  std::vector<int32_t> docids;
  std::vector<float> scores;
  uint64_t num_matches = 0;  // documents scored (DAAT/TAAT) or considered
  double cpu_seconds = 0.0;
};

class CustomIrEngine {
 public:
  // Decodes every posting list into flat in-RAM arrays. The index must
  // outlive the engine (doclens and term stats are shared).
  Status Load(const InvertedIndex* index);

  // Bytes of raw posting data held resident (docids + tfs).
  size_t resident_bytes() const {
    return (docids_.size() + tfs_.size()) * sizeof(int32_t);
  }

  // Document-at-a-time: k-way linear merge of the query's posting lists,
  // scoring each document once, bounded min-heap for the top k.
  Status SearchDaat(const Query& query, uint32_t k,
                    CustomSearchResult* result) const;

  // Term-at-a-time: one pass per term accumulating scores into a
  // docid-indexed array, then a top-k sweep. The classic trade: no merge
  // logic, but O(num_docs) accumulator traffic per query.
  Status SearchTaat(const Query& query, uint32_t k,
                    CustomSearchResult* result) const;

  // DAAT + MaxScore pruning (galloping skips on the raw arrays): the
  // strongest conventional baseline, and the mirror of the DBMS path's
  // threshold propagation.
  Status SearchMaxScore(const Query& query, uint32_t k,
                        CustomSearchResult* result) const;

 private:
  // The engine-wide front door (ir::PrepareQuery, request.h) under the
  // kBm25 rules: the same rejections and wording as SearchEngine::Search,
  // and `terms` holds the sorted distinct posting-bearing terms.
  Status PrepareTerms(const Query& query, uint32_t k,
                      std::vector<uint32_t>* terms) const;

  const InvertedIndex* index_ = nullptr;
  // Flat TD copies, indexed via the shared TermInfo posting ranges.
  std::vector<int32_t> docids_;
  std::vector<int32_t> tfs_;
  Bm25Params params_;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_CUSTOM_ENGINE_H_
