// Builds the inverted index from a Corpus as compressed columns and serves
// per-term posting ranges to the search engine.
//
// The index owns two compressed blocks (TD.docid via PFOR-DELTA, TD.tf via
// PFOR) over the whole TD table and a decoder over each; a query reads a
// term's range of them through the decoders' entry points — range decode
// touches only the 128-value windows overlapping the term's range, which is
// the paper's fine-granularity skipping. The uncompressed doclen column
// stays in memory (4 bytes/doc; the gather in the BM25 score operator wants
// O(1) access).
//
// With a non-empty directory, BuildFromCorpus persists the columns (raw +
// compressed + score + side tables + index.meta) and opens them through
// the caller's buffer pool; LoadFromDir opens such a directory again.
// Whether to build or load is the SnapshotManager's decision (its manifest
// is the only reuse check), never the index's.
#ifndef X100IR_IR_INDEX_BUILDER_H_
#define X100IR_IR_INDEX_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"
#include "ir/corpus.h"
#include "ir/index_meta.h"
#include "storage/buffer_manager.h"
#include "storage/column_reader.h"

namespace x100ir::ir {

// The storage-backed face of the index (Table 2 runs): every persisted
// column opened through the caller's buffer pool — the segmented database
// opens every segment's columns through one pool (one memory budget, one
// simulated disk), each column under an id the pool issued at its open.
// Absent (and the storage-era RunTypes unavailable) for in-memory-only
// indexes. Dropping it closes the readers, which drop their pages.
struct IndexStorage {
  storage::BufferManager* pool = nullptr;  // borrowed, outlives the index
  storage::ColumnReader docid_raw;
  storage::ColumnReader tf_raw;
  storage::ColumnReader docid_compressed;
  storage::ColumnReader tf_compressed;
  storage::ColumnReader score_f32;
  storage::ColumnReader score_q8;
};

// How a build runs its independent column jobs (the docid encode, the tf
// encode, block-max with the raw columns and side tables, the score
// columns; DESIGN.md §6.4). Both write the same bytes. kConcurrent spreads
// them over the host's cores and is for a build an Open waits on (seg_0),
// which may use every core; kInline runs them one after another on the
// calling thread and is for a build beside live traffic (a merge), which
// starts no thread.
enum class BuildMode { kInline, kConcurrent };

// A TD table in (term, docid) order with what a build derives from it: the
// output of a corpus inversion or of a merge's posting-list merge, and the
// input of the build tail both share (DESIGN.md §6.4). The tail fills each
// term's posting_start and idf.
struct TdTable {
  std::vector<TermInfo> terms;    // per term: doc_freq and max_tf
  std::vector<int32_t> doc_lens;  // per docid
  std::vector<int32_t> docids;    // term-major, docids ascending per term
  std::vector<int32_t> tfs;       // parallel to docids
};

class InvertedIndex {
 public:
  // Builds the index from `corpus`. `dir` empty = in-memory only (the
  // pool is then unused). With a directory (created if absent), every
  // column — raw, compressed, the materialized f32/q8 scores, the side
  // tables and index.meta last — is written there and opened through
  // `pool` (borrowed, must outlive the index), which must be set. A
  // failing job fails the build with its own status, and index.meta is
  // then not written.
  Status BuildFromCorpus(const Corpus& corpus, const std::string& dir = "",
                         storage::BufferManager* pool = nullptr,
                         BuildMode mode = BuildMode::kInline);

  // The build tail BuildFromCorpus runs after its inversion, over a TD
  // table built some other way (a merge's posting-list merge): the same
  // files for the same table. `td.terms` spans the vocabulary and its
  // doc_freqs sum to the posting count.
  Status BuildFromTd(TdTable td, const std::string& dir,
                     storage::BufferManager* pool, BuildMode mode);

  // Opens a directory BuildFromCorpus wrote, without a corpus: side tables
  // (terms, doclens) come off disk, postings from the compressed columns,
  // storage through `pool`. Any missing/torn/version-mismatched file is an
  // error — the caller (Segment::Load on a manifest reopen) treats it as
  // "fall back to a rebuild", never "serve garbage".
  Status LoadFromDir(const std::string& dir, storage::BufferManager* pool);

  // True when the loaded side tables (terms, doclens) are exactly the ones
  // BuildFromCorpus(corpus) computes: seg_0 still indexes the database's
  // corpus, and a torn terms or doclen file reads as a mismatch.
  bool SideTablesMatch(const Corpus& corpus) const;

  uint32_t num_docs() const { return num_docs_; }
  uint32_t vocab_size() const {
    return static_cast<uint32_t>(terms_.size());
  }
  uint64_t num_postings() const { return num_postings_; }
  double avg_doc_len() const { return avg_doc_len_; }
  // Shortest document in the collection (MaxScore upper bounds).
  int32_t min_doc_len() const { return min_doc_len_; }

  const TermInfo& term(uint32_t t) const { return terms_[t]; }
  const std::vector<int32_t>& doc_lens() const { return doc_lens_; }

  // Per-128-window block-max metadata over the whole TD table, one entry
  // per window of the docid/tf columns (Block-Max MaxScore, DESIGN.md
  // §12). Built alongside the columns and persisted (kBlockMaxFile);
  // always populated, for built and loaded indexes.
  const std::vector<BlockMaxEntry>& block_max() const { return blockmax_; }

  // Decoders over the whole-TD-table compressed columns, header- and
  // payload-validated; one posting list is positions [term(t).posting_start,
  // + term(t).doc_freq). Queries read them through window sources
  // (compress/skip_cursor.h). Borrowed; valid as long as the index.
  const compress::BlockDecoder* docid_decoder() const { return &docid_dec_; }
  const compress::BlockDecoder* tf_decoder() const { return &tf_dec_; }

  // Convenience full decode of one term's postings (tests, oracles;
  // queries go through the plans instead). Either output may be null.
  Status DecodePostings(uint32_t term, std::vector<int32_t>* docids,
                        std::vector<int32_t>* tfs) const;

  // Storage-era surface (null/failing for in-memory-only indexes). The
  // accessors hand out mutable storage state from a const index: the pool
  // is a cache, so pinning/eviction never changes what a query observes —
  // the bit-identity the eviction-stress tests pin.
  bool has_storage() const { return storage_ != nullptr; }
  IndexStorage* storage() const { return storage_.get(); }
  storage::BufferManager* buffer_manager() const {
    return storage_ == nullptr ? nullptr : storage_->pool;
  }
  const storage::SimulatedDisk* disk() const {
    return storage_ == nullptr ? nullptr : storage_->pool->disk();
  }
  // Empties the buffer pool — the Table 2 cold-run reset. Fails without
  // storage or with pins outstanding.
  Status EvictAll() const;

  // Build-time BM25 parameters baked into the materialized score columns
  // (the TCM/TCMQ8 runs score with these).
  static constexpr float kMaterializedK1 = 1.2f;
  static constexpr float kMaterializedB = 0.75f;

 private:
  // Loads the compressed column files; any failure (missing, truncated,
  // corrupt, or a docid column that is not PFOR-DELTA / tf column that is
  // not patched PFOR) fails the load.
  Status LoadColumns(const std::string& dir);
  // Reads the side tables into terms_/doc_lens_ (the corpus-free path).
  Status LoadSideTables(const std::string& dir);
  // Fills avg_doc_len_/min_doc_len_ from doc_lens_.
  void ComputeDocLenStats();
  // Fills blockmax_ from the TD columns (every build path).
  void ComputeBlockMax(const std::vector<int32_t>& docid_col,
                       const std::vector<int32_t>& tf_col);
  // Reads kBlockMaxFile into blockmax_ with structural validation; a
  // missing or insane block-max table fails the load.
  Status LoadBlockMax(const std::string& dir);
  Status EncodeAndPersist(const std::string& dir,
                          const std::vector<int32_t>& docid_col,
                          const std::vector<int32_t>& tf_col, BuildMode mode);
  // Computes the per-posting BM25 score column (build-time parameters) and
  // writes the f32 + quantized files.
  Status MaterializeScores(const std::string& dir,
                           const std::vector<int32_t>& docid_col,
                           const std::vector<int32_t>& tf_col) const;
  // Opens the six column readers through `pool`; on failure closes
  // whatever the partial open opened.
  Status AttachStorage(const std::string& dir, storage::BufferManager* pool);

  uint32_t num_docs_ = 0;
  uint64_t num_postings_ = 0;
  double avg_doc_len_ = 0.0;
  int32_t min_doc_len_ = 0;
  std::vector<TermInfo> terms_;
  std::vector<int32_t> doc_lens_;
  std::vector<BlockMaxEntry> blockmax_;
  // The compressed docid and tf columns; each decoder points into its
  // block's heap buffer, which a move of the index hands over intact.
  std::vector<uint8_t> docid_block_, tf_block_;
  compress::BlockDecoder docid_dec_, tf_dec_;
  std::unique_ptr<IndexStorage> storage_;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_INDEX_BUILDER_H_
