// Synthetic GOV2 stand-in (DESIGN.md §3.1): the paper's TREC-TB experiments
// at laptop scale, preserving the workload's *shape* — Zipf term skew (the
// posting-list length distribution that makes compression and list skipping
// interesting), log-normal document lengths, and planted topics with
// relevance judgments so precision@20 has signal.
//
// Everything derives from the deterministic Rng (xorshift64*): a seed
// fully determines the corpus on a given platform, and the stream is
// stable across platforms up to libm last-ulp differences (pow/exp/cos in
// the samplers). Fingerprint() hashes the actual term stream — not just
// the options — so manifest reuse stays safe even if two platforms ever
// disagree.
//
// The corpus is the paper's TD table transposed, the (doc, term) table DT,
// and it is stored compressed like TD: chunks of kCorpusChunkDocs
// documents, each holding its documents' ascending term ids as one
// PFOR-DELTA column (FOR base 0, so each document boundary's one negative
// delta is an exception) and their tfs as one PFOR column. Per-document
// posting offsets and lengths stay raw. Chunks are immutable and shared, so
// a Corpus is cheap to copy and a slice (a cluster node's documents) reads
// its parent's chunks. Documents are read one at a time into a caller's
// buffer (ReadDoc) or in bulk through a chunked visitor (ForEachDoc); the
// inverted index (index_builder.h) is built from the latter.
#ifndef X100IR_IR_CORPUS_H_
#define X100IR_IR_CORPUS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"

namespace x100ir::ir {

// Knobs for the generator. Defaults match bench_util.h's default scale.
struct CorpusOptions {
  uint32_t num_docs = 60000;
  uint32_t vocab_size = 40000;

  // Term-draw distribution: P(rank r) ∝ 1 / r^zipf_s over ranks 1..vocab.
  double zipf_s = 1.05;

  // Document lengths ~ round(lognormal(mu, sigma)), clamped to >= 1.
  double doclen_mu = 5.0;
  double doclen_sigma = 0.5;

  // Planted topics: each topic owns `terms_per_topic` terms drawn from the
  // Zipf rank band [topic_rank_min, topic_rank_max) (mid-rank terms — rare
  // enough to be discriminative, common enough to appear), plus
  // `relevant_docs_per_topic` documents that draw a `topical_mass` fraction
  // of their terms from the topic's term set instead of the global Zipf.
  uint32_t num_topics = 60;
  uint32_t terms_per_topic = 6;
  uint32_t relevant_docs_per_topic = 120;
  double topical_mass = 0.30;
  uint32_t topic_rank_min = 30;
  uint32_t topic_rank_max = 400;

  uint64_t seed = 2007;
};

// One posting inside a document: term id and its in-document frequency.
struct DocTerm {
  uint32_t term;
  int32_t tf;
};

// Documents per forward-store chunk: the unit a corpus encodes, shares and
// decodes in bulk. Generation encodes chunks concurrently; a chunk's raw
// staging stays far below the generator's draw array.
inline constexpr uint32_t kCorpusChunkDocs = 2048;

namespace internal {

// Up to kCorpusChunkDocs documents' postings in docid order, compressed.
// Immutable once built; every corpus that reads it holds a reference.
struct CorpusChunk {
  std::vector<uint8_t> term_block;  // PFOR-DELTA, FOR base 0
  std::vector<uint8_t> tf_block;    // PFOR
  // Document i's postings are [starts[i], starts[i + 1]) of both blocks.
  std::vector<uint32_t> starts;
  compress::BlockDecoder terms;
  compress::BlockDecoder tfs;
};

}  // namespace internal

class Corpus {
 public:
  // Generates a corpus from options. Fails on inconsistent options (empty
  // collection, topic rank band outside the vocabulary, ...).
  static Status Generate(const CorpusOptions& opts, Corpus* out);

  // Hand-built corpus for tests: docs[d] lists doc d's term occurrences
  // (unsorted, duplicates = tf). vocab_size must cover every term id.
  // Produces no topics/qrels.
  static Status FromDocuments(const std::vector<std::vector<uint32_t>>& docs,
                              uint32_t vocab_size, Corpus* out);

  // Same contract but from already-normalized (term, tf) lists — each doc
  // sorted by term, distinct terms, positive tfs.
  static Status FromDocTerms(const std::vector<std::vector<DocTerm>>& docs,
                             uint32_t vocab_size, Corpus* out);

  // Documents [begin, end) as a hand-built corpus of their own (document
  // d is this corpus's begin + d), reading this corpus's chunks instead of
  // copying them: a cluster node's partition. Its Fingerprint() equals
  // that of FromDocTerms over the same documents.
  Status Slice(uint32_t begin, uint32_t end, Corpus* out) const;

  const CorpusOptions& options() const { return options_; }
  uint32_t num_docs() const { return static_cast<uint32_t>(doc_lens_.size()); }
  uint32_t vocab_size() const { return options_.vocab_size; }

  // Doc d's distinct-term count.
  uint32_t doc_size(uint32_t d) const {
    uint32_t i = 0;
    const internal::CorpusChunk& c = ChunkOf(d, &i);
    return c.starts[i + 1] - c.starts[i];
  }
  // Reads doc d's distinct terms, ascending, with their frequencies into
  // *out (resized to doc_size(d)).
  void ReadDoc(uint32_t d, std::vector<DocTerm>* out) const;
  // Calls fn(d, postings, n) for every doc d in [begin, end), in order,
  // with doc d's n postings as ReadDoc reads them. The postings are decoded
  // a bounded run of documents at a time into a buffer the visitor owns;
  // they stay valid only during the call.
  template <typename Fn>
  void ForEachDoc(uint32_t begin, uint32_t end, Fn&& fn) const;

  // Total term occurrences in doc d (the BM25 document length).
  int32_t doc_len(uint32_t d) const { return doc_lens_[d]; }
  const std::vector<int32_t>& doc_lens() const { return doc_lens_; }
  double avg_doc_len() const { return avg_doc_len_; }
  uint64_t num_postings() const { return num_postings_; }

  // Bytes of the compressed term and tf blocks this corpus reads (a slice
  // counts the whole chunks it shares).
  struct StoreBytes {
    uint64_t terms = 0;
    uint64_t tfs = 0;
  };
  StoreBytes store_bytes() const;

  // Planted topics (empty for FromDocuments corpora).
  uint32_t num_topics() const {
    return static_cast<uint32_t>(topic_terms_.size());
  }
  const std::vector<uint32_t>& topic_terms(uint32_t t) const {
    return topic_terms_[t];
  }
  // Relevant docids for topic t, sorted ascending.
  const std::vector<int32_t>& relevant_docs(uint32_t t) const {
    return relevant_docs_[t];
  }

  // A stable fingerprint of the generated stream (every posting, the
  // options and the generator version). The manifest and the WAL header
  // carry it, so a reopen adopts on-disk state only for the corpus that
  // wrote it.
  uint64_t Fingerprint() const;

 private:
  friend class CorpusWriter;

  // Fills num_postings_/avg_doc_len_ from the chunks and doc_lens_.
  void Finalize();

  // Doc d's chunk, and d's index *i within it.
  const internal::CorpusChunk& ChunkOf(uint32_t d, uint32_t* i) const {
    const uint32_t p = first_ + d;
    *i = p % kCorpusChunkDocs;
    return *chunks_[p / kCorpusChunkDocs];
  }
  // Decodes the postings of docs [d, stop) into *slab and returns stop:
  // at least doc d, at most `end`, all in d's chunk, and no more postings
  // than a slab holds unless doc d alone has more.
  uint32_t DecodeRun(uint32_t d, uint32_t end,
                     std::vector<DocTerm>* slab) const;

  CorpusOptions options_;
  // Chunk k holds this corpus's documents from k * kCorpusChunkDocs -
  // first_ on; first_ > 0 only for a slice starting inside its first chunk.
  std::vector<std::shared_ptr<const internal::CorpusChunk>> chunks_;
  uint32_t first_ = 0;
  std::vector<int32_t> doc_lens_;
  double avg_doc_len_ = 0.0;
  uint64_t num_postings_ = 0;
  std::vector<std::vector<uint32_t>> topic_terms_;
  std::vector<std::vector<int32_t>> relevant_docs_;
  bool hand_built_ = false;
};

// Builds a hand-built corpus document by document, in docid order, encoding
// each chunk on the calling thread as soon as it fills: how a merge writes
// its segment's forward store and a reopen transposes one from the TD
// columns, with raw staging for one chunk at a time.
class CorpusWriter {
 public:
  explicit CorpusWriter(uint32_t vocab_size) : vocab_size_(vocab_size) {}

  // Appends the next document: n > 0 postings, terms strictly ascending
  // and inside the vocabulary, tfs positive. InvalidArgument otherwise.
  Status Add(const DocTerm* doc, uint32_t n);
  uint32_t num_docs() const { return static_cast<uint32_t>(doc_lens_.size()); }

  // Encodes the last chunk and moves the documents into *out. Fails when
  // no document was added.
  Status Finish(Corpus* out);

 private:
  Status EncodeStaged();

  uint32_t vocab_size_;
  std::vector<std::shared_ptr<const internal::CorpusChunk>> chunks_;
  std::vector<int32_t> doc_lens_;
  // The chunk being staged.
  std::vector<int32_t> terms_;
  std::vector<int32_t> tfs_;
  std::vector<uint32_t> starts_{0};
};

template <typename Fn>
void Corpus::ForEachDoc(uint32_t begin, uint32_t end, Fn&& fn) const {
  std::vector<DocTerm> slab;
  while (begin < end) {
    const uint32_t stop = DecodeRun(begin, end, &slab);
    const DocTerm* p = slab.data();
    for (; begin < stop; ++begin) {
      const uint32_t n = doc_size(begin);
      fn(begin, p, n);
      p += n;
    }
  }
}

}  // namespace x100ir::ir

#endif  // X100IR_IR_CORPUS_H_
