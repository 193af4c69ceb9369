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
// disagree. The corpus lives in memory as per-document (term, tf) lists,
// each allocated at its exact size; the inverted index (index_builder.h)
// is built from it.
#ifndef X100IR_IR_CORPUS_H_
#define X100IR_IR_CORPUS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

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
  // sorted by term, distinct terms, positive tfs — moved in without the
  // occurrence-expansion round trip. This is how a merge builds the corpus
  // for a compacted segment from the forward documents it already holds.
  static Status FromDocTerms(std::vector<std::vector<DocTerm>> docs,
                             uint32_t vocab_size, Corpus* out);

  const CorpusOptions& options() const { return options_; }
  uint32_t num_docs() const { return static_cast<uint32_t>(docs_.size()); }
  uint32_t vocab_size() const { return options_.vocab_size; }

  // Doc d's distinct terms, sorted by term id, with per-term frequencies.
  const std::vector<DocTerm>& doc(uint32_t d) const { return docs_[d]; }
  // Total term occurrences in doc d (the BM25 document length).
  int32_t doc_len(uint32_t d) const { return doc_lens_[d]; }
  const std::vector<int32_t>& doc_lens() const { return doc_lens_; }
  double avg_doc_len() const { return avg_doc_len_; }
  uint64_t num_postings() const { return num_postings_; }

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
  Status Finalize();  // fills doc_lens_/avg_doc_len_/num_postings_

  CorpusOptions options_;
  std::vector<std::vector<DocTerm>> docs_;
  std::vector<int32_t> doc_lens_;
  double avg_doc_len_ = 0.0;
  uint64_t num_postings_ = 0;
  std::vector<std::vector<uint32_t>> topic_terms_;
  std::vector<std::vector<int32_t>> relevant_docs_;
  bool hand_built_ = false;
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_CORPUS_H_
