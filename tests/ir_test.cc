// End-to-end tests for the query API: corpus generation and qrels, the
// query generator, index build/persist/reuse, BoolAND/BoolOR result sets
// and BM25 top-k vs the reference evaluator (reference.h; the golden
// retrieval test — acceptance pins agreement to 1e-5), top-k heap
// semantics, p@20 metrics, vector-size validation through the public
// Database::Search API, Block-Max MaxScore skipping, and the fused
// decode→score kernel against MapBm25.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compress/pfor.h"
#include "compress/unpack.h"
#include "core/database.h"
#include "ir/corpus.h"
#include "ir/custom_engine.h"
#include "ir/index_builder.h"
#include "ir/metrics.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"
#include "ir/tf_window_score.h"
#include "ir/topk.h"

#include "reference.h"
#include "test_util.h"

namespace x100ir::ir {
namespace {

// The golden corpus: 8 tiny hand-built documents over a 10-term
// vocabulary, chosen so AND/OR/ranking all have non-trivial answers.
Corpus GoldenCorpus() {
  std::vector<std::vector<uint32_t>> docs = {
      {0, 1, 2, 2, 3},              // doc 0
      {1, 2, 4},                    // doc 1
      {0, 0, 0, 5, 6},              // doc 2
      {2, 2, 2, 2, 7},              // doc 3
      {1, 3, 5, 7, 9},              // doc 4
      {8, 8, 9},                    // doc 5
      {0, 1, 2, 3, 4, 5, 6, 7, 8},  // doc 6
      {2, 9},                       // doc 7
  };
  Corpus corpus;
  EXPECT_TRUE(Corpus::FromDocuments(docs, 10, &corpus).ok());
  return corpus;
}

CorpusOptions SmallGeneratedOptions() {
  CorpusOptions opts;
  opts.num_docs = 2000;
  opts.vocab_size = 3000;
  opts.zipf_s = 1.05;
  opts.doclen_mu = 3.5;  // ~35 terms/doc: keeps the oracle scan fast
  opts.doclen_sigma = 0.5;
  opts.num_topics = 12;
  opts.terms_per_topic = 5;
  opts.relevant_docs_per_topic = 40;
  opts.topical_mass = 0.35;
  opts.topic_rank_min = 20;
  opts.topic_rank_max = 300;
  opts.seed = 2007;
  return opts;
}

std::string TempIndexDir(const char* name) {
  return std::string(::testing::TempDir()) + "/x100ir_" + name;
}

// ---------------------------------------------------------------------------
// Corpus + query generator
// ---------------------------------------------------------------------------

TEST(Corpus, GenerateIsDeterministicAndShaped) {
  const CorpusOptions opts = SmallGeneratedOptions();
  Corpus a, b;
  ASSERT_TRUE(Corpus::Generate(opts, &a).ok());
  ASSERT_TRUE(Corpus::Generate(opts, &b).ok());
  ASSERT_EQ(a.num_docs(), opts.num_docs);
  ASSERT_EQ(a.num_postings(), b.num_postings());
  ASSERT_EQ(a.Fingerprint(), b.Fingerprint());
  for (uint32_t d = 0; d < a.num_docs(); d += 97) {
    ASSERT_EQ(a.doc(d).size(), b.doc(d).size()) << d;
    for (size_t i = 0; i < a.doc(d).size(); ++i) {
      ASSERT_EQ(a.doc(d)[i].term, b.doc(d)[i].term);
      ASSERT_EQ(a.doc(d)[i].tf, b.doc(d)[i].tf);
    }
  }
  // Log-normal(3.5, 0.5) has mean exp(3.5 + 0.125) ≈ 37.7.
  EXPECT_GT(a.avg_doc_len(), 25.0);
  EXPECT_LT(a.avg_doc_len(), 55.0);
  ASSERT_EQ(a.num_topics(), opts.num_topics);
  for (uint32_t t = 0; t < a.num_topics(); ++t) {
    ASSERT_EQ(a.topic_terms(t).size(), opts.terms_per_topic);
    ASSERT_EQ(a.relevant_docs(t).size(), opts.relevant_docs_per_topic);
    for (uint32_t term : a.topic_terms(t)) {
      EXPECT_GE(term, opts.topic_rank_min);
      EXPECT_LT(term, opts.topic_rank_max);
    }
  }
  // Zipf skew: the most frequent term's df dwarfs a mid-tail term's.
  Corpus* c = &a;
  auto df_of = [c](uint32_t term) {
    uint32_t df = 0;
    for (uint32_t d = 0; d < c->num_docs(); ++d) {
      for (const DocTerm& p : c->doc(d)) {
        if (p.term == term) ++df;
      }
    }
    return df;
  };
  EXPECT_GT(df_of(0), 10 * std::max<uint32_t>(1, df_of(1000)));

  // A different seed produces a different stream.
  CorpusOptions other = opts;
  other.seed = 4242;
  Corpus d2;
  ASSERT_TRUE(Corpus::Generate(other, &d2).ok());
  EXPECT_NE(a.Fingerprint(), d2.Fingerprint());
}

TEST(Corpus, RejectsInconsistentOptions) {
  Corpus c;
  CorpusOptions opts = SmallGeneratedOptions();
  opts.num_docs = 0;
  EXPECT_FALSE(Corpus::Generate(opts, &c).ok());

  opts = SmallGeneratedOptions();
  opts.topic_rank_max = opts.vocab_size + 1;
  EXPECT_FALSE(Corpus::Generate(opts, &c).ok());

  opts = SmallGeneratedOptions();
  opts.relevant_docs_per_topic = opts.num_docs;  // 12 topics won't fit
  EXPECT_FALSE(Corpus::Generate(opts, &c).ok());

  EXPECT_FALSE(Corpus::FromDocuments({{0, 11}}, 10, &c).ok());  // term range
  EXPECT_FALSE(Corpus::FromDocuments({{}}, 10, &c).ok());       // empty doc
}

TEST(QueryGen, EvalQueriesComeFromTopics) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  QueryGenOptions qopts;
  qopts.num_eval_queries = 30;
  QueryGenerator gen(corpus, qopts);
  const auto queries = gen.EvalQueries();
  ASSERT_EQ(queries.size(), 30u);
  for (const Query& q : queries) {
    ASSERT_GE(q.topic, 0);
    ASSERT_LT(static_cast<uint32_t>(q.topic), corpus.num_topics());
    ASSERT_GE(q.terms.size(), 1u);
    const auto& tt = corpus.topic_terms(static_cast<uint32_t>(q.topic));
    for (uint32_t term : q.terms) {
      EXPECT_NE(std::find(tt.begin(), tt.end(), term), tt.end());
    }
  }
  // Deterministic across calls.
  const auto again = gen.EvalQueries();
  ASSERT_EQ(again.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(again[i].terms, queries[i].terms);
  }
}

TEST(QueryGen, EfficiencyQueriesMatchLogShape) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  QueryGenOptions qopts;
  qopts.num_efficiency_queries = 2000;
  QueryGenerator gen(corpus, qopts);
  const auto queries = gen.EfficiencyQueries();
  ASSERT_EQ(queries.size(), 2000u);
  double terms = 0.0;
  for (const Query& q : queries) {
    EXPECT_EQ(q.topic, -1);
    ASSERT_GE(q.terms.size(), 1u);
    ASSERT_LE(q.terms.size(), 5u);
    std::set<uint32_t> distinct(q.terms.begin(), q.terms.end());
    EXPECT_EQ(distinct.size(), q.terms.size());
    for (uint32_t t : q.terms) ASSERT_LT(t, corpus.vocab_size());
    terms += static_cast<double>(q.terms.size());
  }
  const double avg = terms / static_cast<double>(queries.size());
  EXPECT_GT(avg, 2.0);  // paper's query log: 2.3 terms on average
  EXPECT_LT(avg, 2.6);
}

TEST(QueryGen, TinyVocabularyTerminates) {
  // Drawn query lengths can exceed a hand-built corpus's distinct-term
  // count; the generator must clamp instead of spinning forever.
  Corpus tiny;
  ASSERT_TRUE(Corpus::FromDocuments({{0, 1, 0}, {1, 2}}, 3, &tiny).ok());
  QueryGenOptions qopts;
  qopts.num_efficiency_queries = 50;
  QueryGenerator gen(tiny, qopts);
  const auto queries = gen.EfficiencyQueries();
  ASSERT_EQ(queries.size(), 50u);
  for (const Query& q : queries) {
    ASSERT_GE(q.terms.size(), 1u);
    ASSERT_LE(q.terms.size(), 3u);
  }
  EXPECT_TRUE(gen.EvalQueries().empty());  // no planted topics
}

// ---------------------------------------------------------------------------
// Index build, persistence, reuse
// ---------------------------------------------------------------------------

TEST(Index, PostingsRoundTripAgainstCorpus) {
  Corpus corpus = GoldenCorpus();
  InvertedIndex index;
  BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, "", &stats).ok());
  ASSERT_EQ(stats.num_postings, corpus.num_postings());
  ASSERT_EQ(index.num_docs(), corpus.num_docs());

  // Term 2 appears in docs 0 (tf 2), 1 (tf 1), 3 (tf 4), 6 (tf 1),
  // 7 (tf 1).
  std::vector<int32_t> docids, tfs;
  ASSERT_TRUE(index.DecodePostings(2, &docids, &tfs).ok());
  EXPECT_EQ(docids, (std::vector<int32_t>{0, 1, 3, 6, 7}));
  EXPECT_EQ(tfs, (std::vector<int32_t>{2, 1, 4, 1, 1}));
  EXPECT_EQ(index.term(2).doc_freq, 5u);

  // Every term's decoded postings match a corpus scan.
  for (uint32_t t = 0; t < corpus.vocab_size(); ++t) {
    ASSERT_TRUE(index.DecodePostings(t, &docids, &tfs).ok());
    std::vector<int32_t> want_docs;
    std::vector<int32_t> want_tfs;
    for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
      for (const DocTerm& p : corpus.doc(d)) {
        if (p.term == t) {
          want_docs.push_back(static_cast<int32_t>(d));
          want_tfs.push_back(p.tf);
        }
      }
    }
    EXPECT_EQ(docids, want_docs) << "term " << t;
    EXPECT_EQ(tfs, want_tfs) << "term " << t;
  }
}

TEST(Index, PersistsAndReusesColumnFiles) {
  const std::string dir = TempIndexDir("reuse");
  std::filesystem::remove_all(dir);

  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());

  InvertedIndex first;
  BuildStats stats;
  ASSERT_TRUE(first.BuildFromCorpus(corpus, dir, &stats).ok());
  EXPECT_FALSE(stats.reused_files);
  EXPECT_EQ(stats.num_postings, corpus.num_postings());
  for (const char* f : {kDocidRawFile, kDocidCompressedFile, kTfRawFile,
                        kTfCompressedFile, kIndexMetaFile}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + f)) << f;
  }
  // Compression earns its keep on the synthetic collection.
  EXPECT_LT(std::filesystem::file_size(dir + "/" + kDocidCompressedFile),
            std::filesystem::file_size(dir + "/" + kDocidRawFile) / 2);

  InvertedIndex second;
  ASSERT_TRUE(second.BuildFromCorpus(corpus, dir, &stats).ok());
  EXPECT_TRUE(stats.reused_files);
  std::vector<int32_t> a, b;
  ASSERT_TRUE(first.DecodePostings(50, &a, nullptr).ok());
  ASSERT_TRUE(second.DecodePostings(50, &b, nullptr).ok());
  EXPECT_EQ(a, b);

  // A different corpus fingerprint must not reuse the files.
  CorpusOptions other_opts = SmallGeneratedOptions();
  other_opts.seed = 99;
  Corpus other;
  ASSERT_TRUE(Corpus::Generate(other_opts, &other).ok());
  InvertedIndex third;
  ASSERT_TRUE(third.BuildFromCorpus(other, dir, &stats).ok());
  EXPECT_FALSE(stats.reused_files);

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Golden retrieval: engine vs oracles
// ---------------------------------------------------------------------------

class GoldenSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = GoldenCorpus();
    BuildStats stats;
    ASSERT_TRUE(index_.BuildFromCorpus(corpus_, "", &stats).ok());
    engine_.set_index(&index_);
  }

  Corpus corpus_;
  InvertedIndex index_;
  SearchEngine engine_;
};

TEST_F(GoldenSearchTest, BooleanRunsMatchSetOracle) {
  const std::vector<std::vector<uint32_t>> term_sets = {
      {2}, {0, 2}, {1, 2, 3}, {8, 9}, {0, 5}, {4, 6, 8}};
  for (const auto& terms : term_sets) {
    for (bool conjunctive : {true, false}) {
      Query q;
      q.terms = terms;
      SearchOptions opts;
      opts.k = 100;  // no truncation at this scale
      SearchResult result;
      ASSERT_TRUE(engine_
                      .Search(q,
                              conjunctive ? RunType::kBoolAnd
                                          : RunType::kBoolOr,
                              opts, &result)
                      .ok());
      const SearchResult want = Reference::Of(corpus_).Search(
          q, conjunctive ? RunType::kBoolAnd : RunType::kBoolOr, opts);
      EXPECT_EQ(result.docids, want.docids)
          << (conjunctive ? "AND" : "OR") << " terms[0]=" << terms[0];
      EXPECT_EQ(result.num_matches, want.num_matches);
      EXPECT_TRUE(result.scores.empty());
    }
  }
}

TEST_F(GoldenSearchTest, BooleanRespectsResultCap) {
  Query q;
  q.terms = {2};
  SearchOptions opts;
  opts.k = 2;
  SearchResult result;
  ASSERT_TRUE(engine_.Search(q, RunType::kBoolOr, opts, &result).ok());
  EXPECT_EQ(result.docids, (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(result.num_matches, 5u);  // full count survives the cap
}

TEST_F(GoldenSearchTest, Bm25TopKMatchesOracleTo1e5) {
  const std::vector<std::vector<uint32_t>> term_sets = {
      {2}, {0, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {9}, {5, 8}};
  for (const auto& terms : term_sets) {
    Query q;
    q.terms = terms;
    SearchOptions opts;
    opts.k = 4;
    SearchResult result;
    ASSERT_TRUE(engine_.Search(q, RunType::kBm25, opts, &result).ok());
    const SearchResult want =
        Reference::Of(corpus_).Search(q, RunType::kBm25, opts);
    const size_t want_n = want.docids.size();
    ASSERT_EQ(result.docids.size(), want_n) << "terms[0]=" << terms[0];
    ASSERT_EQ(result.scores.size(), want_n);
    EXPECT_EQ(result.num_matches, want.num_matches);
    for (size_t i = 0; i < want_n; ++i) {
      EXPECT_EQ(result.docids[i], want.docids[i])
          << "rank " << i << " terms[0]=" << terms[0];
      EXPECT_NEAR(result.scores[i], want.scores[i], 1e-5) << "rank " << i;
    }
    // Ranked output is ordered (score desc, docid asc).
    for (size_t i = 1; i < want_n; ++i) {
      const bool ordered =
          result.scores[i - 1] > result.scores[i] ||
          (result.scores[i - 1] == result.scores[i] &&
           result.docids[i - 1] < result.docids[i]);
      EXPECT_TRUE(ordered) << "rank " << i;
    }
  }
}

TEST_F(GoldenSearchTest, HandlesDuplicateTermsAndErrors) {
  Query q;
  q.terms = {2, 2, 0};
  SearchOptions opts;
  SearchResult dup, nodup;
  ASSERT_TRUE(engine_.Search(q, RunType::kBm25, opts, &dup).ok());
  q.terms = {0, 2};
  ASSERT_TRUE(engine_.Search(q, RunType::kBm25, opts, &nodup).ok());
  EXPECT_EQ(dup.docids, nodup.docids);

  q.terms = {};
  SearchResult r;
  EXPECT_FALSE(engine_.Search(q, RunType::kBm25, opts, &r).ok());
  q.terms = {1000};
  EXPECT_FALSE(engine_.Search(q, RunType::kBm25, opts, &r).ok());

  // Storage-era runs need an on-disk index; this engine is in-memory only.
  q.terms = {2};
  const Status s = engine_.Search(q, RunType::kBm25T, opts, &r);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

// The same reference agreement on a generated corpus, through the
// Database facade, across several vector sizes (including ones that
// exercise refill paths mid-posting-list).
TEST(Database, Bm25MatchesOracleOnGeneratedCorpusAcrossVectorSizes) {
  core::Database db;
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  ASSERT_TRUE(db.Open(dopts).ok());

  QueryGenOptions qopts;
  qopts.num_eval_queries = 6;
  QueryGenerator gen(db.corpus(), qopts);
  const auto queries = gen.EvalQueries();
  ASSERT_FALSE(queries.empty());

  const Reference ref = Reference::Of(db.corpus());
  for (const Query& q : queries) {
    SearchOptions opts;
    opts.k = 10;
    const SearchResult want = ref.Search(q, RunType::kBm25, opts);
    for (uint32_t vs : {1u, 3u, 64u, 1024u, 1u << 15}) {
      opts.vector_size = vs;
      SearchResult result;
      ASSERT_TRUE(db.Search(q, RunType::kBm25, opts, &result).ok());
      const size_t want_n = want.docids.size();
      ASSERT_EQ(result.docids.size(), want_n) << "vs=" << vs;
      for (size_t i = 0; i < want_n; ++i) {
        EXPECT_EQ(result.docids[i], want.docids[i])
            << "vs=" << vs << " rank " << i;
        EXPECT_NEAR(result.scores[i], want.scores[i], 1e-5);
      }
    }
  }
}

TEST(Database, ValidatesVectorSizeThroughPublicApi) {
  core::Database db;
  core::DatabaseOptions dopts;
  CorpusOptions small = SmallGeneratedOptions();
  small.num_docs = 300;
  small.vocab_size = 500;
  small.num_topics = 4;
  small.relevant_docs_per_topic = 20;
  small.topic_rank_max = 300;
  dopts.corpus = small;
  ASSERT_TRUE(db.Open(dopts).ok());

  Query q;
  q.terms = {10, 20};
  SearchResult result;

  SearchOptions opts;
  opts.vector_size = 0;
  const Status s = db.Search(q, RunType::kBm25, opts, &result);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // Oversize clamps (plan still runs) and agrees with the default size.
  SearchOptions big;
  big.vector_size = vec::ExecContext::kMaxVectorSize * 4;
  SearchResult clamped, base;
  ASSERT_TRUE(db.Search(q, RunType::kBm25, big, &clamped).ok());
  ASSERT_TRUE(db.Search(q, RunType::kBm25, SearchOptions{}, &base).ok());
  EXPECT_EQ(clamped.docids, base.docids);

  // Unopened database refuses queries.
  core::Database closed;
  EXPECT_FALSE(closed.Search(q, RunType::kBm25, SearchOptions{}, &result).ok());
}

// ---------------------------------------------------------------------------
// TopK
// ---------------------------------------------------------------------------

TEST(TopK, KeepsStrongestWithDocidTiebreak) {
  TopK topk(3);
  topk.Push(5, 1.0f);
  topk.Push(9, 3.0f);
  EXPECT_EQ(topk.threshold(), -std::numeric_limits<float>::infinity());
  topk.Push(1, 2.0f);
  EXPECT_FLOAT_EQ(topk.threshold(), 1.0f);
  topk.Push(7, 2.0f);   // evicts (5, 1.0)
  topk.Push(2, 2.0f);   // ties 2.0: docid 2 beats docid 7
  topk.Push(8, 0.5f);   // too weak
  topk.Push(11, 2.0f);  // ties 2.0 but docid 11 loses to 1 and 2

  std::vector<int32_t> docids;
  std::vector<float> scores;
  topk.FinishSorted(&docids, &scores);
  EXPECT_EQ(docids, (std::vector<int32_t>{9, 1, 2}));
  EXPECT_EQ(scores, (std::vector<float>{3.0f, 2.0f, 2.0f}));
}

TEST(TopK, KLargerThanStreamReturnsEverythingRanked) {
  TopK topk(10);
  topk.Push(3, 0.25f);
  topk.Push(1, 0.75f);
  std::vector<int32_t> docids;
  std::vector<float> scores;
  topk.FinishSorted(&docids, &scores);
  EXPECT_EQ(docids, (std::vector<int32_t>{1, 3}));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, PrecisionAtKAgainstKnownQrels) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  Qrels qrels(corpus);
  const auto& rel = corpus.relevant_docs(0);
  ASSERT_GE(rel.size(), 10u);

  // 3 relevant docs in the top 4, then noise: p@4 = 0.75.
  std::vector<int32_t> ranked = {rel[0], rel[1], -1, rel[2]};
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, 4, qrels, 0), 0.75);
  // Same list scored against a different topic: docs are topic-disjoint.
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, 4, qrels, 1), 0.0);
  // Short result lists divide by k, not by the list length.
  std::vector<int32_t> short_list = {rel[0]};
  EXPECT_DOUBLE_EQ(PrecisionAtK(short_list, 20, qrels, 0), 0.05);
  // Unjudged sentinel topic.
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, 4, qrels, -1), 0.0);
  EXPECT_DOUBLE_EQ(Mean({0.5, 1.0, 0.0}), 0.5);
}

// ---------------------------------------------------------------------------
// PR 4: streaming/skipping hot path vs the reference's full evaluation,
// request validation, ExecStats, custom-engine baselines
// ---------------------------------------------------------------------------

// The streaming AND join and MaxScore against the reference, which
// materializes every document's evaluation; the score-all union plan
// matches it bit for bit.
TEST_F(GoldenSearchTest, StreamingPathsAgreeWithMaterialized) {
  const Reference ref = Reference::Of(corpus_);
  const std::vector<std::vector<uint32_t>> term_sets = {
      {2}, {0, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {8, 9}, {4, 6, 8}};
  for (const auto& terms : term_sets) {
    Query q;
    q.terms = terms;
    for (uint32_t vs : {1u, 3u, 256u}) {
      SearchOptions opts;
      opts.vector_size = vs;
      opts.k = 100;
      SearchResult a;
      ASSERT_TRUE(engine_.Search(q, RunType::kBoolAnd, opts, &a).ok());
      const SearchResult and_want = ref.Search(q, RunType::kBoolAnd, opts);
      EXPECT_EQ(a.docids, and_want.docids) << "AND terms[0]=" << terms[0];
      EXPECT_EQ(a.num_matches, and_want.num_matches);

      opts.k = 4;
      const SearchResult want = ref.Search(q, RunType::kBm25, opts);
      ASSERT_TRUE(engine_.Search(q, RunType::kBm25, opts, &a).ok());
      ExpectRankingsEquivalent(a.docids, a.scores, want.docids, want.scores,
                               1e-4f);
      opts.maxscore_bm25 = false;
      ASSERT_TRUE(engine_.Search(q, RunType::kBm25, opts, &a).ok());
      EXPECT_EQ(a.docids, want.docids) << "union terms[0]=" << terms[0];
      EXPECT_EQ(ScoreBits(a.scores), ScoreBits(want.scores));
      EXPECT_EQ(a.num_matches, want.num_matches);
    }
  }
}

TEST_F(GoldenSearchTest, ValidatesRequestsUpFront) {
  Query q;
  q.terms = {2};
  SearchOptions opts;
  opts.k = 0;
  SearchResult r;
  for (RunType type :
       {RunType::kBoolAnd, RunType::kBoolOr, RunType::kBm25}) {
    const Status s = engine_.Search(q, type, opts, &r);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << RunTypeName(type);
  }
}

TEST(Search, UnknownTermsGetCleanEmptyResults) {
  // vocab covers 5 term ids but only 0..2 appear: 3 and 4 are "unknown"
  // words — in-vocabulary, zero postings.
  Corpus corpus;
  ASSERT_TRUE(
      Corpus::FromDocuments({{0, 1, 1}, {1, 2}, {0, 2}}, 5, &corpus).ok());
  InvertedIndex index;
  BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, "", &stats).ok());
  SearchEngine engine(&index);

  SearchOptions opts;
  SearchResult r;
  Query q;
  for (RunType type :
       {RunType::kBoolAnd, RunType::kBoolOr, RunType::kBm25}) {
    // All-unknown query: clean empty result, not an error or a crash.
    q.terms = {3, 4};
    Status s = engine.Search(q, type, opts, &r);
    ASSERT_TRUE(s.ok()) << RunTypeName(type) << ": " << s.ToString();
    EXPECT_TRUE(r.docids.empty()) << RunTypeName(type);
    EXPECT_EQ(r.num_matches, 0u);
  }

  // A conjunction containing an unknown term is empty...
  q.terms = {1, 3};
  ASSERT_TRUE(engine.Search(q, RunType::kBoolAnd, opts, &r).ok());
  EXPECT_TRUE(r.docids.empty());
  // ...while OR / ranked runs just drop it (term 1 is in docs 0 and 1).
  ASSERT_TRUE(engine.Search(q, RunType::kBoolOr, opts, &r).ok());
  EXPECT_EQ(r.docids, (std::vector<int32_t>{0, 1}));
  ASSERT_TRUE(engine.Search(q, RunType::kBm25, opts, &r).ok());
  EXPECT_EQ(r.num_matches, 2u);
}

TEST(Database, ExecStatsProveWindowSkipping) {
  core::Database db;
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  ASSERT_TRUE(db.Open(dopts).ok());

  // Rare term AND frequent term: the candidate list is tiny, so the
  // frequent term's posting windows must be leapt over, not decoded.
  uint32_t rare = 0;
  for (uint32_t t = 0; t < db.index()->vocab_size(); ++t) {
    const uint32_t df = db.index()->term(t).doc_freq;
    if (df >= 1 && df <= 4) {
      rare = t;
      break;
    }
  }
  ASSERT_GT(db.index()->term(0).doc_freq, 500u);  // Zipf head
  Query q;
  q.terms = {0, rare};

  SearchOptions streaming;
  SearchResult r;
  ASSERT_TRUE(db.Search(q, RunType::kBoolAnd, streaming, &r).ok());
  EXPECT_GT(r.stats.windows_skipped, 0u);
  EXPECT_GT(r.stats.windows_decoded, 0u);
  // The skipped windows are real savings: far fewer decodes than the
  // frequent list's window count.
  const uint64_t frequent_windows = db.index()->term(0).doc_freq / 128;
  EXPECT_LT(r.stats.windows_decoded, frequent_windows / 2);
  // ...and skipping loses no match.
  const SearchResult want =
      Reference::Of(db.corpus()).Search(q, RunType::kBoolAnd, streaming);
  EXPECT_EQ(r.docids, want.docids);
  EXPECT_EQ(r.num_matches, want.num_matches);

  // Both ranked paths report primitive calls.
  SearchOptions ranked;
  ASSERT_TRUE(db.Search(q, RunType::kBm25, ranked, &r).ok());
  EXPECT_GT(r.stats.primitive_calls, 0u);
  ranked.maxscore_bm25 = false;
  ASSERT_TRUE(db.Search(q, RunType::kBm25, ranked, &r).ok());
  EXPECT_GT(r.stats.primitive_calls, 0u);
}

TEST(Database, MaxScorePrunesAndAgreesOnGeneratedCorpus) {
  core::Database db;
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  ASSERT_TRUE(db.Open(dopts).ok());

  QueryGenOptions qopts;
  qopts.num_eval_queries = 8;
  QueryGenerator gen(db.corpus(), qopts);
  const Reference ref = Reference::Of(db.corpus());
  uint64_t total_pruned = 0;
  for (Query q : gen.EvalQueries()) {
    // Mix in the heaviest Zipf term: low idf, long list — the textbook
    // non-essential term once the heap fills.
    q.terms.push_back(0);
    SearchOptions maxscore;
    maxscore.k = 5;
    maxscore.vector_size = 64;
    SearchResult a;
    ASSERT_TRUE(db.Search(q, RunType::kBm25, maxscore, &a).ok());
    const SearchResult want = ref.Search(q, RunType::kBm25, maxscore);
    ExpectRankingsEquivalent(a.docids, a.scores, want.docids, want.scores,
                             1e-4f);
    total_pruned += a.stats.vectors_pruned;
    // Pruning can only shrink the candidate set.
    EXPECT_LE(a.num_matches, want.num_matches);
  }
  EXPECT_GT(total_pruned, 0u);
}

TEST(CustomEngine, BaselinesAgreeWithDbmsBm25) {
  Corpus corpus = GoldenCorpus();
  InvertedIndex index;
  BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, "", &stats).ok());
  SearchEngine engine(&index);
  CustomIrEngine custom;
  ASSERT_TRUE(custom.Load(&index).ok());
  EXPECT_EQ(custom.resident_bytes(), corpus.num_postings() * 8);

  const std::vector<std::vector<uint32_t>> term_sets = {
      {2}, {0, 2}, {1, 2, 3}, {5, 8}, {0, 1, 2, 3, 4}};
  for (const auto& terms : term_sets) {
    Query q;
    q.terms = terms;
    SearchOptions opts;
    opts.k = 4;
    SearchResult want;
    ASSERT_TRUE(engine.Search(q, RunType::kBm25, opts, &want).ok());

    CustomSearchResult daat, taat, maxscore;
    ASSERT_TRUE(custom.SearchDaat(q, 4, &daat).ok());
    ASSERT_TRUE(custom.SearchTaat(q, 4, &taat).ok());
    ASSERT_TRUE(custom.SearchMaxScore(q, 4, &maxscore).ok());
    for (const CustomSearchResult* r : {&daat, &taat, &maxscore}) {
      ExpectRankingsEquivalent(r->docids, r->scores, want.docids,
                               want.scores, 1e-4f);
    }
    EXPECT_EQ(daat.num_matches, want.num_matches);
    EXPECT_EQ(taat.num_matches, want.num_matches);
  }

  // Validation mirrors the engine's.
  CustomSearchResult r;
  Query q;
  EXPECT_FALSE(custom.SearchDaat(q, 4, &r).ok());  // empty
  q.terms = {2};
  EXPECT_FALSE(custom.SearchDaat(q, 0, &r).ok());  // k == 0
  q.terms = {1000};
  EXPECT_FALSE(custom.SearchTaat(q, 4, &r).ok());  // out of vocabulary
}

// The planted topics give BM25 real signal: eval queries retrieve their
// topic's documents far better than chance, and better than BoolAND's
// unranked matches. Deterministic (fixed seeds), so thresholds are safe.
TEST(Metrics, Bm25BeatsBooleanOnPlantedTopics) {
  core::Database db;
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  ASSERT_TRUE(db.Open(dopts).ok());
  Qrels qrels(db.corpus());

  QueryGenOptions qopts;
  qopts.num_eval_queries = 12;
  QueryGenerator gen(db.corpus(), qopts);
  std::vector<double> bm25_p20, and_p20;
  for (const Query& q : gen.EvalQueries()) {
    SearchOptions opts;
    SearchResult result;
    ASSERT_TRUE(db.Search(q, RunType::kBm25, opts, &result).ok());
    bm25_p20.push_back(PrecisionAtK(result.docids, 20, qrels, q.topic));
    ASSERT_TRUE(db.Search(q, RunType::kBoolAnd, opts, &result).ok());
    and_p20.push_back(PrecisionAtK(result.docids, 20, qrels, q.topic));
  }
  EXPECT_GT(Mean(bm25_p20), 0.2);
  EXPECT_GT(Mean(bm25_p20), Mean(and_p20));
}

// ---------------------------------------------------------------------------
// Block-Max metadata + Block-Max MaxScore + fused decode→score (DESIGN.md
// §12)
// ---------------------------------------------------------------------------

// Soundness property of the persisted block-max table: for every posting p
// in window w, max_tf dominates tf(p), min_doclen is dominated by
// doclen(p), and the stored build-parameter bound dominates the posting's
// true idf-free BM25 contribution. Windows are positional over the whole
// TD table, so the check flattens the columns in term order.
void CheckBlockMaxSound(const InvertedIndex& index) {
  std::vector<int32_t> docid_col, tf_col;
  for (uint32_t t = 0; t < index.vocab_size(); ++t) {
    std::vector<int32_t> d, f;
    ASSERT_TRUE(index.DecodePostings(t, &d, &f).ok());
    docid_col.insert(docid_col.end(), d.begin(), d.end());
    tf_col.insert(tf_col.end(), f.begin(), f.end());
  }
  const uint64_t n = index.num_postings();
  ASSERT_EQ(docid_col.size(), n);
  const std::vector<BlockMaxEntry>& bm = index.block_max();
  ASSERT_EQ(bm.size(), (n + 127) / 128);
  const float inv_avgdl = static_cast<float>(1.0 / index.avg_doc_len());
  for (uint64_t p = 0; p < n; ++p) {
    const BlockMaxEntry& e = bm[p / 128];
    const int32_t dl = index.doc_lens()[docid_col[p]];
    ASSERT_GE(e.max_tf, tf_col[p]) << "posting " << p;
    ASSERT_LE(e.min_doclen, dl) << "posting " << p;
    const float contrib = Bm25One(
        1.0f, static_cast<float>(tf_col[p]), static_cast<float>(dl),
        InvertedIndex::kMaterializedK1, InvertedIndex::kMaterializedB,
        inv_avgdl);
    ASSERT_GE(e.ub, contrib) << "posting " << p;
  }
}

// num_postings % 128 control: doc d repeats one private term `reps` times,
// so each doc is exactly one posting and doc lengths / tfs still vary.
Corpus UnitPostingCorpus(uint32_t n_postings) {
  std::vector<std::vector<uint32_t>> docs(n_postings);
  for (uint32_t d = 0; d < n_postings; ++d) {
    const uint32_t reps = 1 + (d * 7 + 3) % 5;
    docs[d].assign(reps, d);
  }
  Corpus corpus;
  EXPECT_TRUE(
      Corpus::FromDocuments(docs, n_postings == 0 ? 1 : n_postings, &corpus)
          .ok());
  return corpus;
}

TEST(BlockMax, PersistedBoundsDominateTrueContributions) {
  // The generated corpus: arbitrary window alignment, Zipf tf spread.
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  InvertedIndex index;
  BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, "", &stats).ok());
  CheckBlockMaxSound(index);

  // Hostile boundaries: num_postings % 128 in {0, 1, 127} — full last
  // window, lone posting, one-short window.
  for (uint32_t n : {256u, 1u, 127u, 129u, 383u}) {
    Corpus tiny = UnitPostingCorpus(n);
    InvertedIndex idx;
    ASSERT_TRUE(idx.BuildFromCorpus(tiny, "", &stats).ok());
    ASSERT_EQ(idx.num_postings(), n);
    CheckBlockMaxSound(idx);
  }
}

TEST(BlockMax, TableRoundTripsThroughReuseAndRejectsCorruption) {
  const std::string dir = TempIndexDir("blockmax_reuse");
  std::filesystem::remove_all(dir);
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());

  InvertedIndex first;
  BuildStats stats;
  ASSERT_TRUE(first.BuildFromCorpus(corpus, dir, &stats).ok());
  ASSERT_FALSE(stats.reused_files);
  ASSERT_TRUE(std::filesystem::exists(dir + "/" + kBlockMaxFile));

  // Reuse loads the table off disk, identically.
  InvertedIndex second;
  ASSERT_TRUE(second.BuildFromCorpus(corpus, dir, &stats).ok());
  ASSERT_TRUE(stats.reused_files);
  ASSERT_EQ(first.block_max().size(), second.block_max().size());
  for (size_t w = 0; w < first.block_max().size(); ++w) {
    EXPECT_EQ(first.block_max()[w].max_tf, second.block_max()[w].max_tf);
    EXPECT_EQ(first.block_max()[w].min_doclen,
              second.block_max()[w].min_doclen);
    EXPECT_EQ(first.block_max()[w].ub, second.block_max()[w].ub);
  }
  CheckBlockMaxSound(second);

  // A missing table must force a rebuild (which recreates it)...
  std::filesystem::remove(dir + "/" + kBlockMaxFile);
  InvertedIndex third;
  ASSERT_TRUE(third.BuildFromCorpus(corpus, dir, &stats).ok());
  EXPECT_FALSE(stats.reused_files);
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + kBlockMaxFile));

  // ...and so must a truncated one.
  std::filesystem::resize_file(
      dir + "/" + kBlockMaxFile,
      std::filesystem::file_size(dir + "/" + kBlockMaxFile) / 2);
  InvertedIndex fourth;
  ASSERT_TRUE(fourth.BuildFromCorpus(corpus, dir, &stats).ok());
  EXPECT_FALSE(stats.reused_files);
  CheckBlockMaxSound(fourth);

  std::filesystem::remove_all(dir);
}

TEST(Database, BlockMaxSkipsWindowsAndAgreesWithOracle) {
  core::Database db;
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  ASSERT_TRUE(db.Open(dopts).ok());

  // The workload mixes query lengths the way the efficiency log does.
  // Per-window skips need θ to beat Σ(other terms' static ubs) + the
  // window bound, so they fire on short queries over long lists (the
  // classic block-max win) and naturally fade as terms pile up — both
  // populations must agree with the reference either way.
  QueryGenOptions qopts;
  qopts.num_eval_queries = 8;
  QueryGenerator gen(db.corpus(), qopts);
  std::vector<Query> workload = gen.EvalQueries();
  for (uint32_t t : {0u, 1u, 2u, 3u}) {
    Query single;
    single.terms = {t};
    workload.push_back(single);
    Query pair;
    pair.terms = {t, t + 40};
    workload.push_back(pair);
  }
  const Reference ref = Reference::Of(db.corpus());
  uint64_t total_blockmax_skipped = 0;
  for (const Query& q : workload) {
    SearchOptions opts;
    opts.k = 10;
    opts.vector_size = 64;
    SearchResult a;
    ASSERT_TRUE(db.Search(q, RunType::kBm25, opts, &a).ok());
    const SearchResult want = ref.Search(q, RunType::kBm25, opts);
    // Block-max skips may only drop candidates that are provably below θ:
    // the top-k itself must match the reference (p@20 unchanged).
    ExpectRankingsEquivalent(a.docids, a.scores, want.docids, want.scores,
                             1e-5f);
    EXPECT_LE(a.num_matches, want.num_matches);
    total_blockmax_skipped += a.stats.windows_blockmax_skipped;
  }
  // On this small organic corpus the bounds rarely fire (few windows per
  // list, similar maxima) — that is fine; the planted test below pins that
  // they *do* fire. Here only soundness is asserted.
  (void)total_blockmax_skipped;
}

// A corpus engineered so block-max bounds provably fire: term 0 appears in
// every doc, tf=8 in the first ten docs and tf=1 everywhere else, all
// doclens equal (unique filler terms pad each doc to length 10). The TD
// table sorts by (term, docid), so term 0's list is postings [0, 3000) —
// window 0 holds every tf=8 doc, and all ~22 later windows have
// max_tf == 1. Once the heap holds the ten tf=8 docs, θ equals their
// score and every remaining window's bound falls strictly below it.
TEST(Database, BlockMaxSkipsProvablyWeakWindows) {
  constexpr uint32_t kDocs = 3000;
  std::vector<std::vector<uint32_t>> docs(kDocs);
  uint32_t next_filler = 1;
  for (uint32_t d = 0; d < kDocs; ++d) {
    const uint32_t tf = d < 10 ? 8 : 1;
    docs[d].assign(tf, 0u);
    while (docs[d].size() < 10) docs[d].push_back(next_filler++);
  }
  Corpus corpus;
  ASSERT_TRUE(Corpus::FromDocuments(docs, next_filler, &corpus).ok());
  InvertedIndex index;
  BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, "", &stats).ok());
  SearchEngine engine(&index);

  Query q;
  q.terms = {0};
  SearchOptions opts;
  opts.k = 10;
  opts.vector_size = 64;
  SearchResult a;
  ASSERT_TRUE(engine.Search(q, RunType::kBm25, opts, &a).ok());
  const SearchResult want =
      Reference::Of(corpus).Search(q, RunType::kBm25, opts);

  // The top k are exactly the ten tf=8 docs, with the reference's score
  // bits (a single-term score is one contribution: no addition order).
  ASSERT_EQ(a.docids.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.docids[i], static_cast<int32_t>(i));
  }
  EXPECT_EQ(a.docids, want.docids);
  EXPECT_EQ(ScoreBits(a.scores), ScoreBits(want.scores));

  // Most of the list's ~23 windows were rejected by their bound, while
  // decoded + skipped + block-max-skipped still partitions every window
  // term 0's posting range overlaps...
  EXPECT_GT(a.stats.windows_blockmax_skipped, 15u);
  const TermInfo& info = index.term(0);
  const uint64_t overlapped = (info.posting_start + info.doc_freq - 1) / 128 -
                              info.posting_start / 128 + 1;
  EXPECT_EQ(a.stats.windows_decoded + a.stats.windows_skipped +
                a.stats.windows_blockmax_skipped,
            overlapped);
  // ...and the skipped documents never became candidates.
  EXPECT_EQ(want.num_matches, kDocs);
  EXPECT_LT(a.num_matches, kDocs);
}

// ---------------------------------------------------------------------------
// Fused decode→score kernel vs MapBm25 (tf_window_score.h)
// ---------------------------------------------------------------------------

// Scores one tf window both ways — FusedScoreTfWindow straight from the
// view, MapBm25 over the decoded tfs — and requires identical float bits.
void ExpectFusedMatchesMapBm25(const compress::WindowView& view,
                               const int32_t* tf, const int32_t* dl,
                               float idf, float inv_avgdl) {
  constexpr float k1 = 1.2f;
  constexpr float b = 0.75f;
  std::vector<float> want(view.len), got(view.len);
  MapBm25(view.len, want.data(), tf, dl, idf, k1, b, inv_avgdl);
  ASSERT_TRUE(FusedScoreTfWindow(view, dl, idf * (k1 + 1.0f),
                                 k1 * (1.0f - b), k1 * b * inv_avgdl,
                                 got.data()));
  ASSERT_EQ(ScoreBits(got), ScoreBits(want))
      << "window at " << view.begin << " b=" << view.bit_width
      << " dense=" << view.dense << " exceptions=" << view.exc_count;
}

TEST(FusedScore, BitsEqualMapBm25OnEveryIndexWindow) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  InvertedIndex index;
  BuildStats stats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, "", &stats).ok());
  const compress::BlockDecoder* dec = index.tf_decoder();
  ASSERT_EQ(dec->scheme(), compress::Scheme::kPfor);
  ASSERT_FALSE(dec->naive_layout());
  const float inv_avgdl = static_cast<float>(1.0 / index.avg_doc_len());
  ScopedSimdToggle restore;
  uint64_t with_exceptions = 0;
  for (bool simd : {false, true}) {
    compress::internal::SetSimdUnpackEnabled(simd);
    for (uint32_t w = 0; w < dec->entry_count(); ++w) {
      const compress::WindowView view = dec->WindowViewOf(w);
      int32_t tf[compress::kEntryPointStride];
      int32_t docid[compress::kEntryPointStride];
      int32_t dl[compress::kEntryPointStride];
      index.tf_source()->Read(view.begin, view.len, tf);
      index.docid_source()->Read(view.begin, view.len, docid);
      for (uint32_t i = 0; i < view.len; ++i) {
        dl[i] = index.doc_lens()[docid[i]];
      }
      for (float idf : {0.05f, 2.5f, 9.75f}) {
        ExpectFusedMatchesMapBm25(view, tf, dl, idf, inv_avgdl);
      }
      with_exceptions += view.exc_count > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(with_exceptions, 0u);
}

// Synthetic PFOR blocks at every codeword width: per block one window with
// sparse exceptions, one exception-heavy window, one window of nothing but
// exceptions (stored dense), and a 37-value short last window. Width 0 —
// the constant run, which no encoder emits — is covered by hand-built
// views over the same windows' shapes.
TEST(FusedScore, BitsEqualMapBm25OnSyntheticBlocks) {
  constexpr uint32_t kStride = compress::kEntryPointStride;
  constexpr uint32_t kN = 3 * kStride + 37;
  constexpr double kExceptionRate[] = {0.03, 0.25, 1.0, 0.1};
  const float inv_avgdl = 1.0f / 37.5f;
  ScopedSimdToggle restore;
  uint64_t dense = 0, patched = 0, short_tail = 0;
  for (int bw = 1; bw <= compress::kMaxBitWidth; ++bw) {
    Rng rng(0xf05ed + bw);
    const int64_t lo = 1;
    const int64_t span = int64_t{1} << bw;
    const int64_t extra =
        std::min<int64_t>(1000, INT32_MAX - lo - span + 1);
    std::vector<int32_t> values(kN), dl(kN);
    for (uint32_t i = 0; i < kN; ++i) {
      const bool exc = rng.NextDouble() < kExceptionRate[i / kStride];
      values[i] = static_cast<int32_t>(
          exc ? lo + span + static_cast<int64_t>(rng.NextBounded(extra))
              : lo + static_cast<int64_t>(
                         rng.NextBounded(static_cast<uint64_t>(span))));
      dl[i] = 1 + static_cast<int32_t>(rng.NextBounded(300));
    }
    values[0] = static_cast<int32_t>(lo);  // pins the FOR base
    compress::EncodeOptions eo;
    eo.bit_width = bw;
    std::vector<uint8_t> block;
    ASSERT_TRUE(
        compress::PforEncode(values.data(), kN, eo, &block, nullptr).ok());
    compress::BlockDecoder dec;
    ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
    ASSERT_TRUE(dec.Validate().ok());
    ASSERT_EQ(dec.bit_width(), bw);
    for (bool simd : {false, true}) {
      compress::internal::SetSimdUnpackEnabled(simd);
      for (uint32_t w = 0; w < dec.entry_count(); ++w) {
        const compress::WindowView view = dec.WindowViewOf(w);
        ExpectFusedMatchesMapBm25(view, values.data() + view.begin,
                                  dl.data() + view.begin, 1.7f, inv_avgdl);
        dense += view.dense ? 1 : 0;
        patched += !view.dense && view.exc_count > 0 ? 1 : 0;
        short_tail += view.len < kStride ? 1 : 0;
      }
    }
  }
  EXPECT_GT(dense, 0u);
  EXPECT_GT(patched, 0u);
  EXPECT_GT(short_tail, 0u);

  // Width 0: every codeword is 0, so value == base except at exception
  // records {int32 value, uint32 block-absolute pos}.
  for (uint32_t len : {kStride, 37u}) {
    const uint32_t begin = 2 * kStride;
    const int32_t base = 3;
    std::vector<int32_t> tf(len, base), dl(len);
    std::vector<uint8_t> exc;
    Rng rng(len);
    for (uint32_t i = 0; i < len; ++i) {
      dl[i] = 1 + static_cast<int32_t>(rng.NextBounded(300));
      if (i % 5 != 2) continue;
      tf[i] = base + 1 + static_cast<int32_t>(rng.NextBounded(40));
      const uint32_t pos = begin + i;
      const uint8_t* v = reinterpret_cast<const uint8_t*>(&tf[i]);
      const uint8_t* p = reinterpret_cast<const uint8_t*>(&pos);
      exc.insert(exc.end(), v, v + 4);
      exc.insert(exc.end(), p, p + 4);
    }
    // The kernel never reads a width-0 payload, but it must be non-null.
    const std::vector<uint8_t> payload(64, 0);
    compress::WindowView view;
    view.payload = payload.data();
    view.exc = exc.data();
    view.exc_count = static_cast<uint32_t>(exc.size() / 8);
    view.begin = begin;
    view.len = len;
    view.bit_width = 0;
    view.base = base;
    for (bool simd : {false, true}) {
      compress::internal::SetSimdUnpackEnabled(simd);
      ExpectFusedMatchesMapBm25(view, tf.data(), dl.data(), 1.7f, inv_avgdl);
    }
  }
}

// Single-term queries score every docid window they decode with the fused
// kernel and never touch the tf column through the probe reader.
TEST(Database, SingleTermQueriesFuseEveryDecodedWindow) {
  core::Database db;
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  ASSERT_TRUE(db.Open(dopts).ok());
  uint32_t queries = 0;
  uint64_t fused = 0;
  for (uint32_t t = 0; t < db.index()->vocab_size() && queries < 1200; ++t) {
    if (db.index()->term(t).doc_freq == 0) continue;
    Query q;
    q.terms.push_back(t);
    for (const uint32_t k : {1u, 10u, 100u}) {
      SearchOptions opts;
      opts.k = k;
      SearchResult r;
      ASSERT_TRUE(db.Search(q, RunType::kBm25, opts, &r).ok());
      EXPECT_EQ(r.stats.fused_windows, r.stats.windows_decoded)
          << "term " << t << " k " << k;
      EXPECT_EQ(r.stats.tf_windows_decoded, 0u) << "term " << t;
      fused += r.stats.fused_windows;
      ++queries;
    }
  }
  EXPECT_EQ(queries, 1200u);
  EXPECT_GT(fused, 0u);
}

TEST(Database, WindowCountersPartitionSingleTermTraversal) {
  core::Database db;
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  dopts.dir = TempIndexDir("window_partition");
  std::filesystem::remove_all(dopts.dir);
  dopts.storage.page_bytes = 4096;
  ASSERT_TRUE(db.Open(dopts).ok());

  // A single-term ranked query traverses the term's whole posting range
  // with no SkipTo and no probes, so every overlapped window must land in
  // exactly one of decoded / skipped / blockmax-skipped — the ExecStats
  // partition invariant (DESIGN.md §12.4). windows_decoded alone is *not*
  // monotone in θ (a tighter θ converts decodes into blockmax skips);
  // only the three-way sum is invariant. It holds for the in-memory run
  // and for a storage run, whose docid windows come through the pool
  // (its tf windows count apart, in tf_windows_decoded).
  uint32_t tested = 0;
  for (uint32_t t = 0; t < db.index()->vocab_size() && tested < 6; ++t) {
    const TermInfo& info = db.index()->term(t);
    if (info.doc_freq < 2) continue;
    ++tested;
    const uint64_t first_w = info.posting_start / 128;
    const uint64_t last_w = (info.posting_start + info.doc_freq - 1) / 128;
    const uint64_t overlapped = last_w - first_w + 1;
    Query q;
    q.terms.push_back(t);
    for (const RunType type : {RunType::kBm25, RunType::kBm25TC}) {
      for (const uint32_t k : {3u, 100u}) {
        SearchOptions opts;
        opts.k = k;
        SearchResult r;
        ASSERT_TRUE(db.Search(q, type, opts, &r).ok());
        EXPECT_EQ(r.stats.windows_decoded + r.stats.windows_skipped +
                      r.stats.windows_blockmax_skipped,
                  overlapped)
            << RunTypeName(type) << " term " << t << " k " << k;
      }
    }
  }
  ASSERT_GT(tested, 0u);
  std::filesystem::remove_all(dopts.dir);
}

}  // namespace
}  // namespace x100ir::ir
