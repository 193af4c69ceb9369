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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/shared_theta.h"
#include "compress/pfor.h"
#include "compress/unpack.h"
#include "core/database.h"
#include "ir/corpus.h"
#include "ir/custom_engine.h"
#include "ir/gather.h"
#include "ir/index_builder.h"
#include "ir/maxscore.h"
#include "ir/metrics.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"
#include "ir/segment.h"
#include "ir/tf_window_score.h"
#include "ir/topk.h"
#include "storage/buffer_manager.h"

#include "counting_allocator.h"
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
  std::vector<DocTerm> doc_a, doc_b;
  for (uint32_t d = 0; d < a.num_docs(); d += 97) {
    a.ReadDoc(d, &doc_a);
    b.ReadDoc(d, &doc_b);
    ASSERT_EQ(doc_a.size(), doc_b.size()) << d;
    for (size_t i = 0; i < doc_a.size(); ++i) {
      ASSERT_EQ(doc_a[i].term, doc_b[i].term);
      ASSERT_EQ(doc_a[i].tf, doc_b[i].tf);
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
    c->ForEachDoc(0, c->num_docs(),
                  [&](uint32_t, const DocTerm* doc, uint32_t n) {
                    for (uint32_t i = 0; i < n; ++i) df += doc[i].term == term;
                  });
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

// Corpus::Generate against the sequential generator oracle (reference.h),
// document by document.
void ExpectGenerateMatchesReference(const CorpusOptions& opts) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(opts, &corpus).ok());
  const ReferenceCorpus ref = ReferenceCorpus::Generate(opts);
  ASSERT_EQ(corpus.num_docs(), ref.docs.size());
  std::vector<DocTerm> doc;
  for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
    corpus.ReadDoc(d, &doc);
    ASSERT_EQ(doc.size(), ref.docs[d].size()) << "doc " << d;
    int32_t len = 0;
    for (size_t i = 0; i < doc.size(); ++i) {
      ASSERT_EQ(doc[i].term, ref.docs[d][i].term) << "doc " << d;
      ASSERT_EQ(doc[i].tf, ref.docs[d][i].tf) << "doc " << d;
      len += ref.docs[d][i].tf;
    }
    ASSERT_EQ(corpus.doc_len(d), len) << "doc " << d;
  }
  ASSERT_EQ(corpus.num_topics(), ref.topic_terms.size());
  for (uint32_t t = 0; t < corpus.num_topics(); ++t) {
    EXPECT_EQ(corpus.topic_terms(t), ref.topic_terms[t]) << "topic " << t;
    EXPECT_EQ(corpus.relevant_docs(t), ref.relevant_docs[t]) << "topic " << t;
  }
  EXPECT_EQ(corpus.Fingerprint(), ref.fingerprint);
}

// The draw array is reserved once, at a bound the summed document lengths
// stay under. The bench's tiny corpus options at seed 1 draw 676,673 terms
// where the log-normal mean predicts 672,697, so a reservation at the mean
// would reallocate, doubling the array's memory near the end of the pass.
TEST(Corpus, GenerateAllocatesItsDrawArrayOnce) {
  CorpusOptions opts;
  opts.num_docs = 4000;
  opts.vocab_size = 6000;
  opts.num_topics = 20;
  opts.relevant_docs_per_topic = 40;
  opts.seed = 1;
  const double mean_draws =
      opts.num_docs *
      std::exp(opts.doclen_mu + 0.5 * opts.doclen_sigma * opts.doclen_sigma);
  // Only the draw array comes near half its own size: the Zipf
  // sampler's guide table is 256 KiB, the CDF 48 KB.
  const auto array_bytes =
      static_cast<uint64_t>(sizeof(uint32_t) * mean_draws);
  Corpus corpus;
  {
    CountingScope scope(array_bytes / 2);
    ASSERT_TRUE(Corpus::Generate(opts, &corpus).ok());
    EXPECT_EQ(scope.large_allocations(), 1);
  }
  uint64_t draws = 0;
  for (uint32_t d = 0; d < corpus.num_docs(); ++d) draws += corpus.doc_len(d);
  EXPECT_GT(static_cast<double>(draws), mean_draws);
}

TEST(Corpus, GenerateMatchesSequentialReference) {
  CorpusOptions tiny;  // the benchmark's tiny corpus
  tiny.num_docs = 4000;
  tiny.vocab_size = 6000;
  tiny.num_topics = 20;
  tiny.relevant_docs_per_topic = 40;
  {
    SCOPED_TRACE("tiny");
    ExpectGenerateMatchesReference(tiny);
  }
  {
    // The full 40,000-term CDF: 1.31M Zipf draws, about 20 in each of the
    // sampler's 2^16 guide buckets and at least 4, so every bucket is
    // drawn from.
    SCOPED_TRACE("full vocabulary");
    CorpusOptions full;
    full.num_docs = 10000;
    ASSERT_EQ(full.vocab_size, 40000u);
    ExpectGenerateMatchesReference(full);
  }
  {
    SCOPED_TRACE("no topics");
    CorpusOptions opts = tiny;
    opts.num_topics = 0;
    ExpectGenerateMatchesReference(opts);
  }
  // At either end NextBernoulli makes no draw of its own.
  for (const double mass : {0.0, 1.0}) {
    SCOPED_TRACE(mass);
    CorpusOptions opts = tiny;
    opts.topical_mass = mass;
    ExpectGenerateMatchesReference(opts);
  }
}

// The forward store allocates per chunk, not per document: generating a
// corpus, slicing it and loading a merged segment's forward store each make
// a bounded number of allocations for every kCorpusChunkDocs documents (a
// store of per-document vectors makes at least one per document), and a
// slice shares its parent's chunks.
CorpusOptions FourChunkOptions() {
  CorpusOptions opts = SmallGeneratedOptions();
  opts.num_docs = 4 * kCorpusChunkDocs - 100;
  opts.doclen_mu = 3.0;
  return opts;
}

TEST(Corpus, GenerateAllocatesPerChunk) {
  const CorpusOptions opts = FourChunkOptions();
  Corpus corpus;
  CountingScope scope;
  ASSERT_TRUE(Corpus::Generate(opts, &corpus).ok());
  EXPECT_LT(scope.allocations(), 200);
  EXPECT_LT(scope.allocations(), opts.num_docs / 16);
}

TEST(Corpus, SliceSharesItsParentsChunks) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(FourChunkOptions(), &corpus).ok());
  const uint32_t begin = kCorpusChunkDocs / 2;
  const uint32_t end = corpus.num_docs() - 7;
  Corpus part;
  {
    CountingScope scope;
    ASSERT_TRUE(corpus.Slice(begin, end, &part).ok());
    // The chunk list and the doc lengths; no block is copied.
    EXPECT_LE(scope.allocations(), 2);
    EXPECT_LT(scope.peak(), static_cast<int64_t>(8 * (end - begin)));
  }
  EXPECT_EQ(part.store_bytes().terms, corpus.store_bytes().terms);
  EXPECT_EQ(part.store_bytes().tfs, corpus.store_bytes().tfs);
}

TEST(Corpus, MergedForwardStoreLoadsPerChunk) {
  core::DatabaseOptions dopts;
  dopts.corpus = FourChunkOptions();
  dopts.dir = TempIndexDir("forward_load");
  std::filesystem::remove_all(dopts.dir);
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    ASSERT_TRUE(db.DeleteDocument(3).ok());
    ASSERT_TRUE(db.Merge().ok());
  }
  const uint32_t live = dopts.corpus.num_docs - 1;
  storage::SimulatedDisk disk;
  storage::BufferManager pool(64ull << 20, &disk);
  std::unique_ptr<Segment> seg;
  {
    CountingScope scope;
    ASSERT_TRUE(
        Segment::Load(dopts.dir + "/seg_1", &pool, 1, live, nullptr, &seg)
            .ok());
    EXPECT_LT(scope.allocations(), static_cast<int64_t>(live / 16));
  }
  EXPECT_EQ(seg->forward().num_docs(), live);
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
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
  ASSERT_EQ(index.num_postings(), corpus.num_postings());
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
    corpus.ForEachDoc(0, corpus.num_docs(),
                      [&](uint32_t d, const DocTerm* doc, uint32_t n) {
                        for (uint32_t i = 0; i < n; ++i) {
                          if (doc[i].term != t) continue;
                          want_docs.push_back(static_cast<int32_t>(d));
                          want_tfs.push_back(doc[i].tf);
                        }
                      });
    EXPECT_EQ(docids, want_docs) << "term " << t;
    EXPECT_EQ(tfs, want_tfs) << "term " << t;
  }
}

// A database's first open writes seg_0's columns; a reopen adopts them
// through the manifest; another corpus rebuilds.
std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// seg_0's build runs its column jobs concurrently, a merge's build runs the
// same jobs inline: for the same documents both write the same bytes, in
// every one of the ten index files.
TEST(Index, ConcurrentAndInlineBuildsWriteIdenticalFiles) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  const std::string concurrent_dir = TempIndexDir("build_concurrent");
  const std::string inline_dir = TempIndexDir("build_inline");
  std::filesystem::remove_all(concurrent_dir);
  std::filesystem::remove_all(inline_dir);
  storage::SimulatedDisk disk;
  storage::BufferManager pool(64ull << 20, &disk);
  InvertedIndex concurrent, inline_built;
  ASSERT_TRUE(concurrent
                  .BuildFromCorpus(corpus, concurrent_dir, &pool,
                                   BuildMode::kConcurrent)
                  .ok());
  ASSERT_TRUE(inline_built
                  .BuildFromCorpus(corpus, inline_dir, &pool,
                                   BuildMode::kInline)
                  .ok());
  for (const char* file :
       {kIndexMetaFile, kDocidRawFile, kTfRawFile, kDocidCompressedFile,
        kTfCompressedFile, kScoreF32File, kScoreQ8File, kTermsFile,
        kDoclenFile, kBlockMaxFile}) {
    const std::vector<char> built = FileBytes(concurrent_dir + "/" + file);
    EXPECT_FALSE(built.empty()) << file;
    EXPECT_TRUE(built == FileBytes(inline_dir + "/" + file)) << file;
  }
}

// A job that fails fails the build with its own status, skips no other
// job, and leaves no index.meta behind, in either build mode.
TEST(Index, FailingJobFailsTheBuildAndWritesNoMeta) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  for (const BuildMode mode : {BuildMode::kInline, BuildMode::kConcurrent}) {
    const std::string dir = TempIndexDir("failing_job");
    std::filesystem::remove_all(dir);
    // A directory where the docid job's compressed file goes: its write
    // fails, whatever the user's permissions.
    std::filesystem::create_directories(dir + "/" + kDocidCompressedFile);
    storage::SimulatedDisk disk;
    storage::BufferManager pool(64ull << 20, &disk);
    InvertedIndex index;
    const Status s = index.BuildFromCorpus(corpus, dir, &pool, mode);
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
    EXPECT_NE(s.message().find(kDocidCompressedFile), std::string::npos)
        << s.ToString();
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + kIndexMetaFile));
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + kScoreQ8File));
  }
}

TEST(Index, PersistsAndReusesColumnFiles) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  dopts.dir = TempIndexDir("reuse");
  std::filesystem::remove_all(dopts.dir);
  const std::string seg0 = dopts.dir + "/seg_0/";

  std::vector<int32_t> a, b;
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    EXPECT_FALSE(db.build_stats().reused_files);
    EXPECT_EQ(db.build_stats().num_postings, db.corpus().num_postings());
    for (const char* f : {kDocidRawFile, kDocidCompressedFile, kTfRawFile,
                          kTfCompressedFile, kIndexMetaFile}) {
      EXPECT_TRUE(std::filesystem::exists(seg0 + f)) << f;
    }
    // Compression earns its keep on the synthetic collection.
    EXPECT_LT(std::filesystem::file_size(seg0 + kDocidCompressedFile),
              std::filesystem::file_size(seg0 + kDocidRawFile) / 2);
    ASSERT_TRUE(db.index()->DecodePostings(50, &a, nullptr).ok());
  }

  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    EXPECT_TRUE(db.build_stats().reused_files);
    EXPECT_EQ(db.build_stats().num_postings, db.corpus().num_postings());
    ASSERT_TRUE(db.index()->DecodePostings(50, &b, nullptr).ok());
    EXPECT_EQ(a, b);
  }

  // A different corpus fingerprint must not reuse the files.
  dopts.corpus.seed = 99;
  core::Database other;
  ASSERT_TRUE(other.Open(dopts).ok());
  EXPECT_FALSE(other.build_stats().reused_files);
  EXPECT_EQ(other.index()->num_postings(), other.corpus().num_postings());

  std::filesystem::remove_all(dopts.dir);
}

// ---------------------------------------------------------------------------
// Golden retrieval: engine vs oracles
// ---------------------------------------------------------------------------

class GoldenSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = GoldenCorpus();
    ASSERT_TRUE(index_.BuildFromCorpus(corpus_).ok());
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

// Oracle for TopK and Gather: seeded streams of distinct docids (0 through
// INT32_MAX) whose scores mix exact ties, negatives, ±0, subnormals and
// ±FLT_MAX, checked against a std::sort under the comparator below.
struct Scored {
  int32_t docid;
  float score;
};

bool OracleBefore(const Scored& a, const Scored& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.docid < b.docid;
}

// TopK maps −0.0 to +0.0 (topk.h, RankKey); everything else round-trips.
uint32_t FoldedBits(float s) { return ScoreBits({s + 0.0f})[0]; }

float OracleScore(Rng& rng) {
  static const float kPool[] = {
      0.0f,
      -0.0f,
      1.0f,
      -1.0f,
      2.5f,
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      3.0f * std::numeric_limits<float>::denorm_min(),
  };
  constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  if (rng.NextBernoulli(0.5)) return kPool[rng.NextBounded(kPoolSize)];
  for (;;) {  // any finite float, subnormals included
    const uint32_t bits = static_cast<uint32_t>(rng.Next());
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    if (std::isfinite(f)) return f;
  }
}

// `n` entries with distinct docids in [lo, hi].
std::vector<Scored> OracleStream(Rng& rng, size_t n, int64_t lo, int64_t hi) {
  std::set<int64_t> used;
  std::vector<Scored> out;
  while (out.size() < n) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    int64_t d = lo + static_cast<int64_t>(rng.NextBounded(span));
    if (rng.NextBernoulli(0.1)) d = rng.NextBernoulli(0.5) ? lo : hi;
    if (!used.insert(d).second) continue;
    out.push_back({static_cast<int32_t>(d), OracleScore(rng)});
  }
  return out;
}

TEST(TopK, MatchesSortOracleOnTiesExtremesAndWideDocids) {
  constexpr int64_t kMaxDocid = std::numeric_limits<int32_t>::max();
  Rng rng(26);
  for (const uint32_t k : {1u, 2u, 20u, 100u, 1000u}) {
    for (const size_t n : {size_t{0}, size_t{k / 2}, size_t{k},
                           size_t{3} * k + 7}) {
      const std::vector<Scored> stream = OracleStream(rng, n, 0, kMaxDocid);
      TopK topk(k);
      std::vector<Scored> sorted;  // the prefix pushed so far, rank order
      for (const Scored& e : stream) {
        topk.Push(e.docid, e.score);
        sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), e,
                                       OracleBefore),
                      e);
        if (sorted.size() < k) {
          ASSERT_EQ(topk.threshold(), -std::numeric_limits<float>::infinity());
        } else {
          ASSERT_EQ(FoldedBits(topk.threshold()),
                    FoldedBits(sorted[k - 1].score))
              << "k=" << k << " after " << sorted.size() << " pushes";
        }
      }
      std::vector<Scored> expect = stream;
      std::sort(expect.begin(), expect.end(), OracleBefore);
      if (expect.size() > k) expect.resize(k);
      std::vector<int32_t> docids;
      std::vector<float> scores;
      topk.FinishSorted(&docids, &scores);
      ASSERT_EQ(docids.size(), expect.size()) << "k=" << k << " n=" << n;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(docids[i], expect[i].docid) << "k=" << k << " rank " << i;
        EXPECT_EQ(ScoreBits({scores[i]})[0], FoldedBits(expect[i].score))
            << "k=" << k << " rank " << i;
      }
      // FinishSorted resets the heap.
      EXPECT_FALSE(topk.full());
      EXPECT_EQ(topk.threshold(), -std::numeric_limits<float>::infinity());
    }
  }
}

// Parts of 0..k entries, each rank-sorted over its own local docids and
// mapped to a disjoint ascending global range, merged one at a time: the
// result is the top k of their union, scores bit for bit (the gather never
// decodes a score), the lower global docid winning cross-part ties; and the
// θ channel reads the k-th best of everything merged so far.
TEST(Gather, IncrementalMergeMatchesSortOfTheUnion) {
  Rng rng(2026);
  for (const uint32_t k : {1u, 2u, 20u, 100u, 1000u}) {
    for (int round = 0; round < 6; ++round) {
      const uint32_t num_parts = 1 + static_cast<uint32_t>(rng.NextBounded(6));
      SearchResult merged;
      SharedTheta theta;
      Gather gather(RunType::kBm25, k, &merged, &theta);
      std::vector<Scored> all;
      int64_t base = 0;
      for (uint32_t p = 0; p < num_parts; ++p) {
        const int64_t width = 1 + static_cast<int64_t>(k) * 3;
        const size_t n = static_cast<size_t>(rng.NextBounded(k + 1));
        std::vector<Scored> part = OracleStream(rng, n, 0, width - 1);
        std::sort(part.begin(), part.end(), OracleBefore);
        SearchResult r;
        r.num_matches = n;
        for (const Scored& e : part) {
          r.docids.push_back(e.docid);
          r.scores.push_back(e.score);
          all.push_back({static_cast<int32_t>(base + e.docid), e.score});
        }
        const int32_t offset = static_cast<int32_t>(base);
        gather.Add(std::move(r), [offset](int32_t d) { return offset + d; });
        base += width;
        std::vector<Scored> so_far = all;
        std::sort(so_far.begin(), so_far.end(), OracleBefore);
        if (so_far.size() >= k) {
          EXPECT_EQ(theta.Load(), so_far[k - 1].score)
              << "k=" << k << " part " << p;
        } else {
          EXPECT_EQ(theta.Load(), -std::numeric_limits<float>::infinity());
        }
      }
      gather.Finish();
      std::sort(all.begin(), all.end(), OracleBefore);
      EXPECT_EQ(merged.num_matches, all.size());
      if (all.size() > k) all.resize(k);
      ASSERT_EQ(merged.docids.size(), all.size()) << "k=" << k;
      std::vector<int32_t> want_docids;
      std::vector<float> want_scores;
      for (const Scored& e : all) {
        want_docids.push_back(e.docid);
        want_scores.push_back(e.score);
      }
      EXPECT_EQ(merged.docids, want_docids) << "k=" << k;
      EXPECT_EQ(ScoreBits(merged.scores), ScoreBits(want_scores))
          << "k=" << k;
    }
  }
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
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
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

// A scan plan's set-up costs a few heap blocks per query term: the term's
// scan with its output vectors and batch column list, and for a ranked run
// its scorer with the same. Warm reads of 1–4 terms over an in-memory
// index; one more term must add at most `per_term` allocations.
TEST(Search, ScanPlanSetUpAllocatesAFewBlocksPerTerm) {
  Rng rng(2007);
  std::vector<std::vector<uint32_t>> docs(3000);
  for (auto& doc : docs) {
    doc.resize(40);
    for (auto& t : doc) t = static_cast<uint32_t>(rng.NextBounded(200));
  }
  Corpus corpus;
  ASSERT_TRUE(Corpus::FromDocuments(docs, 200, &corpus).ok());
  InvertedIndex index;
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
  SearchEngine engine(&index);
  SearchOptions opts;
  opts.maxscore_bm25 = false;  // the score-all union
  struct Bound {
    RunType type;
    int64_t per_term;
  };
  for (const Bound& bound :
       {Bound{RunType::kBm25, 11}, Bound{RunType::kBoolOr, 4}}) {
    SCOPED_TRACE(RunTypeName(bound.type));
    std::vector<int64_t> blocks;
    Query q;
    for (uint32_t t : {3u, 50u, 97u, 144u}) {
      q.terms.push_back(t);
      SearchResult r;
      ASSERT_TRUE(engine.Search(q, bound.type, opts, &r).ok());  // warm
      ASSERT_GT(r.num_matches, 0u);
      CountingScope scope;
      ASSERT_TRUE(engine.Search(q, bound.type, opts, &r).ok());
      blocks.push_back(scope.allocations());
    }
    for (size_t i = 1; i < blocks.size(); ++i) {
      EXPECT_LE(blocks[i] - blocks[i - 1], bound.per_term)
          << i << " -> " << i + 1 << " terms: " << blocks[i - 1] << " -> "
          << blocks[i] << " blocks";
    }
  }
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
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
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

// The TD table's docid and tf columns, flattened in term order: windows
// are positional over the whole table.
void FlattenPostings(const InvertedIndex& index, std::vector<int32_t>* docids,
                     std::vector<int32_t>* tfs) {
  for (uint32_t t = 0; t < index.vocab_size(); ++t) {
    std::vector<int32_t> d, f;
    ASSERT_TRUE(index.DecodePostings(t, &d, &f).ok());
    docids->insert(docids->end(), d.begin(), d.end());
    tfs->insert(tfs->end(), f.begin(), f.end());
  }
  ASSERT_EQ(docids->size(), index.num_postings());
}

// The persisted block-max table: for every posting p in window w, max_tf
// dominates tf(p) and min_doclen is dominated by doclen(p), and `ub` is,
// bit for bit, the largest idf-free BM25 contribution at the build
// parameters among the window's postings.
void CheckBlockMaxSound(const InvertedIndex& index) {
  std::vector<int32_t> docid_col, tf_col;
  FlattenPostings(index, &docid_col, &tf_col);
  if (::testing::Test::HasFatalFailure()) return;
  const uint64_t n = index.num_postings();
  const std::vector<BlockMaxEntry>& bm = index.block_max();
  ASSERT_EQ(bm.size(), (n + 127) / 128);
  const float inv_avgdl = static_cast<float>(1.0 / index.avg_doc_len());
  std::vector<float> largest(bm.size(), 0.0f);
  for (uint64_t p = 0; p < n; ++p) {
    const BlockMaxEntry& e = bm[p / 128];
    const int32_t dl = index.doc_lens()[docid_col[p]];
    ASSERT_GE(e.max_tf, tf_col[p]) << "posting " << p;
    ASSERT_LE(e.min_doclen, dl) << "posting " << p;
    const float contrib = Bm25One(
        1.0f, static_cast<float>(tf_col[p]), static_cast<float>(dl),
        InvertedIndex::kMaterializedK1, InvertedIndex::kMaterializedB,
        inv_avgdl);
    largest[p / 128] = std::max(largest[p / 128], contrib);
  }
  for (size_t w = 0; w < bm.size(); ++w) {
    ASSERT_EQ(ScoreBits({bm[w].ub}), ScoreBits({largest[w]})) << "window " << w;
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
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
  CheckBlockMaxSound(index);

  // Hostile boundaries: num_postings % 128 in {0, 1, 127} — full last
  // window, lone posting, one-short window.
  for (uint32_t n : {256u, 1u, 127u, 129u, 383u}) {
    Corpus tiny = UnitPostingCorpus(n);
    InvertedIndex idx;
    ASSERT_TRUE(idx.BuildFromCorpus(tiny).ok());
    ASSERT_EQ(idx.num_postings(), n);
    CheckBlockMaxSound(idx);
  }
}

TEST(BlockMax, TableRoundTripsThroughReuseAndRejectsCorruption) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallGeneratedOptions();
  dopts.dir = TempIndexDir("blockmax_reuse");
  std::filesystem::remove_all(dopts.dir);
  const std::string table = dopts.dir + "/seg_0/" + kBlockMaxFile;

  std::vector<BlockMaxEntry> built;
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    ASSERT_FALSE(db.build_stats().reused_files);
    ASSERT_TRUE(std::filesystem::exists(table));
    built = db.index()->block_max();
  }

  // Reuse loads the table off disk, identically.
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    ASSERT_TRUE(db.build_stats().reused_files);
    const std::vector<BlockMaxEntry>& loaded = db.index()->block_max();
    ASSERT_EQ(built.size(), loaded.size());
    for (size_t w = 0; w < built.size(); ++w) {
      EXPECT_EQ(built[w].max_tf, loaded[w].max_tf);
      EXPECT_EQ(built[w].min_doclen, loaded[w].min_doclen);
      EXPECT_EQ(built[w].ub, loaded[w].ub);
    }
    CheckBlockMaxSound(*db.index());
  }

  // A missing table must force a rebuild (which recreates it)...
  std::filesystem::remove(table);
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    EXPECT_FALSE(db.build_stats().reused_files);
    EXPECT_TRUE(std::filesystem::exists(table));
  }

  // ...and so must a truncated one.
  std::filesystem::resize_file(table, std::filesystem::file_size(table) / 2);
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  EXPECT_FALSE(db.build_stats().reused_files);
  CheckBlockMaxSound(*db.index());

  std::filesystem::remove_all(dopts.dir);
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
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
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

// The executor's window bound (maxscore.h's WindowBounds) under live
// statistics around the build's: idf across its range, avgdl from half to
// twice the build's (a segment scored under a snapshot's or a cluster's
// global statistics), at the build's (k1, b), where the scaled exact maxima
// apply, and at other (k1, b), where only the pair bound does. For every
// posting of every window, the bound must be >= the score bits both the
// fused kernel and MapBm25 compute for it.
TEST(BlockMax, WindowBoundDominatesEveryPostingUnderLiveStatistics) {
  Corpus corpus;
  ASSERT_TRUE(Corpus::Generate(SmallGeneratedOptions(), &corpus).ok());
  InvertedIndex index;
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
  std::vector<int32_t> docid_col, tf_col;
  FlattenPostings(index, &docid_col, &tf_col);
  if (HasFatalFailure()) return;
  const compress::BlockDecoder* tf_dec = index.tf_decoder();
  const std::vector<BlockMaxEntry>& bm = index.block_max();
  constexpr uint32_t kStride = compress::kEntryPointStride;
  struct Params {
    float k1, b;
  };
  Rng rng(0xB0B5);
  uint64_t exact_tighter = 0;
  for (const Params params : {Params{1.2f, 0.75f}, Params{0.9f, 0.4f},
                              Params{2.0f, 1.0f}}) {
    for (const double avgdl_scale : {0.5, 0.8, 1.0, 1.25, 2.0}) {
      ScoreModel model;
      model.k1 = params.k1;
      model.b = params.b;
      model.inv_avgdl =
          static_cast<float>(1.0 / (index.avg_doc_len() * avgdl_scale));
      const WindowBounds bounds(index, model);
      const float c0 = model.k1 * (1.0f - model.b);
      const float c1 = model.k1 * model.b * model.inv_avgdl;
      for (uint32_t w = 0; w < bm.size(); ++w) {
        const uint64_t lo = uint64_t{w} * kStride;
        const uint32_t len = static_cast<uint32_t>(
            std::min<uint64_t>(kStride, docid_col.size() - lo));
        int32_t dl[kStride];
        for (uint32_t i = 0; i < len; ++i) {
          dl[i] = index.doc_lens()[docid_col[lo + i]];
        }
        const float idf =
            0.01f + 12.0f * static_cast<float>(rng.NextBounded(1 << 20)) /
                        static_cast<float>(1 << 20);
        float fused[kStride], mapped[kStride];
        ASSERT_TRUE(FusedScoreTfWindow(tf_dec->WindowViewOf(w), dl,
                                       idf * (model.k1 + 1.0f), c0, c1,
                                       fused));
        MapBm25(len, mapped, tf_col.data() + lo, dl, idf, model.k1, model.b,
                model.inv_avgdl);
        const float bound = bounds.Bound(idf, bounds.Scale(idf), bm[w]);
        for (uint32_t i = 0; i < len; ++i) {
          ASSERT_GE(bound, fused[i])
              << "window " << w << " slot " << i << " k1=" << model.k1
              << " avgdl x" << avgdl_scale;
          ASSERT_GE(bound, mapped[i])
              << "window " << w << " slot " << i << " k1=" << model.k1
              << " avgdl x" << avgdl_scale;
        }
        const float pair = Bm25One(idf, static_cast<float>(bm[w].max_tf),
                                   static_cast<float>(bm[w].min_doclen),
                                   model.k1, model.b, model.inv_avgdl);
        exact_tighter += bound < pair ? 1 : 0;
      }
    }
  }
  // The stored maxima do tighten the bound somewhere.
  EXPECT_GT(exact_tighter, 0u);
}

// Documents of `len` terms: `tf` copies of each (term, tf) pair, padded with
// unique filler terms numbered from *next_filler.
std::vector<uint32_t> PlantedDoc(
    const std::vector<std::pair<uint32_t, uint32_t>>& terms, uint32_t len,
    uint32_t* next_filler) {
  std::vector<uint32_t> doc;
  for (const auto& [term, tf] : terms) doc.insert(doc.end(), tf, term);
  while (doc.size() < len) doc.push_back((*next_filler)++);
  return doc;
}

// Term 0 is in every doc. Window 0 holds the ten top docs (tf=8 at the
// shortest length, 10), and every later window of term 0 pairs one tf=8
// doc of length 400 with one tf=1 doc of length 10, the rest tf=1 at
// length 40. Each later window's (max_tf, min_doclen) = (8, 10) pair bound
// therefore equals the top docs' score — θ once the heap is full — so the
// pair bound can never skip it, while no posting in it scores within a
// third of θ.
TEST(Database, ExactWindowMaximaSkipWhatThePairBoundCannot) {
  constexpr uint32_t kDocs = 3000;
  std::vector<std::vector<uint32_t>> docs(kDocs);
  uint32_t next_filler = 1;
  for (uint32_t d = 0; d < kDocs; ++d) {
    if (d < 10) {
      docs[d] = PlantedDoc({{0, 8}}, 10, &next_filler);
    } else if (d >= 128 && d % 128 == 0) {
      docs[d] = PlantedDoc({{0, 8}}, 400, &next_filler);
    } else if (d >= 128 && d % 128 == 1) {
      docs[d] = PlantedDoc({{0, 1}}, 10, &next_filler);
    } else {
      docs[d] = PlantedDoc({{0, 1}}, 40, &next_filler);
    }
  }
  Corpus corpus;
  ASSERT_TRUE(Corpus::FromDocuments(docs, next_filler, &corpus).ok());
  InvertedIndex index;
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
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
  ASSERT_EQ(a.docids.size(), 10u);
  EXPECT_EQ(a.docids, want.docids);
  EXPECT_EQ(ScoreBits(a.scores), ScoreBits(want.scores));

  // Every window after the first has a pair bound at or above θ: the pair
  // bound alone skips none of them.
  const TermInfo& info = index.term(0);
  ASSERT_EQ(info.posting_start, 0u);
  const float theta = a.scores.back();
  const uint32_t windows = (kDocs + 127) / 128;
  const float inv_avgdl = static_cast<float>(1.0 / index.avg_doc_len());
  for (uint32_t w = 1; w < windows; ++w) {
    const BlockMaxEntry& e = index.block_max()[w];
    ASSERT_GE(Bm25One(info.idf, static_cast<float>(e.max_tf),
                      static_cast<float>(e.min_doclen), opts.bm25.k1,
                      opts.bm25.b, inv_avgdl),
              theta)
        << "window " << w;
  }
  // The exact maxima skip every one of them (θ is final once window 0 is
  // scored), and decoded + skipped + block-max-skipped still partitions
  // term 0's windows.
  EXPECT_EQ(a.stats.windows_blockmax_skipped, windows - 1);
  EXPECT_EQ(a.stats.windows_decoded + a.stats.windows_skipped +
                a.stats.windows_blockmax_skipped,
            windows);
  EXPECT_LT(a.num_matches, want.num_matches);
}

// Term 0 is in every doc; term 1 is rare (three docs, fewer than k) with a
// large idf, one of them the last doc of a window of term 0 and one the
// first. Window 0 of term 0 holds its strongest docs (tf=8 and one tf=20
// at the shortest lengths), every later window only tf=1 docs, and term
// 0's list ends on a window boundary. The top k are the three rare
// docs and seven of term 0's strong ones, so θ stays below term 0's ub and
// both terms stay essential; but term 1's ub alone exceeds θ, so a static
// test that charges it to every window of term 0 skips none. The
// docid-aware test drops term 1 from every window of term 0 that holds no
// rare posting: all windows after the first but the three holding one.
TEST(Database, TermAbsentFromAWindowDropsOutOfItsBound) {
  constexpr uint32_t kDocs = 24 * 128;
  const std::set<uint32_t> rare = {500, 11 * 128 + 127, 19 * 128};
  std::vector<std::vector<uint32_t>> docs(kDocs);
  uint32_t next_filler = 2;
  for (uint32_t d = 0; d < kDocs; ++d) {
    std::vector<std::pair<uint32_t, uint32_t>> terms = {
        {0, d < 10 ? 8u : d == 10 ? 20u : 1u}};
    if (rare.count(d) > 0) terms.push_back({1, 1});
    const uint32_t len = d < 10 ? 10 : d == 10 ? 22 : 40;
    docs[d] = PlantedDoc(terms, len, &next_filler);
  }
  Corpus corpus;
  ASSERT_TRUE(Corpus::FromDocuments(docs, next_filler, &corpus).ok());
  InvertedIndex index;
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
  SearchEngine engine(&index);

  Query q;
  q.terms = {0, 1};
  SearchOptions opts;
  opts.k = 10;
  opts.vector_size = 128;  // one window of term 0 per refill
  SearchResult a;
  ASSERT_TRUE(engine.Search(q, RunType::kBm25, opts, &a).ok());
  const SearchResult want =
      Reference::Of(corpus).Search(q, RunType::kBm25, opts);
  ASSERT_EQ(a.docids.size(), 10u);
  EXPECT_EQ(a.docids, want.docids);
  ExpectRankingsEquivalent(a.docids, a.scores, want.docids, want.scores,
                           1e-5f);
  for (size_t i = 0; i < rare.size(); ++i) {
    EXPECT_EQ(rare.count(static_cast<uint32_t>(a.docids[i])), 1u);
  }

  // Term 1's static ub alone exceeds θ, and θ stays below term 0's ub.
  const float theta = a.scores.back();
  const float min_dl = static_cast<float>(index.min_doc_len());
  const float inv_avgdl = static_cast<float>(1.0 / index.avg_doc_len());
  const auto term_ub = [&](uint32_t t) {
    return Bm25One(index.term(t).idf, static_cast<float>(index.term(t).max_tf),
                   min_dl, opts.bm25.k1, opts.bm25.b, inv_avgdl);
  };
  ASSERT_GT(term_ub(1), theta);
  ASSERT_GT(term_ub(0), theta);

  // Windows 1..23 of term 0, less the three holding a rare posting, are
  // block-max skipped; window 0 (decoded before the heap filled) and term
  // 1's one window are decoded.
  uint32_t expected = 0;
  for (uint32_t w = 1; w < kDocs / 128; ++w) {
    const auto first = rare.lower_bound(w * 128);
    if (first == rare.end() || *first >= (w + 1) * 128) ++expected;
  }
  ASSERT_EQ(expected, 20u);
  EXPECT_EQ(a.stats.windows_blockmax_skipped, expected);
  EXPECT_EQ(a.stats.windows_decoded, kDocs / 128 - expected + 1);
  EXPECT_LT(a.num_matches, want.num_matches);
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
  ASSERT_TRUE(index.BuildFromCorpus(corpus).ok());
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
      dec->Decode(view.begin, view.len, tf);
      index.docid_decoder()->Decode(view.begin, view.len, docid);
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
