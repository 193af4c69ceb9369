// Snapshot-semantics battery for the segmented index (DESIGN.md §10):
// live adds/deletes are bit-identical to the reference evaluator over the
// same logical corpus (reference.h: the statistics of a monolithic index
// rebuilt from the live documents), concurrent searches during a
// background merge stay bit-identical to it (epoch-stable: a merge changes
// no logical content), replaced segments retire — files deleted, pages
// dropped from the shared pool — only when the last pinning snapshot
// releases, a torn MANIFEST falls back to a clean rebuild, a valid one is
// adopted with its tombstones, and a seeded 1K-op add/delete/search/merge
// soak holds the oracle invariant throughout. This binary runs in the TSan
// CI job alongside the server battery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/database.h"
#include "ir/corpus.h"
#include "ir/index_builder.h"
#include "ir/index_meta.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"
#include "ir/snapshot.h"
#include "storage/buffer_manager.h"
#include "storage/crash_point.h"

#include "reference.h"
#include "test_util.h"

namespace x100ir::ir {
namespace {

std::string FreshDir(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string tag =
      info != nullptr
          ? std::string(info->test_suite_name()) + "_" + info->name()
          : std::string("global");
  const std::string dir = std::string(::testing::TempDir()) + "/x100ir_seg_" +
                          tag + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Small enough that a full reference scan per verification is cheap, big
// enough that queries have real posting lists to merge across segments.
CorpusOptions TinyGenerated(uint32_t num_docs = 400) {
  CorpusOptions opts;
  opts.num_docs = num_docs;
  opts.vocab_size = 600;
  opts.zipf_s = 1.05;
  opts.doclen_mu = 3.2;
  opts.doclen_sigma = 0.5;
  opts.num_topics = 6;
  opts.terms_per_topic = 5;
  opts.relevant_docs_per_topic = 20;
  opts.topic_rank_min = 10;
  opts.topic_rank_max = 150;
  opts.seed = 2007;
  return opts;
}

std::vector<Query> MakeQueries(const Corpus& corpus, uint32_t n) {
  QueryGenOptions qopts;
  qopts.num_efficiency_queries = n;
  qopts.num_eval_queries = 5;
  QueryGenerator gen(corpus, qopts);
  return gen.EfficiencyQueries();
}

// One synthetic live document: uniform term draws, duplicates fold to tf.
std::vector<uint32_t> RandomDoc(Rng* rng, uint32_t vocab) {
  const uint32_t len = 8 + static_cast<uint32_t>(rng->Next() % 40);
  std::vector<uint32_t> terms(len);
  for (uint32_t i = 0; i < len; ++i) {
    terms[i] = static_cast<uint32_t>(rng->Next() % vocab);
  }
  return terms;
}

// Parks the background merge after its segment build, before its commit,
// so a test acts at a known point of the merge instead of racing it.
// Declare it after the Database: the destructor releases the merge before
// the Database's destructor joins it, even when an assertion fails.
struct MergeHold {
  MergeHold() {
    storage::CrashPoint::Instance().Hold(
        storage::CrashSite::kMergeAfterSegmentBuild);
  }
  ~MergeHold() { storage::CrashPoint::Instance().Reset(); }
  void WaitHeld() { storage::CrashPoint::Instance().WaitHeld(); }
  void Release() { storage::CrashPoint::Instance().Release(); }
};

// ---------------------------------------------------------------------------
// Live model: the logical corpus the database should equal.
// ---------------------------------------------------------------------------

// Mirrors every mutation the test applies to the database; Ref() is the
// reference evaluator over its live docs in global docid order — exactly
// what the acceptance criterion compares against.
struct LiveModel {
  uint32_t vocab = 0;
  std::vector<std::vector<DocTerm>> docs;  // by global docid, normalized
  std::vector<uint8_t> dead;

  void InitFrom(const Corpus& corpus) {
    vocab = corpus.vocab_size();
    docs.assign(corpus.num_docs(), {});
    dead.assign(corpus.num_docs(), 0);
    for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
      corpus.ReadDoc(d, &docs[d]);
    }
  }
  int32_t Add(const std::vector<uint32_t>& terms) {
    std::vector<uint32_t> sorted = terms;
    std::sort(sorted.begin(), sorted.end());
    std::vector<DocTerm> doc;
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      doc.push_back({sorted[i], static_cast<int32_t>(j - i)});
      i = j;
    }
    docs.push_back(std::move(doc));
    dead.push_back(0);
    return static_cast<int32_t>(docs.size()) - 1;
  }
  void Delete(int32_t docid) { dead[static_cast<size_t>(docid)] = 1; }
  uint32_t live_count() const {
    uint32_t n = 0;
    for (uint8_t d : dead) n += d == 0 ? 1 : 0;
    return n;
  }
  Reference Ref() const {
    std::vector<Reference::Doc> live;
    for (size_t d = 0; d < docs.size(); ++d) {
      if (!dead[d]) live.push_back({static_cast<int32_t>(d), docs[d]});
    }
    return Reference(std::move(live), vocab);
  }
};

// Full bitwise comparison battery: the score-all union path and both
// boolean plans must match the reference exactly — same docids, same float
// bits (same per-document accumulation order by construction, DESIGN.md
// §10), same match counts. MaxScore agrees to rank-equivalence.
void ExpectMatchesReference(const core::Database& db, const Reference& ref,
                            const std::vector<Query>& queries) {
  SearchOptions exact;
  exact.maxscore_bm25 = false;
  exact.k = 50;
  SearchOptions maxscore;
  maxscore.k = 50;
  for (const Query& q : queries) {
    SearchResult got;
    const SearchResult want = ref.Search(q, RunType::kBm25, exact);
    ASSERT_TRUE(db.Search(q, RunType::kBm25, exact, &got).ok());
    EXPECT_EQ(got.docids, want.docids);
    EXPECT_EQ(ScoreBits(got.scores), ScoreBits(want.scores));
    EXPECT_EQ(got.num_matches, want.num_matches);

    SearchResult got_ms;
    ASSERT_TRUE(db.Search(q, RunType::kBm25, maxscore, &got_ms).ok());
    ExpectRankingsEquivalent(got_ms.docids, got_ms.scores, want.docids,
                             want.scores, 1e-4f);

    for (RunType type : {RunType::kBoolAnd, RunType::kBoolOr}) {
      SearchResult bg;
      const SearchResult bw = ref.Search(q, type, exact);
      ASSERT_TRUE(db.Search(q, type, exact, &bg).ok());
      EXPECT_EQ(bg.docids, bw.docids);
      EXPECT_EQ(bg.num_matches, bw.num_matches);
    }
  }
}

// ---------------------------------------------------------------------------
// Tentpole: live adds/deletes, bit-identical to the rebuilt monolith.
// ---------------------------------------------------------------------------

TEST(SegmentTest, AddsAreVisibleAndBitIdenticalToRebuiltOracle) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  const uint64_t epoch0 = db.epoch();

  LiveModel model;
  model.InitFrom(db.corpus());
  Rng rng(41);
  for (int i = 0; i < 120; ++i) {
    const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
    int32_t docid = -1;
    ASSERT_TRUE(db.AddDocument(terms, &docid).ok());
    EXPECT_EQ(docid, model.Add(terms));  // docids allocated in add order
  }
  EXPECT_EQ(db.epoch(), epoch0 + 120);

  // Malformed adds are rejected without burning a docid.
  int32_t unused = -1;
  EXPECT_EQ(db.AddDocument({}, &unused).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.AddDocument({model.vocab}, &unused).code(),
            StatusCode::kInvalidArgument);
  const uint64_t epoch_after = db.epoch();
  EXPECT_EQ(epoch_after, epoch0 + 120);

  ExpectMatchesReference(db, model.Ref(), MakeQueries(db.corpus(), 25));

  // Results are stamped with the snapshot's epoch.
  SearchResult r;
  SearchOptions opts;
  const Query q = MakeQueries(db.corpus(), 1)[0];
  ASSERT_TRUE(db.Search(q, RunType::kBm25, opts, &r).ok());
  EXPECT_EQ(r.epoch, epoch_after);
}

TEST(SegmentTest, DeleteHidesDocsAndClassifiesErrors) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  LiveModel model;
  model.InitFrom(db.corpus());
  Rng rng(43);
  for (int i = 0; i < 60; ++i) {
    const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
    int32_t docid = -1;
    ASSERT_TRUE(db.AddDocument(terms, &docid).ok());
    model.Add(terms);
  }

  // Deletes span both tiers: base-segment docs and write-buffer docs.
  const int32_t base_docs = static_cast<int32_t>(db.corpus().num_docs());
  std::vector<int32_t> victims = {0, 7, base_docs - 1, base_docs + 3,
                                  base_docs + 59};
  for (int32_t d : victims) {
    ASSERT_TRUE(db.DeleteDocument(d).ok()) << d;
    model.Delete(d);
  }

  // Error classification: double delete and never-allocated docids.
  for (int32_t d : victims) {
    EXPECT_EQ(db.DeleteDocument(d).code(), StatusCode::kNotFound) << d;
  }
  EXPECT_EQ(db.DeleteDocument(-1).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.DeleteDocument(base_docs + 60).code(), StatusCode::kNotFound);

  const auto queries = MakeQueries(db.corpus(), 25);
  ExpectMatchesReference(db, model.Ref(), queries);

  // Belt and braces: no run type ever returns a tombstoned docid.
  SearchOptions opts;
  opts.k = 1000;
  for (const Query& q : queries) {
    for (RunType type : {RunType::kBm25, RunType::kBoolAnd, RunType::kBoolOr}) {
      SearchResult r;
      ASSERT_TRUE(db.Search(q, type, opts, &r).ok());
      for (int32_t d : r.docids) {
        EXPECT_EQ(model.dead[static_cast<size_t>(d)], 0) << "docid " << d;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent search during a background merge: bit-identical throughout.
// ---------------------------------------------------------------------------

TEST(SegmentTest, SearchDuringMergeIsBitIdenticalToOracle) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  LiveModel model;
  model.InitFrom(db.corpus());
  Rng rng(47);
  for (int i = 0; i < 200; ++i) {
    const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
    ASSERT_TRUE(db.AddDocument(terms, nullptr).ok());
    model.Add(terms);
  }
  for (int i = 0; i < 30; ++i) {
    const int32_t d = static_cast<int32_t>(
        rng.Next() % static_cast<uint64_t>(model.docs.size()));
    if (model.dead[static_cast<size_t>(d)]) continue;
    ASSERT_TRUE(db.DeleteDocument(d).ok());
    model.Delete(d);
  }

  // The logical corpus is frozen for the whole merge: StartMerge and the
  // commit bump the epoch but change no content, so ONE reference covers
  // the before, during, and after views.
  const Reference ref = model.Ref();
  const auto queries = MakeQueries(db.corpus(), 8);
  ExpectMatchesReference(db, ref, queries);
  SearchOptions exact;
  exact.maxscore_bm25 = false;
  exact.k = 50;
  std::vector<SearchResult> want_bm25, want_or;
  for (const Query& q : queries) {
    want_bm25.push_back(ref.Search(q, RunType::kBm25, exact));
    want_or.push_back(ref.Search(q, RunType::kBoolOr, exact));
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_queries{0};
  std::atomic<uint64_t> mismatches{0};

  // Readers hammer the exact-union path and the disjunctive plan while the
  // merge runs; EXPECT from a non-main thread is fine, but count too so
  // the main thread can assert the volume.
  auto reader = [&](int id) {
    size_t i = static_cast<size_t>(id);
    while (!done.load(std::memory_order_acquire)) {
      const size_t qi = i++ % queries.size();
      const Query& q = queries[qi];
      SearchResult got, bg;
      if (!db.Search(q, RunType::kBm25, exact, &got).ok() ||
          got.docids != want_bm25[qi].docids ||
          ScoreBits(got.scores) != ScoreBits(want_bm25[qi].scores) ||
          got.num_matches != want_bm25[qi].num_matches) {
        mismatches.fetch_add(1);
      }
      if (!db.Search(q, RunType::kBoolOr, exact, &bg).ok() ||
          bg.docids != want_or[qi].docids ||
          bg.num_matches != want_or[qi].num_matches) {
        mismatches.fetch_add(1);
      }
      reader_queries.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader, t);

  // Held between build and commit, the merge is certainly still running
  // when the second StartMerge arrives, and the readers search while it is.
  MergeHold hold;
  ASSERT_TRUE(db.StartMerge().ok());
  hold.WaitHeld();
  EXPECT_EQ(db.StartMerge().code(), StatusCode::kFailedPrecondition);
  const uint64_t at_hold = reader_queries.load();
  while (reader_queries.load() < at_hold + 8) std::this_thread::yield();
  hold.Release();
  ASSERT_TRUE(db.WaitMerge().ok());
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reader_queries.load(), 0u);

  // Post-merge: same reference still holds, including the storage runs the
  // merged segment's columns now serve (MaxScore completes scores in
  // probe order: rank-equivalence with the reference, not bitwise).
  ExpectMatchesReference(db, ref, queries);
  SearchOptions opts;
  opts.k = 30;
  for (const Query& q : queries) {
    SearchResult got;
    const SearchResult want = ref.Search(q, RunType::kBm25, opts);
    ASSERT_TRUE(db.Search(q, RunType::kBm25TC, opts, &got).ok());
    ExpectRankingsEquivalent(got.docids, got.scores, want.docids, want.scores,
                             1e-3f);
  }
}

TEST(SegmentTest, DeletesDuringMergeLandOnTheMergedSegment) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  LiveModel model;
  model.InitFrom(db.corpus());
  Rng rng(53);
  for (int i = 0; i < 150; ++i) {
    const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
    ASSERT_TRUE(db.AddDocument(terms, nullptr).ok());
    model.Add(terms);
  }

  // Delete below the merge cutoff while the merge is held before its
  // commit: the journal must re-apply these as tombstones on the merged
  // segment at commit.
  MergeHold hold;
  ASSERT_TRUE(db.StartMerge().ok());
  hold.WaitHeld();
  for (int32_t d = 3; d < 120; d += 17) {
    ASSERT_TRUE(db.DeleteDocument(d).ok()) << d;
    model.Delete(d);
  }
  hold.Release();
  ASSERT_TRUE(db.WaitMerge().ok());

  ExpectMatchesReference(db, model.Ref(), MakeQueries(db.corpus(), 15));

  // And they really are deletes, not ghosts: a re-delete is NotFound.
  EXPECT_EQ(db.DeleteDocument(3).code(), StatusCode::kNotFound);
}

// A merge whose manifest write fails before the rename changes nothing
// live: deletes that landed on its sealed delta and on the base segment
// while it ran stay applied, and the sealed delta feeds the next attempt.
TEST(SegmentTest, DeletesDuringAFailedMergeStayDeleted) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  LiveModel model;
  model.InitFrom(db.corpus());
  Rng rng(71);
  for (int i = 0; i < 150; ++i) {
    const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
    ASSERT_TRUE(db.AddDocument(terms, nullptr).ok());
    model.Add(terms);
  }

  // A directory where the manifest writer creates its tmp file: the commit
  // fails before its rename.
  const std::string blocker = dopts.dir + "/" + kManifestTmpFile;
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  MergeHold hold;
  ASSERT_TRUE(db.StartMerge().ok());
  hold.WaitHeld();
  const int32_t base_docs = static_cast<int32_t>(db.corpus().num_docs());
  std::vector<int32_t> victims;
  for (int32_t i = 0; i < 7; ++i) victims.push_back(base_docs + 5 + 20 * i);
  victims.push_back(11);
  for (int32_t d : victims) {
    ASSERT_TRUE(db.DeleteDocument(d).ok()) << d;
    model.Delete(d);
  }
  hold.Release();
  EXPECT_EQ(db.WaitMerge().code(), StatusCode::kIOError);

  const auto queries = MakeQueries(db.corpus(), 15);
  ExpectMatchesReference(db, model.Ref(), queries);
  EXPECT_EQ(db.DeleteDocument(victims[0]).code(), StatusCode::kNotFound);

  std::filesystem::remove(blocker);
  ASSERT_TRUE(db.Merge().ok());
  ExpectMatchesReference(db, model.Ref(), queries);
}

// ---------------------------------------------------------------------------
// Retirement: files + pages live exactly as long as the last snapshot.
// ---------------------------------------------------------------------------

TEST(SegmentTest, ReplacedSegmentRetiresOnLastSnapshotRelease) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  ASSERT_TRUE(db.has_storage());

  // Warm the base segment's compressed docid column so it owns pool pages.
  const auto queries = MakeQueries(db.corpus(), 4);
  SearchOptions opts;
  SearchResult r;
  ASSERT_TRUE(db.Search(queries[0], RunType::kBm25TC, opts, &r).ok());

  std::shared_ptr<const Snapshot> pin = db.Acquire();
  ASSERT_EQ(pin->segments.size(), 1u);
  const uint32_t base_file =
      db.index()->storage()->docid_compressed.file_id();
  storage::BufferManager* pool = db.index()->buffer_manager();
  EXPECT_GT(pool->ResidentPagesOfFile(base_file), 0u);
  const std::string seg0 = dopts.dir + "/seg_0";
  ASSERT_TRUE(std::filesystem::exists(seg0 + "/" + kIndexMetaFile));

  Rng rng(59);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        db.AddDocument(RandomDoc(&rng, db.corpus().vocab_size()), nullptr)
            .ok());
  }
  ASSERT_TRUE(db.Merge().ok());

  // The commit replaced the base segment, but `pin` still holds it: its
  // files and pool pages must survive — a pinned reader may touch them.
  EXPECT_TRUE(std::filesystem::exists(seg0 + "/" + kIndexMetaFile));
  EXPECT_GT(pool->ResidentPagesOfFile(base_file), 0u);
  ASSERT_TRUE(
      SearchSnapshot(*pin, queries[0], RunType::kBm25TC, opts, &r).ok());

  // Last pin out: the base segment's directory, seg_0/, is removed and
  // exactly its pages drop from the shared pool; the merged segment (and
  // the manifest) are untouched.
  pin.reset();
  EXPECT_FALSE(std::filesystem::exists(seg0));
  EXPECT_EQ(pool->ResidentPagesOfFile(base_file), 0u);
  EXPECT_TRUE(std::filesystem::exists(dopts.dir + "/" + kManifestFile));
  EXPECT_TRUE(std::filesystem::exists(dopts.dir + "/seg_1/" +
                                      std::string(kIndexMetaFile)));

  // The post-merge database still serves storage runs from seg_1.
  ASSERT_TRUE(db.Search(queries[0], RunType::kBm25TCMQ8, opts, &r).ok());
}

// ---------------------------------------------------------------------------
// Durability: manifest adoption and torn-manifest fallback.
// ---------------------------------------------------------------------------

TEST(SegmentTest, ManifestReopenAdoptsMergedStateAndDeletes) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;

  LiveModel model;
  std::vector<Query> queries;
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    model.InitFrom(db.corpus());
    queries = MakeQueries(db.corpus(), 15);
    Rng rng(61);
    for (int i = 0; i < 80; ++i) {
      const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
      ASSERT_TRUE(db.AddDocument(terms, nullptr).ok());
      model.Add(terms);
    }
    for (int32_t d : {2, 50, 401, 430}) {
      ASSERT_TRUE(db.DeleteDocument(d).ok());
      model.Delete(d);
    }
    ASSERT_TRUE(db.Merge().ok());
    // A post-merge delete on a persisted segment doc is logged — it has
    // to survive the reopen below.
    ASSERT_TRUE(db.DeleteDocument(77).ok());
    model.Delete(77);
  }  // close: joins the merge pool, releases every snapshot

  core::Database db2;
  ASSERT_TRUE(db2.Open(dopts).ok());
  EXPECT_TRUE(db2.build_stats().reused_files);

  // Merged docs (including the formerly-volatile delta docs) survived;
  // every delete — including the post-merge one — stuck.
  ExpectMatchesReference(db2, model.Ref(), queries);
  EXPECT_EQ(db2.DeleteDocument(77).code(), StatusCode::kNotFound);
  EXPECT_EQ(db2.DeleteDocument(2).code(), StatusCode::kNotFound);

  // Docid allocation resumes after the persisted high-water mark.
  int32_t docid = -1;
  ASSERT_TRUE(db2.AddDocument({1, 2, 3}, &docid).ok());
  EXPECT_EQ(docid, static_cast<int32_t>(model.docs.size()));
}

// ---------------------------------------------------------------------------
// Forward stores: every kind reads back its documents; a merge is a
// posting-list merge that writes what a build writes; live df stays exact.
// ---------------------------------------------------------------------------

// `store` holds exactly `want`, read one document at a time, through the
// visitor over the whole store and over a range starting inside a chunk.
void ExpectForwardStoreHolds(const Corpus& store,
                             const std::vector<std::vector<DocTerm>>& want) {
  ASSERT_EQ(store.num_docs(), want.size());
  uint64_t postings = 0;
  std::vector<DocTerm> doc;
  const auto equal = [](const DocTerm* got, uint32_t n,
                        const std::vector<DocTerm>& expect) {
    if (n != expect.size()) return false;
    for (uint32_t i = 0; i < n; ++i) {
      if (got[i].term != expect[i].term || got[i].tf != expect[i].tf) {
        return false;
      }
    }
    return true;
  };
  for (uint32_t d = 0; d < store.num_docs(); ++d) {
    store.ReadDoc(d, &doc);
    ASSERT_TRUE(equal(doc.data(), static_cast<uint32_t>(doc.size()), want[d]))
        << "doc " << d;
    ASSERT_EQ(store.doc_size(d), want[d].size()) << "doc " << d;
    int32_t len = 0;
    for (const DocTerm& p : want[d]) len += p.tf;
    ASSERT_EQ(store.doc_len(d), len) << "doc " << d;
    postings += want[d].size();
  }
  EXPECT_EQ(store.num_postings(), postings);
  for (const uint32_t begin : {0u, store.num_docs() / 3}) {
    uint32_t next = begin;
    store.ForEachDoc(begin, store.num_docs(),
                     [&](uint32_t d, const DocTerm* got, uint32_t n) {
                       EXPECT_EQ(d, next);
                       EXPECT_TRUE(equal(got, n, want[d])) << "doc " << d;
                       ++next;
                     });
    EXPECT_EQ(next, store.num_docs());
  }
}

TEST(ForwardStore, EveryKindReadsBackItsDocuments) {
  // Over two chunks, so reads cross chunk boundaries.
  CorpusOptions opts = TinyGenerated(kCorpusChunkDocs + 700);
  const ReferenceCorpus ref = ReferenceCorpus::Generate(opts);
  Corpus generated;
  ASSERT_TRUE(Corpus::Generate(opts, &generated).ok());
  {
    SCOPED_TRACE("generated");
    ExpectForwardStoreHolds(generated, ref.docs);
  }
  {
    SCOPED_TRACE("FromDocTerms");
    Corpus c;
    ASSERT_TRUE(Corpus::FromDocTerms(ref.docs, opts.vocab_size, &c).ok());
    ExpectForwardStoreHolds(c, ref.docs);
    EXPECT_EQ(c.store_bytes().terms, generated.store_bytes().terms);
  }
  {
    SCOPED_TRACE("FromDocuments");
    std::vector<std::vector<uint32_t>> occurrences(ref.docs.size());
    for (size_t d = 0; d < ref.docs.size(); ++d) {
      // Occurrences in descending term order, so the build sorts them.
      for (auto it = ref.docs[d].rbegin(); it != ref.docs[d].rend(); ++it) {
        occurrences[d].insert(occurrences[d].end(),
                              static_cast<size_t>(it->tf), it->term);
      }
    }
    Corpus c;
    ASSERT_TRUE(Corpus::FromDocuments(occurrences, opts.vocab_size, &c).ok());
    ExpectForwardStoreHolds(c, ref.docs);
  }
  {
    SCOPED_TRACE("sliced");
    const uint32_t begin = kCorpusChunkDocs - 300;
    const uint32_t end = generated.num_docs() - 50;
    Corpus part;
    ASSERT_TRUE(generated.Slice(begin, end, &part).ok());
    ExpectForwardStoreHolds(
        part, std::vector<std::vector<DocTerm>>(ref.docs.begin() + begin,
                                                ref.docs.begin() + end));
    // A slice hashes like the same documents built on their own.
    Corpus copy;
    ASSERT_TRUE(Corpus::FromDocTerms(
                    std::vector<std::vector<DocTerm>>(
                        ref.docs.begin() + begin, ref.docs.begin() + end),
                    opts.vocab_size, &copy)
                    .ok());
    EXPECT_EQ(part.Fingerprint(), copy.Fingerprint());
  }

  core::DatabaseOptions dopts;
  dopts.corpus = opts;
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  LiveModel model;
  const auto live_docs = [&model] {
    std::vector<std::vector<DocTerm>> docs;
    for (size_t d = 0; d < model.docs.size(); ++d) {
      if (!model.dead[d]) docs.push_back(model.docs[d]);
    }
    return docs;
  };
  const auto merged_store = [](const core::Database& db) -> const Corpus& {
    return db.Acquire()->segments.at(0).seg->forward();
  };
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    model.InitFrom(db.corpus());
    Rng rng(97);
    for (int i = 0; i < 40; ++i) {
      const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
      ASSERT_TRUE(db.AddDocument(terms, nullptr).ok());
      model.Add(terms);
    }
    const auto chunk = static_cast<int32_t>(kCorpusChunkDocs);
    for (const int32_t d :
         {0, 11, chunk + 5, static_cast<int32_t>(opts.num_docs) + 3}) {
      ASSERT_TRUE(db.DeleteDocument(d).ok());
      model.Delete(d);
    }
    ASSERT_TRUE(db.Merge().ok());
    SCOPED_TRACE("merged");
    ExpectForwardStoreHolds(merged_store(db), live_docs());
  }
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  ASSERT_TRUE(db.build_stats().reused_files);
  SCOPED_TRACE("reopened");
  ExpectForwardStoreHolds(merged_store(db), live_docs());
}

// Compares the ten index files of two segment directories byte for byte.
void ExpectSameIndexFiles(const std::string& got_dir,
                          const std::string& want_dir) {
  const auto bytes = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::vector<char> out;
    if (f == nullptr) return out;
    char buf[1 << 14];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out.insert(out.end(), buf, buf + got);
    }
    std::fclose(f);
    return out;
  };
  for (const char* file :
       {kIndexMetaFile, kDocidRawFile, kTfRawFile, kDocidCompressedFile,
        kTfCompressedFile, kScoreF32File, kScoreQ8File, kTermsFile,
        kDoclenFile, kBlockMaxFile}) {
    const std::vector<char> want = bytes(want_dir + "/" + file);
    EXPECT_FALSE(want.empty()) << file;
    EXPECT_TRUE(bytes(got_dir + "/" + file) == want) << file;
  }
}

// Each merge's segment files equal those BuildFromCorpus writes over the
// same live documents, with tombstones in seg_0, in a merged segment and
// in the sealed deltas the merges compact.
TEST(SegmentTest, PostingListMergeWritesTheFilesABuildWrites) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  LiveModel model;
  model.InitFrom(db.corpus());
  Rng rng(83);
  storage::SimulatedDisk disk;
  storage::BufferManager pool(64ull << 20, &disk);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    std::vector<int32_t> added;
    for (int i = 0; i < 30; ++i) {
      const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
      int32_t docid = -1;
      ASSERT_TRUE(db.AddDocument(terms, &docid).ok());
      EXPECT_EQ(docid, model.Add(terms));
      added.push_back(docid);
    }
    // Two segment documents and two of the delta's.
    for (const int32_t d : {5 + round, 170 + 9 * round, added[2], added[17]}) {
      ASSERT_TRUE(db.DeleteDocument(d).ok());
      model.Delete(d);
    }
    ASSERT_TRUE(db.Merge().ok());
    std::vector<std::vector<DocTerm>> live;
    for (size_t d = 0; d < model.docs.size(); ++d) {
      if (!model.dead[d]) live.push_back(model.docs[d]);
    }
    Corpus corpus;
    ASSERT_TRUE(Corpus::FromDocTerms(live, model.vocab, &corpus).ok());
    const std::string built = FreshDir(round == 0 ? "built0" : "built1");
    InvertedIndex index;
    ASSERT_TRUE(index.BuildFromCorpus(corpus, built, &pool).ok());
    const auto snap = db.Acquire();
    ASSERT_EQ(snap->segments.size(), 1u);
    EXPECT_EQ(snap->segments[0].seg->seg_id(),
              static_cast<uint32_t>(round + 1));
    ExpectSameIndexFiles(snap->segments[0].seg->dir(), built);
  }
}

// The live stats after deletes in seg_0 and in a delta, a merge, deletes in
// the merged segment and a reopen (which recounts through the forward
// stores) equal a recount over the live documents.
TEST(SegmentTest, LiveStatsEqualARecountAcrossMergeAndReopen) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  LiveModel model;
  const auto expect_recount = [&model](const core::Database& db) {
    std::vector<uint32_t> df(model.vocab, 0);
    uint32_t live = 0;
    uint64_t total_len = 0;
    for (size_t d = 0; d < model.docs.size(); ++d) {
      if (model.dead[d]) continue;
      ++live;
      for (const DocTerm& p : model.docs[d]) {
        ++df[p.term];
        total_len += static_cast<uint64_t>(p.tf);
      }
    }
    const auto snap = db.Acquire();
    EXPECT_EQ(snap->stats->num_docs, live);
    EXPECT_EQ(snap->stats->avg_doc_len,
              static_cast<double>(total_len) / static_cast<double>(live));
    EXPECT_EQ(snap->stats->df, df);
  };
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    model.InitFrom(db.corpus());
    Rng rng(89);
    for (int i = 0; i < 25; ++i) {
      const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
      ASSERT_TRUE(db.AddDocument(terms, nullptr).ok());
      model.Add(terms);
    }
    for (const int32_t d : {1, 222, 399, 404, 419}) {
      ASSERT_TRUE(db.DeleteDocument(d).ok());
      model.Delete(d);
    }
    expect_recount(db);
    ASSERT_TRUE(db.Merge().ok());
    expect_recount(db);
    for (const int32_t d : {2, 300, 410}) {
      ASSERT_TRUE(db.DeleteDocument(d).ok());
      model.Delete(d);
    }
    expect_recount(db);
  }
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  ASSERT_TRUE(db.build_stats().reused_files);
  expect_recount(db);
}

TEST(SegmentTest, TornManifestFallsBackToCleanRebuild) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  {
    core::Database db;
    ASSERT_TRUE(db.Open(dopts).ok());
    Rng rng(67);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          db.AddDocument(RandomDoc(&rng, db.corpus().vocab_size()), nullptr)
              .ok());
    }
    ASSERT_TRUE(db.DeleteDocument(5).ok());
    ASSERT_TRUE(db.Merge().ok());
  }
  const std::string manifest = dopts.dir + "/" + kManifestFile;
  ASSERT_TRUE(std::filesystem::exists(manifest));
  ASSERT_TRUE(std::filesystem::exists(dopts.dir + "/seg_1"));

  // Tear the manifest mid-header.
  std::filesystem::resize_file(manifest, 9);

  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  // Clean rebuild: back to the corpus-only world — the merged segment and
  // its deletes are gone (delta docs were volatile, segment state was
  // unreadable), the stale segment directory is swept, and epoch restarts.
  EXPECT_EQ(db.epoch(), 0u);
  EXPECT_FALSE(std::filesystem::exists(dopts.dir + "/seg_1"));
  auto snap = db.Acquire();
  // The monolithic shape: one identity-map segment, no deletes, no delta.
  ASSERT_EQ(snap->segments.size(), 1u);
  EXPECT_TRUE(snap->segments[0].seg->identity_map());
  EXPECT_EQ(snap->segments[0].tombstones, nullptr);
  EXPECT_TRUE(snap->deltas.empty());
  EXPECT_EQ(snap->stats->num_docs, db.corpus().num_docs());
  int32_t docid = -1;
  ASSERT_TRUE(db.AddDocument({1, 2, 3}, &docid).ok());
  EXPECT_EQ(docid, static_cast<int32_t>(db.corpus().num_docs()));

  // And it queries like the monolith it is.
  LiveModel model;
  model.InitFrom(db.corpus());
  model.Add({1, 2, 3});
  ExpectMatchesReference(db, model.Ref(), MakeQueries(db.corpus(), 10));
}

// ---------------------------------------------------------------------------
// Soak: 1K seeded mixed ops, oracle-checked throughout, zero crashes.
// ---------------------------------------------------------------------------

TEST(SegmentTest, SoakMixedOpsHoldOracleInvariant) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated(/*num_docs=*/200);
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  LiveModel model;
  model.InitFrom(db.corpus());
  const auto queries = MakeQueries(db.corpus(), 10);

  Rng rng(2007);
  uint32_t merges_started = 0, verifies = 0;
  for (int op = 0; op < 1000; ++op) {
    const uint64_t roll = rng.Next() % 100;
    if (roll < 55) {
      const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
      int32_t docid = -1;
      ASSERT_TRUE(db.AddDocument(terms, &docid).ok());
      ASSERT_EQ(docid, model.Add(terms));
    } else if (roll < 80) {
      const int32_t d = static_cast<int32_t>(
          rng.Next() % static_cast<uint64_t>(model.docs.size()));
      const Status s = db.DeleteDocument(d);
      if (model.dead[static_cast<size_t>(d)]) {
        EXPECT_EQ(s.code(), StatusCode::kNotFound) << d;
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        model.Delete(d);
      }
    } else if (roll < 92) {
      // Point-in-time verify: the test thread is the only mutator, so the
      // current snapshot equals the model even while a merge runs.
      const Query& q = queries[static_cast<size_t>(op) % queries.size()];
      SearchOptions exact;
      exact.maxscore_bm25 = false;
      exact.k = 40;
      SearchResult got;
      const SearchResult want = model.Ref().Search(q, RunType::kBm25, exact);
      ASSERT_TRUE(db.Search(q, RunType::kBm25, exact, &got).ok());
      ASSERT_EQ(got.docids, want.docids) << "op " << op;
      ASSERT_EQ(ScoreBits(got.scores), ScoreBits(want.scores)) << "op " << op;
      ASSERT_EQ(got.num_matches, want.num_matches) << "op " << op;
      ++verifies;
    } else {
      const Status s = db.StartMerge();
      if (s.ok()) {
        ++merges_started;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
      }
    }
    if (op % 250 == 249) {
      ASSERT_TRUE(db.WaitMerge().ok());
      ExpectMatchesReference(db, model.Ref(), {queries[0], queries[5]});
    }
  }
  ASSERT_TRUE(db.WaitMerge().ok());
  EXPECT_GT(merges_started, 0u);
  EXPECT_GT(verifies, 0u);
  EXPECT_EQ(db.Acquire()->stats->num_docs, model.live_count());

  ExpectMatchesReference(db, model.Ref(), queries);
}

// ---------------------------------------------------------------------------
// Block-max metadata on segment paths (DESIGN.md §12.1)
// ---------------------------------------------------------------------------

// Same soundness property ir_test pins on the monolithic builder, applied
// to a segment's index: every persisted window bound dominates every
// posting's true idf-free contribution. Tombstones never touch the
// postings themselves — deletes only shrink a window's *true* maxima — so
// the stored bounds must hold regardless of the deletes layered on top.
// `ub` is the window's largest idf-free contribution, bit for bit.
void CheckSegmentBlockMaxSound(const InvertedIndex& index) {
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
  std::vector<float> largest(bm.size(), 0.0f);
  for (uint64_t p = 0; p < n; ++p) {
    const BlockMaxEntry& e = bm[p / 128];
    const int32_t dl = index.doc_lens()[docid_col[p]];
    ASSERT_GE(e.max_tf, tf_col[p]) << "posting " << p;
    ASSERT_LE(e.min_doclen, dl) << "posting " << p;
    largest[p / 128] = std::max(
        largest[p / 128],
        Bm25One(1.0f, static_cast<float>(tf_col[p]), static_cast<float>(dl),
                InvertedIndex::kMaterializedK1, InvertedIndex::kMaterializedB,
                inv_avgdl));
  }
  // Every build path (seal, merge) stores the window's exact maximum.
  for (size_t w = 0; w < bm.size(); ++w) {
    ASSERT_EQ(ScoreBits({bm[w].ub}), ScoreBits({largest[w]})) << "window " << w;
  }
}

TEST(SegmentTest, BlockMaxStaysSoundAcrossSealMergeAndDeletes) {
  const std::string dir = FreshDir("blockmax");
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  dopts.dir = dir;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  // Base + sealed delta: adds (odd doc lengths so windows land on hostile
  // offsets), deletes, then a merge that purges tombstones and re-encodes.
  Rng rng(47);
  for (int i = 0; i < 131; ++i) {
    const std::vector<uint32_t> terms = RandomDoc(&rng, 600);
    int32_t docid = -1;
    ASSERT_TRUE(db.AddDocument(terms, &docid).ok());
  }
  for (int32_t d = 0; d < 40; d += 3) {
    ASSERT_TRUE(db.DeleteDocument(d).ok());
  }
  ASSERT_TRUE(db.Merge().ok());
  for (int i = 0; i < 67; ++i) {
    const std::vector<uint32_t> terms = RandomDoc(&rng, 600);
    int32_t docid = -1;
    ASSERT_TRUE(db.AddDocument(terms, &docid).ok());
  }
  ASSERT_TRUE(db.DeleteDocument(200).ok());
  ASSERT_TRUE(db.Merge().ok());

  // Every segment of the committed view — the merged segment included —
  // carries a sound block-max table.
  auto snap = db.Acquire();
  ASSERT_FALSE(snap->segments.empty());
  for (const Snapshot::SegmentRead& read : snap->segments) {
    CheckSegmentBlockMaxSound(read.seg->index());
  }

  // And a manifest reopen reloads the tables (LoadFromDir path) intact.
  {
    core::Database reopened;
    ASSERT_TRUE(reopened.Open(dopts).ok());
    auto snap2 = reopened.Acquire();
    ASSERT_FALSE(snap2->segments.empty());
    for (const Snapshot::SegmentRead& read : snap2->segments) {
      CheckSegmentBlockMaxSound(read.seg->index());
    }
  }
  std::filesystem::remove_all(dir);
}

// A write buffer runs the engine's own plans, so a delta-only read reports
// its plan's work as a segment's read does — the union's scoring kernel
// calls for kBm25, the join cursors' window loads for BoolAND — and still
// matches the rebuilt monolith bit for bit, deletes in the delta included.
TEST(SegmentTest, DeltaOnlyReadReportsItsPlansWork) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  LiveModel model;
  model.InitFrom(db.corpus());
  for (int32_t d = 0; d < 400; ++d) {
    ASSERT_TRUE(db.DeleteDocument(d).ok());
    model.Delete(d);
  }
  ASSERT_TRUE(db.Merge().ok());
  Rng rng(53);
  std::vector<uint32_t> first_doc;
  for (int i = 0; i < 300; ++i) {
    const std::vector<uint32_t> terms = RandomDoc(&rng, model.vocab);
    if (first_doc.empty()) first_doc = terms;
    int32_t docid = -1;
    ASSERT_TRUE(db.AddDocument(terms, &docid).ok());
    EXPECT_EQ(docid, model.Add(terms));
  }
  for (int32_t d = 401; d < 700; d += 7) {
    ASSERT_TRUE(db.DeleteDocument(d).ok());
    model.Delete(d);
  }
  const auto snap = db.Acquire();
  ASSERT_TRUE(snap->segments.empty());
  ASSERT_EQ(snap->deltas.size(), 1u);
  ExpectMatchesReference(db, model.Ref(), MakeQueries(db.corpus(), 25));

  // Two terms of the first added document, which stays live.
  Query q;
  q.terms = {first_doc[0], first_doc[1]};
  if (q.terms[0] == q.terms[1]) q.terms[1] = first_doc[2];
  SearchOptions opts;
  SearchResult r;
  ASSERT_TRUE(db.Search(q, RunType::kBm25, opts, &r).ok());
  EXPECT_GT(r.num_matches, 0u);
  EXPECT_GT(r.stats.primitive_calls, 0u);
  ASSERT_TRUE(db.Search(q, RunType::kBoolAnd, opts, &r).ok());
  EXPECT_GT(r.num_matches, 0u);
  EXPECT_GT(r.stats.windows_decoded, 0u);
}

// Every read goes through SearchSnapshot under the snapshot's live stats.
// On a fresh database those equal the base index's build-time stats, so
// Database::Search must return exactly what a lone engine over that index
// returns with no stats plumbed in.
TEST(SegmentTest, FreshDatabaseReadsExactlyLikeItsBaseIndex) {
  core::DatabaseOptions dopts;
  dopts.corpus = TinyGenerated(/*num_docs=*/1200);
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  const auto snap = db.Acquire();
  const SearchEngine engine(&snap->segments[0].seg->index());
  SearchOptions opts;
  opts.k = 50;
  for (const Query& q : MakeQueries(db.corpus(), 60)) {
    for (RunType type : AllRunTypes()) {
      SearchResult got, want;
      ASSERT_TRUE(db.Search(q, type, opts, &got).ok()) << RunTypeName(type);
      ASSERT_TRUE(engine.Search(q, type, opts, &want).ok());
      EXPECT_EQ(got.docids, want.docids) << RunTypeName(type);
      EXPECT_EQ(ScoreBits(got.scores), ScoreBits(want.scores))
          << RunTypeName(type);
      EXPECT_EQ(got.num_matches, want.num_matches) << RunTypeName(type);
    }
  }
  std::filesystem::remove_all(dopts.dir);
}

}  // namespace
}  // namespace x100ir::ir
