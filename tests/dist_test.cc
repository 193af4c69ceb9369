// dist/ cluster tests (DESIGN.md §11): merge correctness against the
// reference evaluator (reference.h) across cluster sizes, the shared-θ
// pruning proof, the deadline/straggler/fault battery, and a concurrent
// multi-stream soak. The identity discipline follows the segmented-read
// tests: paths that accumulate floats in the reference's order (the exact
// union plan, the boolean plans) are asserted *bitwise* — docids, score
// bits, num_matches; MaxScore paths — where the pruning threshold changes
// which terms are demoted and therefore the per-document float addition
// order — are asserted rank-equivalent within tolerance, with docids exact
// away from ties.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "dist/cluster.h"
#include "ir/custom_engine.h"
#include "ir/query_gen.h"
#include "ir/snapshot.h"

#include "reference.h"
#include "test_util.h"

namespace x100ir {
namespace {

using dist::Cluster;
using dist::ClusterOptions;
using dist::DistResult;
using dist::DistSearchOptions;
using dist::StreamRunStats;
using ir::Corpus;
using ir::CorpusOptions;
using ir::Query;
using ir::QueryGenerator;
using ir::QueryGenOptions;
using ir::RunType;
using ir::SearchOptions;
using ir::SearchResult;

// Same shape as ir_test's small generated corpus: big enough that MaxScore
// pruning and multi-partition splits are non-trivial, small enough that
// the reference scans stay fast under sanitizers.
CorpusOptions SmallGeneratedOptions() {
  CorpusOptions opts;
  opts.num_docs = 2000;
  opts.vocab_size = 3000;
  opts.zipf_s = 1.05;
  opts.doclen_mu = 3.5;
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

const Corpus& SharedCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus();
    Status s = Corpus::Generate(SmallGeneratedOptions(), c);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return c;
  }();
  return *corpus;
}

// The reference over the whole corpus (cluster docids are corpus docids).
const Reference& SharedReference() {
  static const Reference* ref = new Reference(Reference::Of(SharedCorpus()));
  return *ref;
}

// One engine over the whole corpus, in memory: what a one-node cluster
// must equal bit for bit in every mode, MaxScore included.
const core::Database& MonolithDb() {
  static const core::Database* db = [] {
    auto* d = new core::Database();
    Status s = d->OpenWithCorpus(SharedCorpus(), "", storage::StorageOptions());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return d;
  }();
  return *db;
}

std::vector<Query> TestQueries() {
  QueryGenOptions qopts;
  qopts.num_eval_queries = 24;
  qopts.num_efficiency_queries = 40;
  QueryGenerator gen(SharedCorpus(), qopts);
  std::vector<Query> queries = gen.EvalQueries();
  for (const Query& q : gen.EfficiencyQueries()) queries.push_back(q);
  return queries;
}

std::string TempClusterDir(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string tag =
      info != nullptr
          ? std::string(info->test_suite_name()) + "_" + info->name()
          : std::string("global");
  return std::string(::testing::TempDir()) + "/x100ir_dist_" + tag + "_" +
         name;
}

ClusterOptions InMemoryCluster(uint32_t nodes) {
  ClusterOptions copts;
  copts.num_partitions = nodes;
  copts.total_partitions = nodes;
  copts.cores_per_node = 2;
  return copts;
}

// ---------------------------------------------------------------------------
// Satellite units: ExecStats::operator+= and SearchResult::MergeAccounting
// ---------------------------------------------------------------------------

TEST(ExecStats, PlusEqualsSumsEveryCounter) {
  vec::ExecStats a;
  a.windows_decoded = 1;
  a.windows_skipped = 2;
  a.tf_windows_decoded = 3;
  a.primitive_calls = 4;
  a.vectors_pruned = 5;
  a.docs_probed = 6;
  vec::ExecStats b;
  b.windows_decoded = 10;
  b.windows_skipped = 20;
  b.tf_windows_decoded = 30;
  b.primitive_calls = 40;
  b.vectors_pruned = 50;
  b.docs_probed = 60;
  a += b;
  EXPECT_EQ(a.windows_decoded, 11u);
  EXPECT_EQ(a.windows_skipped, 22u);
  EXPECT_EQ(a.tf_windows_decoded, 33u);
  EXPECT_EQ(a.primitive_calls, 44u);
  EXPECT_EQ(a.vectors_pruned, 55u);
  EXPECT_EQ(a.docs_probed, 66u);
}

TEST(SearchResultTest, MergeAccountingSumsAndNeverTouchesRanking) {
  SearchResult into;
  into.docids = {7, 8};
  into.scores = {2.0f, 1.0f};
  into.num_matches = 5;
  into.io_seconds = 0.25;
  into.stats.docs_probed = 3;
  SearchResult from;
  from.docids = {99};
  from.scores = {9.0f};
  from.num_matches = 11;
  from.used_second_pass = true;
  from.io_seconds = 0.5;
  from.stats.docs_probed = 4;
  into.MergeAccounting(from);
  EXPECT_EQ(into.num_matches, 16u);
  EXPECT_TRUE(into.used_second_pass);
  EXPECT_DOUBLE_EQ(into.io_seconds, 0.75);
  EXPECT_EQ(into.stats.docs_probed, 7u);
  // Ranking payload is merge-policy-specific and must pass through.
  EXPECT_EQ(into.docids, (std::vector<int32_t>{7, 8}));
  EXPECT_EQ(into.scores, (std::vector<float>{2.0f, 1.0f}));
}

// ---------------------------------------------------------------------------
// Open validation and partition geometry
// ---------------------------------------------------------------------------

TEST(ClusterOpen, RejectsBadOptions) {
  const Corpus& corpus = SharedCorpus();
  Cluster cluster;
  ClusterOptions copts = InMemoryCluster(0);
  copts.total_partitions = 4;
  EXPECT_EQ(cluster.Open(corpus, "", copts).code(),
            StatusCode::kInvalidArgument);
  copts = InMemoryCluster(4);
  copts.total_partitions = 2;  // more nodes than partitions
  EXPECT_EQ(cluster.Open(corpus, "", copts).code(),
            StatusCode::kInvalidArgument);
  copts = InMemoryCluster(2);
  copts.speed_factors = {1.0};  // one entry for two nodes
  EXPECT_EQ(cluster.Open(corpus, "", copts).code(),
            StatusCode::kInvalidArgument);
  Query q;
  q.terms = {1};
  DistResult r;
  EXPECT_EQ(cluster.Search(q, RunType::kBm25, DistSearchOptions(), &r).code(),
            StatusCode::kInvalidArgument);  // never opened
}

TEST(ClusterOpen, PartitionsAreContiguousAndStatsAreGlobal) {
  const Corpus& corpus = SharedCorpus();
  for (uint32_t n : {1u, 3u, 8u}) {
    Cluster cluster;
    ASSERT_TRUE(cluster.Open(corpus, "", InMemoryCluster(n)).ok());
    ASSERT_EQ(cluster.num_nodes(), n);
    uint32_t covered = 0;
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(cluster.node_base(i), static_cast<int32_t>(covered));
      covered += cluster.node_num_docs(i);
    }
    EXPECT_EQ(covered, corpus.num_docs());
    // Full-coverage cluster: the global scoring model is the corpus's own,
    // bit for bit — this is what makes shard scores oracle-comparable.
    const ir::CollectionStats& stats = cluster.collection_stats();
    EXPECT_EQ(stats.num_docs, corpus.num_docs());
    EXPECT_EQ(stats.avg_doc_len, corpus.avg_doc_len());
    ASSERT_EQ(stats.df.size(), corpus.vocab_size());
    std::vector<uint32_t> df(corpus.vocab_size(), 0);
    for (uint32_t d = 0; d < corpus.num_docs(); ++d) {
      for (const ir::DocTerm& p : corpus.doc(d)) ++df[p.term];
    }
    EXPECT_EQ(stats.df, df);
  }
}

TEST(ClusterOpen, FewerNodesServeAPrefixOfThePartitions) {
  // The paper's "using less servers" configuration: partitions stay
  // 1/total-sized, so a 2-of-8 cluster serves a quarter of the corpus.
  const Corpus& corpus = SharedCorpus();
  ClusterOptions copts = InMemoryCluster(2);
  copts.total_partitions = 8;
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(corpus, "", copts).ok());
  ASSERT_EQ(cluster.num_nodes(), 2u);
  const uint32_t served =
      cluster.node_num_docs(0) + cluster.node_num_docs(1);
  EXPECT_EQ(served, corpus.num_docs() / 4);
  EXPECT_EQ(cluster.collection_stats().num_docs, served);
}

// ---------------------------------------------------------------------------
// Merge correctness vs the reference
// ---------------------------------------------------------------------------

// The exact union path accumulates every document's score in ascending
// term order inside whichever shard wholly owns the document — the
// reference's float addition order — and the ranked merge is selection,
// never re-scoring. So distributed results must be BITWISE identical to
// the reference: same docids, same score bits, same match count. Boolean
// runs are order-preserving concatenations: same docids, same counts.
TEST(ClusterMerge, ExactPathsBitwiseMatchOracleAcrossClusterSizes) {
  const Reference& ref = SharedReference();
  const std::vector<Query> queries = TestQueries();
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    Cluster cluster;
    ASSERT_TRUE(cluster.Open(SharedCorpus(), "", InMemoryCluster(n)).ok());
    for (const Query& q : queries) {
      for (RunType type :
           {RunType::kBoolAnd, RunType::kBoolOr, RunType::kBm25}) {
        SearchOptions sopts;
        sopts.maxscore_bm25 = false;  // exact union scoring
        const SearchResult expect = ref.Search(q, type, sopts);
        DistSearchOptions dopts;
        dopts.search = sopts;
        DistResult got;
        ASSERT_TRUE(cluster.Search(q, type, dopts, &got).ok());
        EXPECT_EQ(got.merged.docids, expect.docids)
            << "nodes=" << n << " type=" << RunTypeName(type);
        EXPECT_EQ(ScoreBits(got.merged.scores), ScoreBits(expect.scores))
            << "nodes=" << n << " type=" << RunTypeName(type);
        EXPECT_EQ(got.merged.num_matches, expect.num_matches)
            << "nodes=" << n << " type=" << RunTypeName(type);
        EXPECT_FALSE(got.partial);
        EXPECT_EQ(got.shards_ok, n);
      }
    }
  }
}

// MaxScore paths: θ changes which terms are demoted, which changes the
// per-document float accumulation order — last-ulp differences vs the
// reference are expected, rankings must be equivalent. Both θ modes.
TEST(ClusterMerge, MaxScoreBothThetaModesMatchOracle) {
  const Reference& ref = SharedReference();
  const std::vector<Query> queries = TestQueries();
  for (uint32_t n : {2u, 4u, 8u}) {
    Cluster cluster;
    ASSERT_TRUE(cluster.Open(SharedCorpus(), "", InMemoryCluster(n)).ok());
    for (const Query& q : queries) {
      const SearchResult expect =
          ref.Search(q, RunType::kBm25, SearchOptions());
      for (bool share : {false, true}) {
        DistSearchOptions dopts;
        dopts.share_theta = share;
        DistResult got;
        ASSERT_TRUE(cluster.Search(q, RunType::kBm25, dopts, &got).ok());
        ExpectRankingsEquivalent(got.merged.docids, got.merged.scores,
                                 expect.docids, expect.scores, 1e-4f);
      }
    }
  }
}

// A one-node cluster runs the monolith's own plan over the monolith's own
// docid space (base 0): every mode — exact, MaxScore, shared-θ (the only
// shard seeds itself with its own bound, a no-op) — must be bitwise, and
// the exact mode is bitwise the reference too.
TEST(ClusterMerge, SingleNodeClusterIsBitwiseInAllModes) {
  const core::Database& monolith = MonolithDb();
  const Reference& ref = SharedReference();
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", InMemoryCluster(1)).ok());
  for (const Query& q : TestQueries()) {
    for (bool maxscore : {false, true}) {
      for (bool share : {false, true}) {
        SearchOptions sopts;
        sopts.maxscore_bm25 = maxscore;
        SearchResult plan;
        ASSERT_TRUE(monolith.Search(q, RunType::kBm25, sopts, &plan).ok());
        DistSearchOptions dopts;
        dopts.search = sopts;
        dopts.share_theta = share;
        DistResult got;
        ASSERT_TRUE(cluster.Search(q, RunType::kBm25, dopts, &got).ok());
        EXPECT_EQ(got.merged.docids, plan.docids);
        EXPECT_EQ(ScoreBits(got.merged.scores), ScoreBits(plan.scores));
        EXPECT_EQ(got.merged.num_matches, plan.num_matches);
        if (!maxscore) {
          const SearchResult expect = ref.Search(q, RunType::kBm25, sopts);
          EXPECT_EQ(got.merged.docids, expect.docids);
          EXPECT_EQ(ScoreBits(got.merged.scores), ScoreBits(expect.scores));
          EXPECT_EQ(got.merged.num_matches, expect.num_matches);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared-θ pruning proof
// ---------------------------------------------------------------------------

// Sequential scatter makes the θ protocol deterministic: shard i starts
// from the final bound published by shards 0..i-1. Seeded shards demote
// terms earlier and select harder, so across the batch the cluster
// generates strictly fewer candidates (num_matches counts exactly the
// documents that survive into candidate vectors) — while merging to the
// same rankings. This is the counter-level proof that θ sharing buys real
// work reduction, not just plausible speedups.
TEST(SharedThetaTest, SequentialSeedingPrunesStrictlyMoreCandidates) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", InMemoryCluster(8)).ok());
  const std::vector<Query> queries = TestQueries();
  uint64_t cand_indep = 0, cand_shared = 0;
  uint64_t pruned_indep = 0, pruned_shared = 0;
  uint64_t bmx_indep = 0, bmx_shared = 0;
  for (const Query& q : queries) {
    DistSearchOptions dopts;
    dopts.sequential = true;
    dopts.share_theta = false;
    DistResult indep;
    ASSERT_TRUE(cluster.Search(q, RunType::kBm25, dopts, &indep).ok());
    dopts.share_theta = true;
    DistResult shared;
    ASSERT_TRUE(cluster.Search(q, RunType::kBm25, dopts, &shared).ok());
    // Same answer...
    ExpectRankingsEquivalent(shared.merged.docids, shared.merged.scores,
                             indep.merged.docids, indep.merged.scores,
                             1e-4f);
    // ...never more candidates per query (a higher θ floor can only
    // demote terms earlier and cut the candidate select harder)...
    EXPECT_LE(shared.merged.num_matches, indep.merged.num_matches);
    cand_indep += indep.merged.num_matches;
    cand_shared += shared.merged.num_matches;
    pruned_indep += indep.merged.stats.vectors_pruned;
    pruned_shared += shared.merged.stats.vectors_pruned;
    bmx_indep += indep.merged.stats.windows_blockmax_skipped;
    bmx_shared += shared.merged.stats.windows_blockmax_skipped;
  }
  // ...strictly fewer candidates across the batch, and at least as many
  // posting vectors skipped outright. (windows_decoded is deliberately
  // NOT asserted: earlier demotion drops essential-stream read-ahead that
  // probes partially re-decode, so that counter is not monotone in θ —
  // the candidate count is the per-document scoring work and is.)
  EXPECT_LT(cand_shared, cand_indep);
  EXPECT_GE(pruned_shared, pruned_indep);
  // The same θ floor feeds SearchBm25MaxScore's per-window block-max test
  // (DESIGN.md §12): a shard seeded with the global k-th-best rejects weak
  // windows from its very first refill, so across the batch sharing never
  // block-max-skips less. (Per query the counter can wobble — earlier
  // demotion also truncates essential streams — hence batch-level only.)
  EXPECT_GE(bmx_shared, bmx_indep);
}

// ---------------------------------------------------------------------------
// Deadline / straggler / fault battery
// ---------------------------------------------------------------------------

// Expected partial merge: the surviving shards' results merged by hand
// under the engine's rank order. Built from per-node searches so the test
// does not re-implement shard execution.
void ExpectedPartialMerge(const Cluster& cluster, const Query& q, uint32_t k,
                          uint32_t dead_node, std::vector<int32_t>* docids,
                          std::vector<float>* scores) {
  struct Cand {
    int32_t docid;
    float score;
  };
  std::vector<Cand> all;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    if (i == dead_node) continue;
    SearchOptions sopts;
    sopts.k = k;
    sopts.global_stats = &cluster.collection_stats();
    SearchResult r;
    ASSERT_TRUE(cluster.node_db(i).Search(q, RunType::kBm25, sopts, &r).ok());
    for (size_t j = 0; j < r.docids.size(); ++j) {
      all.push_back({cluster.node_base(i) + r.docids[j], r.scores[j]});
    }
  }
  std::sort(all.begin(), all.end(), [](const Cand& a, const Cand& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.docid < b.docid;
  });
  if (all.size() > k) all.resize(k);
  docids->clear();
  scores->clear();
  for (const Cand& c : all) {
    docids->push_back(c.docid);
    scores->push_back(c.score);
  }
}

TEST(FaultBattery, ShardFaultFailsTheQueryUnlessPartialsAllowed) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", InMemoryCluster(4)).ok());
  Query q = TestQueries().front();

  DistSearchOptions dopts;
  dopts.fault_mask = 1u << 2;
  DistResult r;
  // Fail-fast policy: one dead shard kills the query with its error.
  Status s = cluster.Search(q, RunType::kBm25, dopts, &r);
  EXPECT_EQ(s.code(), StatusCode::kIOError);

  // Partial policy: responsive shards merge, flagged partial, and the
  // merge equals the surviving shards' hand-built merge exactly.
  dopts.allow_partial = true;
  ASSERT_TRUE(cluster.Search(q, RunType::kBm25, dopts, &r).ok());
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.shards_ok, 3u);
  EXPECT_EQ(r.shards_failed, 1u);
  EXPECT_EQ(r.shard_status[2].code(), StatusCode::kIOError);
  EXPECT_EQ(r.shard_service_ms[2], 0.0);
  std::vector<int32_t> want_d;
  std::vector<float> want_s;
  ExpectedPartialMerge(cluster, q, dopts.search.k, 2, &want_d, &want_s);
  EXPECT_EQ(r.merged.docids, want_d);
  EXPECT_EQ(r.merged.scores, want_s);
  // No result can come from the dead shard's docid range.
  const int32_t dead_begin = cluster.node_base(2);
  const int32_t dead_end =
      dead_begin + static_cast<int32_t>(cluster.node_num_docs(2));
  for (int32_t d : r.merged.docids) {
    EXPECT_TRUE(d < dead_begin || d >= dead_end) << d;
  }

  // Partial policy cannot save a fully dead cluster.
  dopts.fault_mask = 0xF;
  s = cluster.Search(q, RunType::kBm25, dopts, &r);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(r.shards_ok, 0u);
}

TEST(FaultBattery, DeadlineCutsStragglersAndPartialPolicyDecides) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", InMemoryCluster(4)).ok());
  Query q = TestQueries().front();

  // Node 1 straggles 10x past the deadline. Fail-fast: the query dies
  // with DeadlineExceeded from the straggler.
  DistSearchOptions dopts;
  dopts.straggle_mask = 1u << 1;
  dopts.straggle_ms = 500.0;
  dopts.deadline_seconds = 0.05;
  DistResult r;
  Status s = cluster.Search(q, RunType::kBm25, dopts, &r);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);

  // Partial policy: the three responsive shards answer inside the
  // deadline; the straggler is dropped, not waited out to completion.
  dopts.allow_partial = true;
  ASSERT_TRUE(cluster.Search(q, RunType::kBm25, dopts, &r).ok());
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.shards_ok, 3u);
  EXPECT_EQ(r.shard_status[1].code(), StatusCode::kDeadlineExceeded);
  std::vector<int32_t> want_d;
  std::vector<float> want_s;
  ExpectedPartialMerge(cluster, q, dopts.search.k, 1, &want_d, &want_s);
  EXPECT_EQ(r.merged.docids, want_d);
  EXPECT_EQ(r.merged.scores, want_s);

  // A generous deadline lets the straggler finish: complete answer.
  dopts.deadline_seconds = 30.0;
  dopts.straggle_ms = 20.0;
  dopts.allow_partial = false;
  ASSERT_TRUE(cluster.Search(q, RunType::kBm25, dopts, &r).ok());
  EXPECT_FALSE(r.partial);
  EXPECT_EQ(r.shards_ok, 4u);
  // The straggle charge shows up in the straggler's service time.
  EXPECT_GE(r.shard_service_ms[1], 20.0);
}

TEST(FaultBattery, AlreadyExpiredDeadlineFailsEveryShardPromptly) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", InMemoryCluster(2)).ok());
  Query q = TestQueries().front();
  DistSearchOptions dopts;
  dopts.allow_partial = true;
  DistResult r;
  // A 1 ns budget is expired by the time any shard reaches the engine's
  // first deadline checkpoint: every shard fails, and even the partial
  // policy has nothing to merge.
  dopts.deadline_seconds = 1e-9;
  Status s = cluster.Search(q, RunType::kBm25, dopts, &r);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.shards_ok, 0u);
}

// ---------------------------------------------------------------------------
// Service-time model
// ---------------------------------------------------------------------------

TEST(ServiceModel, StretchFollowsSpeedFactorsAndWarmUpDoesNot) {
  ClusterOptions copts = InMemoryCluster(2);
  copts.service_scale = 2000.0;  // stretch real μs-scale queries to ms
  copts.speed_factors = {1.0, 4.0};
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", copts).ok());
  Query q = TestQueries().front();
  DistSearchOptions dopts;
  DistResult r;
  ASSERT_TRUE(cluster.Search(q, RunType::kBm25, dopts, &r).ok());
  // The slow node's simulated service time scales with its factor, and
  // the scatter-gather latency is bounded below by the slowest shard.
  EXPECT_GT(r.shard_service_ms[1], r.shard_service_ms[0]);
  EXPECT_GE(r.latency_ms, r.shard_service_ms[1] * 0.5);
}

TEST(ServiceModel, NetworkChargeIsAddedToLatencyOnly) {
  ClusterOptions copts = InMemoryCluster(2);
  copts.network_ms = 250.0;
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", copts).ok());
  Query q = TestQueries().front();
  DistResult r;
  WallTimer timer;
  ASSERT_TRUE(cluster.Search(q, RunType::kBm25, DistSearchOptions(), &r).ok());
  // The charge appears in the reported latency but is never slept out.
  EXPECT_GE(r.latency_ms, 250.0);
  EXPECT_LT(timer.ElapsedSeconds(), 0.2);
}

// ---------------------------------------------------------------------------
// On-disk partitions
// ---------------------------------------------------------------------------

TEST(ClusterStorage, PartitionIndexesBuildOnceAndReuseOnReopen) {
  const std::string dir = TempClusterDir("reuse");
  std::filesystem::remove_all(dir);
  ClusterOptions copts = InMemoryCluster(4);
  copts.storage.pool_bytes = 8ull << 20;
  {
    Cluster cluster;
    ASSERT_TRUE(cluster.Open(SharedCorpus(), dir, copts).ok());
    for (uint32_t i = 0; i < 4; ++i) {
      EXPECT_FALSE(cluster.node_db(i).build_stats().reused_files) << i;
    }
  }
  {
    Cluster cluster;
    ASSERT_TRUE(cluster.Open(SharedCorpus(), dir, copts).ok());
    // Same corpus slice fingerprints: every node adopts its files.
    for (uint32_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(cluster.node_db(i).build_stats().reused_files) << i;
    }
    // And the storage-era runs execute through each node's private pool.
    Query q = TestQueries().front();
    DistSearchOptions dopts;
    DistResult r;
    ASSERT_TRUE(cluster.Search(q, RunType::kBm25TCMQ8, dopts, &r).ok());
    EXPECT_FALSE(r.merged.docids.empty());
    EXPECT_EQ(r.shards_ok, 4u);
  }
  std::filesystem::remove_all(dir);
}

// kBm25T/TC recompute scores from tf columns under the cluster-global
// stats, so the distributed rankings must be equivalent to the
// reference's, with shards pruning on their own θ and on the shared
// channel alike. (TCM/TCMQ8 bake partition-local stats into materialized
// columns at build time — a documented substitution, not asserted here.)
// The storage runs run the MaxScore executor, so a shard seeded through
// the channel prunes for them too: sequential seeding scores strictly
// fewer candidates over the batch, as
// SharedThetaTest.SequentialSeedingPrunesStrictlyMoreCandidates shows for
// kBm25.
TEST(ClusterStorage, StorageRunMatchesOracleInBothThetaModes) {
  const std::string cdir = TempClusterDir("cluster");
  std::filesystem::remove_all(cdir);
  ClusterOptions copts = InMemoryCluster(4);
  copts.storage.pool_bytes = 8ull << 20;
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), cdir, copts).ok());
  const Reference& ref = SharedReference();
  const std::vector<Query> queries = TestQueries();
  for (size_t i = 0; i < queries.size(); i += 7) {
    const Query& q = queries[i];
    const SearchResult expect =
        ref.Search(q, RunType::kBm25TC, SearchOptions());
    for (const bool share : {false, true}) {
      DistSearchOptions dopts;
      dopts.share_theta = share;
      DistResult got;
      ASSERT_TRUE(cluster.Search(q, RunType::kBm25TC, dopts, &got).ok());
      ExpectRankingsEquivalent(got.merged.docids, got.merged.scores,
                               expect.docids, expect.scores, 1e-4f);
    }
  }
  uint64_t cand_indep = 0, cand_shared = 0;
  for (const Query& q : queries) {
    DistSearchOptions dopts;
    dopts.sequential = true;
    dopts.share_theta = false;
    DistResult indep;
    ASSERT_TRUE(cluster.Search(q, RunType::kBm25TC, dopts, &indep).ok());
    dopts.share_theta = true;
    DistResult shared;
    ASSERT_TRUE(cluster.Search(q, RunType::kBm25TC, dopts, &shared).ok());
    ExpectRankingsEquivalent(shared.merged.docids, shared.merged.scores,
                             indep.merged.docids, indep.merged.scores,
                             1e-4f);
    EXPECT_LE(shared.merged.num_matches, indep.merged.num_matches);
    cand_indep += indep.merged.num_matches;
    cand_shared += shared.merged.num_matches;
  }
  EXPECT_LT(cand_shared, cand_indep);
  std::filesystem::remove_all(cdir);
}

// ---------------------------------------------------------------------------
// Concurrent streams
// ---------------------------------------------------------------------------

// Seeded soak: four closed-loop driver threads hammer one cluster with
// shared-θ scatter-gather queries while the main thread knows every
// query's reference answer. Zero mismatches and zero errors required. (The θ
// channel is per-query state; concurrent queries must never bleed bounds
// into each other — a bleed would surface here as a pruned-away result.)
TEST(ConcurrentStreams, SharedThetaSoakMatchesOracleUnderConcurrency) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", InMemoryCluster(4)).ok());
  const std::vector<Query> queries = TestQueries();
  std::vector<SearchResult> expected;
  for (const Query& q : queries) {
    expected.push_back(
        SharedReference().Search(q, RunType::kBm25, SearchOptions()));
  }
  constexpr int kDrivers = 4;
  constexpr int kRounds = 3;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kDrivers; ++t) {
    drivers.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries.size() * kRounds) return;
        const size_t qi = i % queries.size();
        DistSearchOptions dopts;
        dopts.share_theta = true;
        DistResult r;
        if (!cluster.Search(queries[qi], RunType::kBm25, dopts, &r).ok()) {
          ++errors;
          continue;
        }
        if (!RankingsEquivalent(r.merged.docids, r.merged.scores,
                                expected[qi].docids, expected[qi].scores,
                                1e-4f)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ConcurrentStreams, RunStreamsDrainsTheBatchAndAggregates) {
  ClusterOptions copts = InMemoryCluster(4);
  copts.service_scale = 100.0;
  copts.speed_factors = {1.0, 1.1, 1.3, 1.6};
  Cluster cluster;
  ASSERT_TRUE(cluster.Open(SharedCorpus(), "", copts).ok());
  std::vector<Query> queries = TestQueries();
  queries.resize(24);
  ASSERT_TRUE(cluster.WarmUp(queries, RunType::kBm25, 20).ok());
  StreamRunStats stats;
  ASSERT_TRUE(cluster
                  .RunStreams(queries, RunType::kBm25, 20, /*streams=*/4,
                              /*share_theta=*/true, &stats)
                  .ok());
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.query_latency_ms.n, queries.size());
  EXPECT_GT(stats.query_latency_ms.Mean(), 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.AmortizedMs(), 0.0);
  // Heterogeneous speed factors order the per-node service means.
  ASSERT_EQ(stats.node_service_ms.size(), 4u);
  EXPECT_GT(stats.MaxNodeMs(), 0.0);
  EXPECT_LE(stats.MinNodeMs(), stats.AvgNodeMs());
  EXPECT_LE(stats.AvgNodeMs(), stats.MaxNodeMs());
  // Cluster-wide ExecStats aggregated across every shard of every query.
  EXPECT_GT(stats.exec.windows_decoded, 0u);
  EXPECT_GT(stats.exec.primitive_calls, 0u);
}

// ---------------------------------------------------------------------------
// One front door: every read path rejects, or answers empty, alike.
// ---------------------------------------------------------------------------

TEST(FrontDoor, EdgeRequestsGetOneAnswerOnEveryReadPath) {
  // Terms 0..5 occur; 6 and 7 are in the vocabulary with no postings.
  Corpus corpus;
  ASSERT_TRUE(Corpus::FromDocuments({{0, 1, 1}, {1, 2}, {0, 2, 3}, {3, 4},
                                     {4, 5, 0}, {5, 1}, {2, 2, 4}, {0, 3, 5}},
                                    8, &corpus)
                  .ok());
  ir::InvertedIndex index;
  ir::BuildStats bstats;
  ASSERT_TRUE(index.BuildFromCorpus(corpus, "", &bstats).ok());
  const ir::SearchEngine engine(&index);
  // Table 1's hand-built baselines take a bare k, no run type: they must
  // answer as the engine's kBm25 run does.
  ir::CustomIrEngine custom;
  ASSERT_TRUE(custom.Load(&index).ok());
  using CustomSearch = Status (ir::CustomIrEngine::*)(
      const Query&, uint32_t, ir::CustomSearchResult*) const;
  const std::vector<std::pair<const char*, CustomSearch>> customs = {
      {"DAAT", &ir::CustomIrEngine::SearchDaat},
      {"TAAT", &ir::CustomIrEngine::SearchTaat},
      {"MaxScore", &ir::CustomIrEngine::SearchMaxScore},
  };

  // In memory, with a tombstoned segment doc and a delta doc in view.
  core::Database db;
  ASSERT_TRUE(db.OpenWithCorpus(corpus, "", storage::StorageOptions()).ok());
  ASSERT_TRUE(db.AddDocument({1, 2, 2}, nullptr).ok());
  ASSERT_TRUE(db.DeleteDocument(1).ok());
  const auto snap = db.Acquire();
  ASSERT_EQ(snap->segments.size(), 1u);
  ASSERT_NE(snap->segments[0].tombstones, nullptr);
  ASSERT_EQ(snap->deltas.size(), 1u);

  Cluster cluster;
  ASSERT_TRUE(cluster.Open(corpus, "", InMemoryCluster(2)).ok());

  struct Edge {
    const char* name;
    std::vector<uint32_t> terms;
    RunType run;
    uint32_t k;
    StatusCode code;
  };
  const std::vector<Edge> edges = {
      {"k = 0", {1}, RunType::kBm25, 0, StatusCode::kInvalidArgument},
      {"no terms", {}, RunType::kBm25, 20, StatusCode::kInvalidArgument},
      {"out of vocabulary", {1, 99}, RunType::kBoolOr, 20,
       StatusCode::kInvalidArgument},
      {"storage run in memory", {1}, RunType::kBm25TC, 20,
       StatusCode::kFailedPrecondition},
      {"all unknown", {6, 7}, RunType::kBm25, 20, StatusCode::kOk},
      {"BoolAND with an unknown", {1, 6}, RunType::kBoolAnd, 20,
       StatusCode::kOk},
  };
  for (const Edge& e : edges) {
    Query q;
    q.terms = e.terms;
    SearchOptions opts;
    opts.k = e.k;
    DistSearchOptions dopts;
    dopts.search = opts;
    SearchResult r_engine, r_snap, r_db;
    DistResult r_dist;
    const Status want = engine.Search(q, e.run, opts, &r_engine);
    EXPECT_EQ(want.code(), e.code) << e.name << ": " << want.ToString();
    const std::vector<std::pair<Status, const SearchResult*>> paths = {
        {want, &r_engine},
        {ir::SearchSnapshot(*snap, q, e.run, opts, &r_snap), &r_snap},
        {db.Search(q, e.run, opts, &r_db), &r_db},
        {cluster.Search(q, e.run, dopts, &r_dist), &r_dist.merged},
    };
    for (size_t p = 0; p < paths.size(); ++p) {
      const Status& got = paths[p].first;
      EXPECT_EQ(got.code(), want.code()) << e.name << " path " << p;
      EXPECT_EQ(got.message(), want.message()) << e.name << " path " << p;
      if (got.ok()) {
        EXPECT_TRUE(paths[p].second->docids.empty()) << e.name << " " << p;
        EXPECT_TRUE(paths[p].second->scores.empty()) << e.name << " " << p;
        EXPECT_EQ(paths[p].second->num_matches, 0u) << e.name << " " << p;
      }
    }
    SearchResult r_bm25;
    const Status want_bm25 = engine.Search(q, RunType::kBm25, opts, &r_bm25);
    for (const auto& [name, search] : customs) {
      ir::CustomSearchResult r_custom;
      const Status got = (custom.*search)(q, e.k, &r_custom);
      EXPECT_EQ(got.code(), want_bm25.code()) << e.name << " " << name;
      EXPECT_EQ(got.message(), want_bm25.message()) << e.name << " " << name;
      if (got.ok() && r_bm25.docids.empty()) {
        EXPECT_TRUE(r_custom.docids.empty()) << e.name << " " << name;
        EXPECT_EQ(r_custom.num_matches, 0u) << e.name << " " << name;
      }
    }
  }
}

}  // namespace
}  // namespace x100ir
