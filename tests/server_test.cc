// The server/ + robustness battery (DESIGN.md §9): concurrent Search bit-
// identity against serial oracles, the striped BufferManager under
// contention, cross-thread pin/EvictAll contracts, the fault-injection
// battery (every injected fault either retries to success or surfaces a
// classified non-OK Status; OK results stay bit-identical to the fault-free
// oracle; a torn page never poisons the pool), per-query deadlines
// surfacing DeadlineExceeded mid-flight with partial stats, bounded-
// admission shedding, the degradation ladder escalating to Refusing and
// recovering via probes, and a scaled-down version of the bench's
// fault-soak invariant (every query ends OK / DeadlineExceeded /
// ResourceExhausted / Unavailable).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/database.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"
#include "server/query_service.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injection.h"
#include "storage/file.h"

#include "test_util.h"

namespace x100ir::server {
namespace {

std::string TempPath(const char* name) {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string tag =
      info != nullptr
          ? std::string(info->test_suite_name()) + "_" + info->name()
          : std::string("global");
  return std::string(::testing::TempDir()) + "/x100ir_server_" + tag + "_" +
         name;
}

std::string FreshDir(const char* name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

ir::CorpusOptions SmallCorpus() {
  ir::CorpusOptions opts;
  opts.num_docs = 1200;
  opts.vocab_size = 1600;
  opts.doclen_mu = 3.2;
  opts.doclen_sigma = 0.5;
  opts.num_topics = 8;
  opts.terms_per_topic = 5;
  opts.relevant_docs_per_topic = 40;
  opts.topical_mass = 0.35;
  opts.topic_rank_min = 20;
  opts.topic_rank_max = 300;
  opts.seed = 2007;
  return opts;
}

// One request per (query, run) pair over a mixed set of run types. The
// storage runs are only legal against a disk-backed database; in-memory
// tests restrict to the resident plans.
std::vector<QueryRequest> MixedRequests(const core::Database& db,
                                        uint32_t num_queries,
                                        bool include_storage_runs = true) {
  ir::QueryGenOptions qopts;
  qopts.num_efficiency_queries = num_queries;
  ir::QueryGenerator gen(db.corpus(), qopts);
  std::vector<ir::RunType> runs = {ir::RunType::kBoolAnd,
                                   ir::RunType::kBoolOr, ir::RunType::kBm25};
  if (include_storage_runs) {
    runs.push_back(ir::RunType::kBm25TC);
    runs.push_back(ir::RunType::kBm25TCMQ8);
  }
  std::vector<QueryRequest> reqs;
  uint32_t i = 0;
  for (const auto& q : gen.EfficiencyQueries()) {
    QueryRequest r;
    r.query = q;
    r.run = runs[i++ % runs.size()];
    reqs.push_back(r);
  }
  return reqs;
}

// ---------------------------------------------------------------------------
// Tentpole: concurrent searches are bit-identical to their serial runs.
// (Also the common/rng.h satellite's regression test: nothing on the query
// path draws from shared mutable state, so scheduling cannot change a
// result.)
// ---------------------------------------------------------------------------

TEST(ServerTest, ConcurrentSearchesBitIdenticalToSerial) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  dopts.storage.shards = 4;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  const auto reqs = MixedRequests(db, 40);

  // Serial oracle, fresh cold pool.
  ASSERT_TRUE(db.index()->EvictAll().ok());
  std::vector<ir::SearchResult> oracle(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(
        db.Search(reqs[i].query, reqs[i].run, reqs[i].opts, &oracle[i])
            .ok());
  }

  // Concurrent run through the service (cold pool again). 4 workers on any
  // host — the point is interleaving, not speedup.
  ASSERT_TRUE(db.index()->EvictAll().ok());
  QueryServiceOptions sopts;
  sopts.num_threads = 4;
  sopts.max_pending = static_cast<uint32_t>(reqs.size());
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());
  std::vector<QueryResponse> got(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(service
                    .Submit(reqs[i],
                            [&got, i](QueryResponse r) {
                              got[i] = std::move(r);
                            })
                    .ok());
  }
  service.Drain();
  service.Stop();

  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(got[i].status.ok()) << got[i].status.ToString();
    EXPECT_EQ(got[i].result.docids, oracle[i].docids) << "request " << i;
    EXPECT_EQ(got[i].result.scores, oracle[i].scores) << "request " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ok, reqs.size());
  EXPECT_EQ(stats.admitted, reqs.size());
  EXPECT_EQ(stats.shed_queue_full, 0u);
}

// ---------------------------------------------------------------------------
// Striped BufferManager under contention.
// ---------------------------------------------------------------------------

TEST(StripedPool, ConcurrentPinsKeepExactAggregateCounters) {
  const uint32_t kPage = 4096;
  std::vector<uint8_t> bytes(64 * kPage);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131 + 7) & 0xFF);
  }
  const std::string path = TempPath("striped");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), bytes.size(), 1, f), 1u);
  std::fclose(f);

  storage::File file;
  ASSERT_TRUE(storage::File::OpenReadOnly(path, &file).ok());
  storage::SimulatedDisk disk;
  // 4x the file: the budget splits per shard, and page->shard hashing is
  // not perfectly balanced, so give every shard room for any plausible
  // share of the 64 pages.
  storage::BufferManager bm(256ull * kPage, &disk, kPage, /*shards=*/4);
  ASSERT_EQ(bm.shards(), 4u);
  ASSERT_TRUE(bm.RegisterFile(1, &file).ok());

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 2000;
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> byte_mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kItersPerThread; ++i) {
        const uint64_t page = rng.NextBounded(64);
        const uint8_t* data = nullptr;
        uint32_t len = 0;
        if (!bm.Pin(1, page, &data, &len).ok()) {
          errors.fetch_add(1);
          continue;
        }
        // Validate the frame content while pinned — a torn or recycled
        // frame would show up as a pattern mismatch.
        const size_t off = page * kPage + (i % kPage);
        if (len != kPage ||
            data[i % kPage] != static_cast<uint8_t>((off * 131 + 7) & 0xFF)) {
          byte_mismatches.fetch_add(1);
        }
        bm.Unpin(1, page);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(byte_mismatches.load(), 0u);
  const storage::BufferStats stats = bm.stats();
  // Every pin was either a hit or a miss; every shard fits its share of
  // the file, so each page misses at most once and nothing was evicted.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_LE(stats.misses, 64u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(bm.pinned_pages(), 0u);
  EXPECT_TRUE(bm.EvictAll().ok());
  EXPECT_EQ(bm.resident_pages(), 0u);
}

TEST(StripedPool, EvictAllRefusesWhilePinnedFromAnotherThread) {
  const uint32_t kPage = 4096;
  std::vector<uint8_t> bytes(8 * kPage, 0x5A);
  const std::string path = TempPath("pins");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), bytes.size(), 1, f), 1u);
  std::fclose(f);
  storage::File file;
  ASSERT_TRUE(storage::File::OpenReadOnly(path, &file).ok());
  storage::SimulatedDisk disk;
  storage::BufferManager bm(8ull * kPage, &disk, kPage, /*shards=*/2);
  ASSERT_TRUE(bm.RegisterFile(1, &file).ok());

  // A second thread pins a page and holds it until released.
  std::atomic<bool> pinned{false}, release{false};
  std::thread holder([&] {
    const uint8_t* data = nullptr;
    uint32_t len = 0;
    ASSERT_TRUE(bm.Pin(1, 3, &data, &len).ok());
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
    bm.Unpin(1, 3);
  });
  while (!pinned.load()) std::this_thread::yield();

  // The documented cross-thread contract: FailedPrecondition, not a crash,
  // not a torn pool.
  Status s = bm.EvictAll();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(bm.pinned_pages(), 1u);

  release.store(true);
  holder.join();
  EXPECT_TRUE(bm.EvictAll().ok());
  EXPECT_EQ(bm.resident_pages(), 0u);
}

// ---------------------------------------------------------------------------
// Fault-injection battery.
// ---------------------------------------------------------------------------

// Oracle + faulted replay: with mixed transient/torn faults armed, every
// query either succeeds bit-identically to its fault-free result or fails
// with a classified Status — and after disarming, everything succeeds
// again (no poisoned page survived in the pool).
TEST(FaultInjection, EveryFaultRetriesToSuccessOrFailsClassified) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  // Small pool: the working set does not fit, so pages keep being fetched
  // and the fault plan keeps getting consulted.
  dopts.storage.pool_bytes = 24 * 4096;
  dopts.storage.retry.budget = 3;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  ir::QueryGenOptions qopts;
  qopts.num_efficiency_queries = 40;
  ir::QueryGenerator gen(db.corpus(), qopts);
  const auto queries = gen.EfficiencyQueries();
  const ir::RunType runs[] = {ir::RunType::kBm25T, ir::RunType::kBm25TC,
                              ir::RunType::kBm25TCM,
                              ir::RunType::kBm25TCMQ8};

  ir::SearchOptions sopts;
  std::vector<ir::SearchResult> oracle;
  for (size_t i = 0; i < queries.size(); ++i) {
    ir::SearchResult r;
    ASSERT_TRUE(
        db.Search(queries[i], runs[i % 4], sopts, &r).ok());
    oracle.push_back(std::move(r));
  }

  storage::FaultPlanOptions fopts;
  fopts.seed = 77;
  fopts.transient_rate = 0.06;
  fopts.torn_rate = 0.01;
  fopts.latency_spike_rate = 0.02;
  storage::FaultPlan plan(fopts);
  db.index()->buffer_manager()->set_fault_plan(&plan);

  uint64_t ok = 0, transient_failed = 0, torn_failed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    // Cold pool per query: every page fetch consults the plan, so the
    // whole battery draws thousands of faults instead of warming up past
    // the injector.
    ASSERT_TRUE(db.index()->EvictAll().ok());
    ir::SearchResult r;
    Status s = db.Search(queries[i], runs[i % 4], sopts, &r);
    if (s.ok()) {
      ++ok;
      // OK under faults == bit-identical to the fault-free oracle.
      EXPECT_EQ(r.docids, oracle[i].docids) << "query " << i;
      EXPECT_EQ(r.scores, oracle[i].scores) << "query " << i;
    } else if (IsTransient(s)) {
      ++transient_failed;  // page-level retries exhausted: clean Unavailable
    } else {
      EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
      ++torn_failed;
    }
  }
  // Every query landed in exactly one classified bucket, the plan actually
  // fired, and at least some queries rode out their faults.
  EXPECT_EQ(ok + transient_failed + torn_failed, queries.size());
  EXPECT_GT(plan.transient_injected(), 0u);
  EXPECT_GT(plan.torn_injected(), 0u);
  EXPECT_GT(plan.spikes_injected(), 0u);
  EXPECT_GT(ok, 0u);
  const storage::BufferStats faulted = db.buffer_stats();
  EXPECT_EQ(faulted.faults_transient, plan.transient_injected());
  EXPECT_EQ(faulted.faults_torn, plan.torn_injected());

  // Disarm: every query succeeds again and matches the oracle — no torn or
  // half-written frame was left behind in the pool. (No eviction first: if
  // a poisoned frame had entered the pool, this pass would serve it.)
  db.index()->buffer_manager()->set_fault_plan(nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    ir::SearchResult r;
    ASSERT_TRUE(db.Search(queries[i], runs[i % 4], sopts, &r).ok());
    EXPECT_EQ(r.docids, oracle[i].docids) << "query " << i;
    EXPECT_EQ(r.scores, oracle[i].scores) << "query " << i;
  }
}

// Pure-transient plan + generous retry budget: the classified retry loop
// converges (fresh draw per attempt) and queries keep succeeding.
TEST(FaultInjection, TransientFaultsAreAbsorbedByRetries) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  dopts.storage.pool_bytes = 24 * 4096;
  dopts.storage.retry.budget = 6;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  storage::FaultPlanOptions fopts;
  fopts.seed = 5;
  fopts.transient_rate = 0.05;
  storage::FaultPlan plan(fopts);
  db.index()->buffer_manager()->set_fault_plan(&plan);

  const double io_before = db.disk()->io_seconds();
  ir::QueryGenOptions qopts;
  qopts.num_efficiency_queries = 30;
  ir::QueryGenerator gen(db.corpus(), qopts);
  ir::SearchOptions sopts;
  for (const auto& q : gen.EfficiencyQueries()) {
    ASSERT_TRUE(db.index()->EvictAll().ok());  // cold: keep the plan firing
    ir::SearchResult r;
    Status s = db.Search(q, ir::RunType::kBm25TC, sopts, &r);
    // With a 5% rate and 6 retries the per-fetch failure probability is
    // ~1.5e-8; any non-OK here means the retry loop is broken.
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_GT(plan.transient_injected(), 0u);
  // Backoff was charged to the simulated disk, not slept.
  EXPECT_GT(db.disk()->io_seconds(), io_before);
}

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

TEST(Deadlines, ExpiredDeadlineSurfacesBeforeAndMidFlight) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  ir::QueryGenOptions qopts;
  qopts.num_efficiency_queries = 4;
  ir::QueryGenerator gen(db.corpus(), qopts);
  const auto queries = gen.EfficiencyQueries();

  // Already-expired deadline: every run type reports DeadlineExceeded, and
  // no partial result leaks out as if it were complete.
  Deadline expired(0.0);
  ir::SearchOptions sopts;
  sopts.deadline = &expired;
  for (ir::RunType run :
       {ir::RunType::kBoolAnd, ir::RunType::kBm25, ir::RunType::kBm25TC,
        ir::RunType::kBm25TCMQ8}) {
    ir::SearchResult r;
    Status s = db.Search(queries[0], run, sopts, &r);
    EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded)
        << ir::RunTypeName(run) << ": " << s.ToString();
  }

  // Cancellation is the other half of the same checkpoints: a cancelled
  // query dies Unavailable at its next batch boundary.
  Deadline cancelled;
  cancelled.Cancel();
  sopts.deadline = &cancelled;
  ir::SearchResult r;
  Status s = db.Search(queries[0], ir::RunType::kBm25, sopts, &r);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();

  // No deadline: same query succeeds.
  sopts.deadline = nullptr;
  ASSERT_TRUE(db.Search(queries[0], ir::RunType::kBm25, sopts, &r).ok());
}

// ---------------------------------------------------------------------------
// Admission control and the degradation ladder.
// ---------------------------------------------------------------------------

TEST(ServerTest, OverloadShedsWithResourceExhausted) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  core::Database db;  // in-memory is enough for admission mechanics
  ASSERT_TRUE(db.Open(dopts).ok());
  const auto reqs = MixedRequests(db, 64, /*include_storage_runs=*/false);

  QueryServiceOptions sopts;
  sopts.num_threads = 1;
  sopts.max_pending = 2;
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());

  std::atomic<uint64_t> callbacks{0};
  // Plug the single worker: the first query's completion callback parks
  // until every later submission has been decided, so the pending count —
  // and therefore exactly which submissions shed — is deterministic
  // rather than a race between the submit loop and query execution.
  std::atomic<bool> release{false};
  ASSERT_TRUE(service
                  .Submit(reqs[0],
                          [&](QueryResponse) {
                            callbacks.fetch_add(1);
                            while (!release.load()) {
                              std::this_thread::yield();
                            }
                          })
                  .ok());
  uint64_t shed = 0;
  for (size_t i = 1; i < reqs.size(); ++i) {
    Status s = service.Submit(
        reqs[i], [&](QueryResponse) { callbacks.fetch_add(1); });
    if (!s.ok()) {
      // Shedding must be the explicit, classified kind.
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
      ++shed;
    }
  }
  release.store(true);
  service.Drain();
  const ServiceStats stats = service.stats();
  service.Stop();
  // The plugged query holds one of the 2 slots for the whole burst: one
  // more admission fits, everything else is shed.
  EXPECT_EQ(shed, reqs.size() - 2);
  EXPECT_EQ(stats.shed_queue_full, shed);
  EXPECT_EQ(stats.admitted + stats.shed_queue_full, reqs.size());
  EXPECT_EQ(callbacks.load(), stats.admitted);
  EXPECT_EQ(stats.ok, stats.admitted);
}

TEST(ServerTest, DegradationLadderEscalatesThenRecovers) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  dopts.dir = FreshDir("db");
  dopts.storage.page_bytes = 4096;
  dopts.storage.pool_bytes = 24 * 4096;  // keep the disk (and faults) hot
  dopts.storage.retry.budget = 0;        // page faults fail immediately
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  const auto queries = MixedRequests(db, 16);

  QueryServiceOptions sopts;
  sopts.num_threads = 1;  // serial: the ladder walk is deterministic-ish
  sopts.max_pending = 4;
  sopts.retry_budget = 0;
  sopts.fault_window = 16;
  sopts.degrade_threshold = 0.25;
  sopts.refuse_threshold = 0.60;
  sopts.probe_interval = 2;
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());

  // Stage 1: a disk that fails nearly every fetch. Storage queries fail
  // Unavailable, the window fills with faults, the ladder climbs.
  storage::FaultPlanOptions fopts;
  fopts.seed = 11;
  fopts.transient_rate = 0.95;
  storage::FaultPlan plan(fopts);
  db.index()->buffer_manager()->set_fault_plan(&plan);

  QueryRequest storage_req;
  storage_req.query = queries[0].query;
  storage_req.run = ir::RunType::kBm25TC;
  int spins = 0;
  while (service.mode() != ServiceMode::kRefusing && spins < 500) {
    (void)service.Execute(storage_req);
    ++spins;
  }
  ASSERT_EQ(service.mode(), ServiceMode::kRefusing)
      << "ladder never reached Refusing after " << spins << " queries";

  // While refusing, non-probe submissions are turned away Unavailable at
  // admission (never enqueued).
  uint64_t refused = 0;
  for (int i = 0; i < 8; ++i) {
    QueryResponse resp = service.Execute(storage_req);
    if (!resp.status.ok() &&
        resp.status.code() == StatusCode::kUnavailable && resp.retries == 0) {
      ++refused;
    }
  }
  EXPECT_GT(refused, 0u);

  // Stage 2: the disk heals. Probes (and then everything) succeed, the
  // window dilutes, and the ladder walks back to Normal. Degraded probes
  // must have executed against the cheap materialized column.
  db.index()->buffer_manager()->set_fault_plan(nullptr);
  bool saw_degraded_remap = false;
  spins = 0;
  while (service.mode() != ServiceMode::kNormal && spins < 2000) {
    QueryResponse resp = service.Execute(storage_req);
    if (resp.status.ok() && resp.degraded) {
      EXPECT_EQ(resp.executed_run, ir::RunType::kBm25TCMQ8);
      saw_degraded_remap = true;
    }
    ++spins;
  }
  EXPECT_EQ(service.mode(), ServiceMode::kNormal)
      << "ladder never recovered after " << spins << " healthy queries";
  EXPECT_TRUE(saw_degraded_remap);

  const ServiceStats stats = service.stats();
  service.Stop();
  EXPECT_GT(stats.probes_admitted, 0u);
  EXPECT_GE(stats.mode_transitions, 2u);  // up to Refusing and back down
  EXPECT_GT(stats.refused_unavailable, 0u);
  EXPECT_GT(stats.degraded_queries, 0u);
}

// ---------------------------------------------------------------------------
// Scaled-down fault soak: the bench_concurrency invariant, in-tree. Every
// query ends in one of the four contract outcomes; OK results are
// bit-identical to the fault-free serial oracle.
// ---------------------------------------------------------------------------

TEST(ServerTest, FaultSoakEveryOutcomeClassifiedAndOkBitIdentical) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  dopts.dir = FreshDir("db");
  // 1 KB pages and a 32-page pool: well under the set of pages this
  // workload touches, so the pool keeps cycling and the plan keeps firing
  // (~45 misses per pass over the query set, measured). Queries pin one
  // page at a time, so 4 workers can never exhaust an 8-page shard budget.
  dopts.storage.page_bytes = 1024;
  dopts.storage.pool_bytes = 32 * 1024;
  dopts.storage.shards = 4;
  dopts.storage.retry.budget = 3;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  ir::QueryGenOptions qopts;
  qopts.num_efficiency_queries = 25;
  ir::QueryGenerator gen(db.corpus(), qopts);
  const auto queries = gen.EfficiencyQueries();

  // Fault-free serial oracle (kBm25TCMQ8: the degraded remap is the
  // identity for it, so OK results stay comparable whatever the ladder
  // does mid-soak).
  ir::SearchOptions plain;
  std::vector<ir::SearchResult> oracle(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(
        db.Search(queries[i], ir::RunType::kBm25TCMQ8, plain, &oracle[i])
            .ok());
  }

  storage::FaultPlanOptions fopts;
  fopts.seed = 123;
  fopts.transient_rate = 0.05;
  fopts.latency_spike_rate = 0.01;
  storage::FaultPlan plan(fopts);
  db.index()->buffer_manager()->set_fault_plan(&plan);

  QueryServiceOptions sopts;
  sopts.num_threads = 4;
  sopts.max_pending = 32;
  sopts.retry_budget = 1;
  sopts.retry_backoff_seconds = 1e-4;
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());

  // Submit with backpressure: a shed is counted and the submission
  // retried, so all kSoak queries eventually execute — the soak exercises
  // the full path, while shedding itself still gets covered.
  constexpr int kSoak = 1000;
  std::atomic<uint64_t> ok{0}, deadline{0}, unavailable{0}, bad_status{0},
      mismatches{0};
  uint64_t shed_attempts = 0;
  for (int i = 0; i < kSoak; ++i) {
    const size_t qi = static_cast<size_t>(i) % queries.size();
    QueryRequest req;
    req.query = queries[qi];
    req.run = ir::RunType::kBm25TCMQ8;
    for (;;) {
      Status admitted = service.Submit(req, [&, qi](QueryResponse resp) {
        switch (resp.status.code()) {
          case StatusCode::kOk:
            ok.fetch_add(1);
            if (resp.result.docids != oracle[qi].docids ||
                resp.result.scores != oracle[qi].scores) {
              mismatches.fetch_add(1);
            }
            break;
          case StatusCode::kDeadlineExceeded:
            deadline.fetch_add(1);
            break;
          case StatusCode::kUnavailable:
            unavailable.fetch_add(1);
            break;
          default:
            bad_status.fetch_add(1);
            break;
        }
      });
      if (admitted.ok()) break;
      if (admitted.code() == StatusCode::kResourceExhausted) {
        ++shed_attempts;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (admitted.code() == StatusCode::kUnavailable) {
        unavailable.fetch_add(1);  // ladder refusal counts as an outcome
        break;
      }
      bad_status.fetch_add(1);
      break;
    }
  }
  service.Drain();
  const ServiceStats stats = service.stats();
  service.Stop();

  // The contract: zero crashes (we're here), zero unclassified outcomes,
  // zero OK results that differ from the fault-free oracle.
  EXPECT_EQ(bad_status.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ok.load() + deadline.load() + unavailable.load(),
            static_cast<uint64_t>(kSoak));
  EXPECT_GT(ok.load(), static_cast<uint64_t>(kSoak) / 2);
  EXPECT_GT(plan.transient_injected(), 0u);
  EXPECT_EQ(stats.shed_queue_full, shed_attempts);
  EXPECT_EQ(stats.failed, 0u);  // no torn faults configured, none reported
}

// Stop() with work still queued: every admitted query still gets exactly
// one callback, and none of them hangs the shutdown.
TEST(ServerTest, StopCancelsQueuedWorkCleanly) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  const auto reqs = MixedRequests(db, 32, /*include_storage_runs=*/false);

  QueryServiceOptions sopts;
  sopts.num_threads = 1;
  sopts.max_pending = 64;
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());
  std::atomic<uint64_t> callbacks{0}, weird{0};
  uint64_t admitted = 0;
  for (const auto& req : reqs) {
    if (service
            .Submit(req,
                    [&](QueryResponse resp) {
                      // Completed or cancelled — nothing else.
                      if (!resp.status.ok() &&
                          resp.status.code() != StatusCode::kUnavailable) {
                        weird.fetch_add(1);
                      }
                      callbacks.fetch_add(1);
                    })
            .ok()) {
      ++admitted;
    }
  }
  service.Stop();  // cancels in-flight deadlines, drains, joins
  EXPECT_EQ(callbacks.load(), admitted);
  EXPECT_EQ(weird.load(), 0u);
  EXPECT_FALSE(service.running());
  // Submit after Stop is a clean refusal, not UB.
  Status s = service.Submit(reqs[0], [](QueryResponse) {});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

// WAL durability counters (DESIGN.md §13) flow from the database through
// ServiceStats, so an operator watching the service sees the write path's
// append/fsync amortization without reaching into the storage layer.
TEST(ServerTest, StatsSurfaceWalCounters) {
  core::DatabaseOptions dopts;
  dopts.dir = FreshDir("wal_stats");
  dopts.corpus = SmallCorpus();
  dopts.storage.wal.enabled = true;
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());
  ASSERT_TRUE(db.AddDocument({1, 2, 2, 7}, nullptr).ok());
  ASSERT_TRUE(db.AddDocument({3, 5}, nullptr).ok());

  QueryService service;
  ASSERT_TRUE(service.Start(&db, QueryServiceOptions{}).ok());
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.wal_appends, 2u);     // the two acknowledged adds
  EXPECT_GE(stats.wal_fsyncs, 1u);      // at least one covering fsync
  EXPECT_GE(stats.wal_group_commit_batch_max, 1u);
  service.Stop();

  // An in-memory database has no WAL; the mirror reads zero, not garbage.
  core::Database mem_db;
  core::DatabaseOptions mem_opts;
  mem_opts.corpus = SmallCorpus();
  ASSERT_TRUE(mem_db.Open(mem_opts).ok());
  QueryService mem_service;
  ASSERT_TRUE(mem_service.Start(&mem_db, QueryServiceOptions{}).ok());
  EXPECT_EQ(mem_service.stats().wal_appends, 0u);
  EXPECT_EQ(mem_service.stats().wal_fsyncs, 0u);
  mem_service.Stop();
}

// ---------------------------------------------------------------------------
// Result cache (DESIGN.md §10): epoch-tagged, LRU-bounded, never stale.
// ---------------------------------------------------------------------------

TEST(ResultCache, HitServesIdenticalResultWithoutAdmission) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  sopts.result_cache_entries = 8;
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());

  QueryRequest req;
  req.query = MixedRequests(db, 1, false)[0].query;
  req.run = ir::RunType::kBm25;
  const QueryResponse first = service.Execute(req);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  const QueryResponse second = service.Execute(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.result.docids, first.result.docids);
  EXPECT_EQ(second.result.scores, first.result.scores);
  EXPECT_EQ(second.result.epoch, first.result.epoch);
  EXPECT_EQ(second.executed_run, req.run);

  // The key normalizes the term set: order and duplicates don't miss.
  QueryRequest permuted = req;
  std::reverse(permuted.query.terms.begin(), permuted.query.terms.end());
  permuted.query.terms.push_back(req.query.terms[0]);
  const QueryResponse third = service.Execute(permuted);
  ASSERT_TRUE(third.status.ok());
  EXPECT_EQ(third.result.docids, first.result.docids);

  // A different k is a different key — it must miss (the cache_misses
  // count below is the proof), never be served from the k=20 slot.
  QueryRequest other_k = req;
  other_k.opts.k = req.opts.k + 5;
  const QueryResponse fourth = service.Execute(other_k);
  ASSERT_TRUE(fourth.status.ok());

  service.Drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
  // Hits are served at submission: only the misses were admitted, and the
  // accounting invariant holds.
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.submitted, stats.cache_hits + stats.admitted +
                                 stats.shed_queue_full +
                                 stats.refused_unavailable);
  service.Stop();
}

// MaxScore demotes terms at vector boundaries, which changes the float
// addition order of a score, so a request at another vector size is
// another key: it must miss and get its own answer, bit for bit, never the
// default-size entry.
TEST(ResultCache, VectorSizeIsPartOfTheKey) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  // Witness: the first query whose BM25 answer at vector size 1 differs
  // in any bit from its answer at the default size.
  QueryRequest req;
  req.run = ir::RunType::kBm25;
  QueryRequest small = req;
  small.opts.vector_size = 1;
  ir::SearchResult want;
  bool found = false;
  for (const QueryRequest& r : MixedRequests(db, 400, false)) {
    ir::SearchResult at_default;
    ASSERT_TRUE(db.Search(r.query, req.run, req.opts, &at_default).ok());
    ASSERT_TRUE(db.Search(r.query, req.run, small.opts, &want).ok());
    if (at_default.docids != want.docids ||
        ScoreBits(at_default.scores) != ScoreBits(want.scores)) {
      req.query = small.query = r.query;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no query's MaxScore bits depend on vector size";

  QueryServiceOptions sopts;
  sopts.num_threads = 1;
  sopts.result_cache_entries = 1024;
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());
  ASSERT_TRUE(service.Execute(req).status.ok());
  const QueryResponse got = service.Execute(small);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.result.docids, want.docids);
  EXPECT_EQ(ScoreBits(got.result.scores), ScoreBits(want.scores));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);
  service.Stop();
}

TEST(ResultCache, LruEvictsAtCapacity) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  QueryServiceOptions sopts;
  sopts.num_threads = 1;
  sopts.result_cache_entries = 2;
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());

  const auto reqs = MixedRequests(db, 3, /*include_storage_runs=*/false);
  for (const auto& r : reqs) {
    ASSERT_TRUE(service.Execute(r).status.ok());
  }
  // 3 distinct entries through a 2-slot cache: the coldest was evicted,
  // so replaying the batch in order misses every time (classic LRU churn).
  for (const auto& r : reqs) {
    ASSERT_TRUE(service.Execute(r).status.ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 6u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_GE(stats.cache_evictions, 4u);
  service.Stop();
}

TEST(ResultCache, LiveUpdatesInvalidateWholeCache) {
  core::DatabaseOptions dopts;
  dopts.corpus = SmallCorpus();
  core::Database db;
  ASSERT_TRUE(db.Open(dopts).ok());

  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  sopts.result_cache_entries = 8;
  QueryService service;
  ASSERT_TRUE(service.Start(&db, sopts).ok());

  // BoolAND with an uncapped k: the added doc contains every query term,
  // so its presence/absence in the result set is deterministic.
  QueryRequest req;
  req.query = MixedRequests(db, 1, false)[0].query;
  req.run = ir::RunType::kBoolAnd;
  req.opts.k = 2000;

  // Each mutation class bumps the epoch; the next lookup must drop the
  // whole cache rather than serve a pre-mutation answer.
  uint64_t expect_invalidations = 0;
  ASSERT_TRUE(service.Execute(req).status.ok());  // seed (miss)

  int32_t added = -1;
  ASSERT_TRUE(db.AddDocument(req.query.terms, &added).ok());
  QueryResponse resp = service.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  ++expect_invalidations;
  // The fresh result reflects the add (the new doc contains every query
  // term, so it matches) — proof the hit path never outlived the epoch.
  EXPECT_NE(std::find(resp.result.docids.begin(), resp.result.docids.end(),
                      added),
            resp.result.docids.end());

  ASSERT_TRUE(db.DeleteDocument(added).ok());
  resp = service.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  ++expect_invalidations;
  EXPECT_EQ(std::find(resp.result.docids.begin(), resp.result.docids.end(),
                      added),
            resp.result.docids.end());

  ASSERT_TRUE(db.Merge().ok());
  resp = service.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  ++expect_invalidations;

  // Quiescent again: the re-inserted entry serves.
  resp = service.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.result.epoch, db.epoch());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_invalidations, expect_invalidations);
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.cache_hits, 1u);
  service.Stop();
}

}  // namespace
}  // namespace x100ir::server
