// Live-update interference bench (DESIGN.md §10): what does the segmented
// index cost the read path while it is being written to?
//
//   1. Quiescent baseline — ranked-query p50/p99 against the freshly
//      opened database (one identity-map segment, no delta, no deletes).
//   2. Ingest throughput — AddDocument docs/sec into the delta write
//      buffer, each add publishing a new snapshot.
//   3. Merge interference — the gated phase: query latency measured while
//      a background merge compacts the delta into a new compressed
//      segment. Queries run against the sealed delta + old segments the
//      whole time (snapshot pinning; no read ever blocks on the merge).
//
//   4. WAL durability cost (DESIGN.md §13) — ingest docs/sec with the WAL
//      off (the volatile pre-§13 tier), fsync-per-write, and group commit,
//      concurrent writers in every mode. Group commit's claim is that one
//      fsync amortizes over a batch of acknowledged writes, so its
//      throughput must sit far above fsync-per-write whenever fsync has a
//      real cost.
//
// Gates: during-merge p50 within 2x of the quiescent p50, and group-commit
// ingest >= 5x fsync-per-write. Both comparisons are host-relative, and
// both self-disable where the host can't judge them: the interference gate
// under 4 cores (the merge thread needs a core to hide on), the WAL gate
// under 4 cores (writers must be able to append while the leader's fsync
// is in flight; on one core their wake-ups serialize behind it) or when a
// probe measures fsync below ~100us — on tmpfs/ramdisk CI an fsync is
// nearly free, so serializing one per write costs nothing and the
// amortization ratio is structurally unmeasurable there.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "storage/wal.h"

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"

namespace x100ir {
namespace {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

// Runs `samples` ranked queries round-robin over the batch, recording
// per-query wall latency. Aborts the bench on any query failure.
std::vector<double> MeasureLatencies(const core::Database& db,
                                     const std::vector<ir::Query>& queries,
                                     size_t samples) {
  ir::SearchOptions opts;
  ir::SearchResult result;
  std::vector<double> lat;
  lat.reserve(samples);
  for (size_t i = 0; i < samples; ++i) {
    const ir::Query& q = queries[i % queries.size()];
    WallTimer t;
    bench::CheckOk(db.Search(q, ir::RunType::kBm25, opts, &result), "search");
    lat.push_back(t.ElapsedSeconds());
  }
  return lat;
}

// One synthetic ingest document: uniform draws over the vocabulary
// (duplicates fold into tf). Uniform (not Zipf) keeps the generator out of
// the measured loop — ingest cost is dominated by posting appends and
// snapshot publication, not term choice.
std::vector<uint32_t> MakeDoc(Rng* rng, uint32_t vocab) {
  const uint32_t len = 30 + static_cast<uint32_t>(rng->Next() % 50);
  std::vector<uint32_t> terms(len);
  for (uint32_t i = 0; i < len; ++i) {
    terms[i] = static_cast<uint32_t>(rng->Next() % vocab);
  }
  return terms;
}

// Median latency of a 1-byte write + fsync on the bench volume. This is
// what one acknowledged fsync-per-write add pays at minimum; when it is
// micro-seconds (tmpfs), the group-commit amortization has nothing to
// amortize and the WAL gate must not judge.
double FsyncProbeMicros(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/fsync_probe.tmp";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return 0.0;
  const int fd = fileno(f);
  std::vector<double> us;
  const char byte = 0;
  for (int i = 0; i < 25; ++i) {
    WallTimer t;
    std::fwrite(&byte, 1, 1, f);
    std::fflush(f);
    fsync(fd);
    us.push_back(t.ElapsedSeconds() * 1e6);
  }
  std::fclose(f);
  std::remove(path.c_str());
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

// The durability phase's document: small (8-24 terms), so the acknowledged
// write is dominated by the fsync and not by posting appends — the regime
// the group-commit amortization claim is about. A log-shipping workload
// with 100x the CPU cost per record would dilute any fsync batching win no
// matter how the log is engineered.
std::vector<uint32_t> MakeSmallDoc(Rng* rng, uint32_t vocab) {
  const uint32_t len = 8 + static_cast<uint32_t>(rng->Next() % 16);
  std::vector<uint32_t> terms(len);
  for (uint32_t i = 0; i < len; ++i) {
    terms[i] = static_cast<uint32_t>(rng->Next() % vocab);
  }
  return terms;
}

struct WalModeResult {
  double docs_per_sec = 0.0;
  uint64_t fsyncs = 0;
  uint64_t batch_max = 0;
};

// Ingests `docs` documents from `threads` concurrent writers into a fresh
// on-disk database under the given WAL configuration. Every add is an
// acknowledged write: in the durable modes the measured docs/sec includes
// the covering fsync (or the group-commit wait for one).
WalModeResult MeasureWalMode(const std::string& dir,
                             const ir::CorpusOptions& corpus, bool enabled,
                             storage::WalSyncMode mode, uint32_t docs,
                             uint32_t threads, uint64_t seed) {
  std::filesystem::remove_all(dir);
  core::DatabaseOptions opts;
  opts.dir = dir;
  opts.corpus = corpus;
  opts.storage.wal.enabled = enabled;
  opts.storage.wal.mode = mode;
  core::Database db;
  bench::CheckOk(db.Open(opts), "open wal-mode database");

  const uint32_t per_thread = docs / threads;
  WallTimer timer;
  std::vector<std::thread> writers;
  for (uint32_t t = 0; t < threads; ++t) {
    writers.emplace_back([&db, t, per_thread, seed] {
      Rng rng(seed ^ (0xD1CEull * (t + 1)));
      for (uint32_t i = 0; i < per_thread; ++i) {
        bench::CheckOk(db.AddDocument(
                           MakeSmallDoc(&rng, db.corpus().vocab_size()),
                           nullptr),
                       "wal-mode add");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const double seconds = timer.ElapsedSeconds();

  WalModeResult r;
  r.docs_per_sec =
      seconds > 0.0 ? static_cast<double>(per_thread * threads) / seconds : 0.0;
  const storage::WalStats ws = db.wal_stats();
  r.fsyncs = ws.fsyncs;
  r.batch_max = ws.batch_records_max;
  return r;
}

int Run() {
  std::printf("=== Segmented index: ingest vs query interference ===\n\n");

  core::DatabaseOptions opts;
  opts.dir = bench::BenchDir() + "/ingest";
  opts.corpus = bench::BenchCorpusOptions();
  opts.corpus.num_docs = std::min(opts.corpus.num_docs, 20000u);
  opts.corpus.num_topics = 20;
  opts.corpus.relevant_docs_per_topic = 60;
  // Phases 1-3 measure read/merge interference, not durability: the WAL is
  // explicitly off so their numbers stay comparable with earlier baselines.
  // Phase 4 measures exactly the cost switching it on adds.
  opts.storage.wal.enabled = false;
  core::Database db;
  bench::CheckOk(db.Open(opts), "open database");

  ir::QueryGenOptions qopts = bench::BenchQueryOptions();
  qopts.num_efficiency_queries = 100;
  ir::QueryGenerator gen(db.corpus(), qopts);
  const std::vector<ir::Query> queries = gen.EfficiencyQueries();
  const uint32_t cores = std::thread::hardware_concurrency();
  const bool tiny = bench::Scale() == bench::BenchScale::kTiny;
  const size_t quiescent_samples = tiny ? 300 : 600;
  const uint32_t ingest_docs = tiny ? 2000 : 8000;

  // ---- 1. Quiescent baseline (fresh database: one segment, no delta). --
  MeasureLatencies(db, queries, queries.size());  // warm
  std::vector<double> quiescent =
      MeasureLatencies(db, queries, quiescent_samples);
  const double q_p50 = Percentile(quiescent, 0.50) * 1e3;
  const double q_p99 = Percentile(quiescent, 0.99) * 1e3;

  // ---- 2. Ingest throughput into the delta write buffer. ---------------
  Rng rng(0x1267E57);
  WallTimer ingest_timer;
  for (uint32_t i = 0; i < ingest_docs; ++i) {
    int32_t docid = -1;
    bench::CheckOk(db.AddDocument(MakeDoc(&rng, db.corpus().vocab_size()),
                                  &docid),
                   "add document");
  }
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  const double docs_per_sec =
      static_cast<double>(ingest_docs) / ingest_seconds;

  // Delta-resident reads: the same queries now merge the compressed base
  // segment with the uncompressed write buffer under live stats.
  std::vector<double> delta_lat =
      MeasureLatencies(db, queries, quiescent_samples);

  // ---- 3. Query latency while a background merge runs. -----------------
  // Several add->merge cycles; every during-merge latency sample lands in
  // one pool. Later cycles compact ever-larger segments, so the merge runs
  // long enough to be measured against.
  std::vector<double> merge_lat;
  uint32_t merges_ok = 0;
  const uint32_t cycles = 3;
  for (uint32_t c = 0; c < cycles; ++c) {
    for (uint32_t i = 0; i < ingest_docs / 4; ++i) {
      bench::CheckOk(db.AddDocument(MakeDoc(&rng, db.corpus().vocab_size()),
                                    nullptr),
                     "add document");
    }
    bench::CheckOk(db.StartMerge(), "start merge");
    ir::SearchOptions sopts;
    ir::SearchResult result;
    size_t i = 0;
    while (db.merge_running()) {
      const ir::Query& q = queries[i++ % queries.size()];
      WallTimer t;
      bench::CheckOk(db.Search(q, ir::RunType::kBm25, sopts, &result),
                     "search during merge");
      merge_lat.push_back(t.ElapsedSeconds());
    }
    bench::CheckOk(db.WaitMerge(), "merge");
    ++merges_ok;
  }
  const double m_p50 = Percentile(merge_lat, 0.50) * 1e3;
  const double m_p99 = Percentile(merge_lat, 0.99) * 1e3;
  const double p50_ratio = q_p50 > 0.0 ? m_p50 / q_p50 : 0.0;

  // Post-merge: everything compacted into one segment again, but its docid
  // map is real, so this row shows the steady-state segmented-read
  // overhead.
  std::vector<double> post_lat =
      MeasureLatencies(db, queries, quiescent_samples);

  // ---- 4. WAL durability cost: off vs fsync-per-write vs group commit. --
  const double fsync_probe_us = FsyncProbeMicros(bench::BenchDir());
  ir::CorpusOptions wal_corpus = opts.corpus;
  wal_corpus.num_docs = 2000;  // small base: this phase times adds, not opens
  wal_corpus.relevant_docs_per_topic = 20;
  // Enough concurrent writers that a group-commit batch can form while one
  // fsync is in flight; they spend most of their time blocked in Sync, so
  // the count is fine even on few cores.
  const uint32_t wal_threads = 16;
  const uint32_t wal_docs = tiny ? 800 : 3200;
  const uint64_t wal_seed = 0xDA7A10ull;
  const WalModeResult wal_off = MeasureWalMode(
      bench::BenchDir() + "/ingest_wal_off", wal_corpus, /*enabled=*/false,
      storage::WalSyncMode::kGroupCommit, wal_docs, wal_threads, wal_seed);
  const WalModeResult wal_fsync = MeasureWalMode(
      bench::BenchDir() + "/ingest_wal_fsync", wal_corpus, /*enabled=*/true,
      storage::WalSyncMode::kFsyncPerWrite, wal_docs, wal_threads, wal_seed);
  const WalModeResult wal_group = MeasureWalMode(
      bench::BenchDir() + "/ingest_wal_group", wal_corpus, /*enabled=*/true,
      storage::WalSyncMode::kGroupCommit, wal_docs, wal_threads, wal_seed);
  const double wal_ratio = wal_fsync.docs_per_sec > 0.0
                               ? wal_group.docs_per_sec / wal_fsync.docs_per_sec
                               : 0.0;

  TablePrinter table({"phase", "p50 (ms)", "p99 (ms)", "samples"});
  table.AddRow({"quiescent (fresh)", StrFormat("%.4f", q_p50),
                StrFormat("%.4f", q_p99),
                StrFormat("%zu", quiescent.size())});
  table.AddRow({"delta-resident", StrFormat("%.4f",
                                            Percentile(delta_lat, 0.5) * 1e3),
                StrFormat("%.4f", Percentile(delta_lat, 0.99) * 1e3),
                StrFormat("%zu", delta_lat.size())});
  table.AddRow({"during merge", StrFormat("%.4f", m_p50),
                StrFormat("%.4f", m_p99), StrFormat("%zu", merge_lat.size())});
  table.AddRow({"post-merge", StrFormat("%.4f",
                                        Percentile(post_lat, 0.5) * 1e3),
                StrFormat("%.4f", Percentile(post_lat, 0.99) * 1e3),
                StrFormat("%zu", post_lat.size())});
  table.Print();
  std::printf(
      "ingest: %u docs in %.2fs (%.0f docs/s), %u/%u merges committed\n\n",
      ingest_docs, ingest_seconds, docs_per_sec, merges_ok, cycles);

  TablePrinter wal_table(
      {"wal mode", "docs/s", "fsyncs", "max batch"});
  wal_table.AddRow({"off (volatile)", StrFormat("%.0f", wal_off.docs_per_sec),
                    "0", "-"});
  wal_table.AddRow({"fsync-per-write",
                    StrFormat("%.0f", wal_fsync.docs_per_sec),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          wal_fsync.fsyncs)),
                    "1"});
  wal_table.AddRow({"group commit",
                    StrFormat("%.0f", wal_group.docs_per_sec),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          wal_group.fsyncs)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          wal_group.batch_max))});
  wal_table.Print();
  std::printf(
      "wal: %u docs x %u writers per mode, fsync probe %.1fus, "
      "group/fsync %.2fx\n\n",
      wal_docs, wal_threads, fsync_probe_us, wal_ratio);

  // The gate needs a real sample and a core for the merge thread to hide
  // on; otherwise it reports but does not judge.
  const bool gated = cores >= 4 && merge_lat.size() >= 50;
  std::printf("GATE cores %u\n", cores);
  std::printf("GATE interference_gated %d\n", gated ? 1 : 0);
  std::printf("GATE merge_samples %zu\n", merge_lat.size());
  std::printf("GATE quiescent_p50_ms %.4f\n", q_p50);
  std::printf("GATE merge_p50_ms %.4f\n", m_p50);
  std::printf("GATE merge_p50_ratio %.3f\n", p50_ratio);
  std::printf("GATE ingest_docs_per_sec %.0f\n", docs_per_sec);
  std::printf("GATE merges_ok %u\n", merges_ok);

  // The WAL gate judges only where the group-commit premise is physically
  // measurable: fsync must cost something real (a volume whose fsync is
  // ~free — tmpfs CI — flattens all three modes together), and the host
  // needs cores for writers to append *while* the leader's fsync is in
  // flight. On one core the waiters' wake-ups serialize behind the leader,
  // so filling a batch costs about the fsync it is meant to hide — the
  // same structural self-disable as interference_gated above.
  const bool wal_gated = cores >= 4 && fsync_probe_us >= 100.0;
  std::printf("GATE fsync_probe_us %.1f\n", fsync_probe_us);
  std::printf("GATE wal_gated %d\n", wal_gated ? 1 : 0);
  std::printf("GATE wal_off_docs_per_sec %.0f\n", wal_off.docs_per_sec);
  std::printf("GATE wal_fsync_docs_per_sec %.0f\n", wal_fsync.docs_per_sec);
  std::printf("GATE wal_group_docs_per_sec %.0f\n", wal_group.docs_per_sec);
  std::printf("GATE wal_group_vs_fsync %.2f\n", wal_ratio);
  std::printf("GATE wal_group_batch_max %llu\n",
              static_cast<unsigned long long>(wal_group.batch_max));

  const char* json_path = std::getenv("X100IR_BENCH_JSON");
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    bench::CheckOk(f != nullptr ? OkStatus() : IOError("cannot write json"),
                   "open json");
    std::fprintf(
        f,
        "{\n"
        "  \"comment\": \"Live-update interference + WAL durability cost: "
        "ranked-query p50/p99 quiescent vs delta-resident vs during a "
        "background merge, ingest docs/sec, and acknowledged-write "
        "throughput with the WAL off / fsync-per-write / group-committed. "
        "Gated values: during-merge p50 within 2x of quiescent "
        "(self-disabled under 4 cores) and group-commit >= 5x "
        "fsync-per-write (self-disabled under 4 cores -- one core "
        "serializes waiter wake-ups behind the flush leader -- or when an "
        "fsync probe reads < 100us -- tmpfs).\",\n"
        "  \"command\": \"X100IR_BENCH_JSON=BENCH_ingest.json "
        "./build/bench_ingest\",\n"
        "  \"cores\": %u,\n"
        "  \"ingest_docs\": %u,\n"
        "  \"ingest_docs_per_sec\": %.0f,\n"
        "  \"phases\": [\n"
        "    {\"phase\": \"quiescent\", \"p50_ms\": %.4f, \"p99_ms\": "
        "%.4f},\n"
        "    {\"phase\": \"delta_resident\", \"p50_ms\": %.4f, \"p99_ms\": "
        "%.4f},\n"
        "    {\"phase\": \"during_merge\", \"p50_ms\": %.4f, \"p99_ms\": "
        "%.4f, \"samples\": %zu},\n"
        "    {\"phase\": \"post_merge\", \"p50_ms\": %.4f, \"p99_ms\": "
        "%.4f}\n"
        "  ],\n"
        "  \"merge_p50_ratio\": %.3f,\n"
        "  \"wal\": {\n"
        "    \"docs\": %u,\n"
        "    \"writer_threads\": %u,\n"
        "    \"fsync_probe_us\": %.1f,\n"
        "    \"gated\": %s,\n"
        "    \"off_docs_per_sec\": %.0f,\n"
        "    \"fsync_per_write_docs_per_sec\": %.0f,\n"
        "    \"group_commit_docs_per_sec\": %.0f,\n"
        "    \"group_vs_fsync\": %.2f,\n"
        "    \"group_fsyncs\": %llu,\n"
        "    \"group_batch_max\": %llu\n"
        "  }\n"
        "}\n",
        cores, ingest_docs, docs_per_sec, q_p50, q_p99,
        Percentile(delta_lat, 0.5) * 1e3, Percentile(delta_lat, 0.99) * 1e3,
        m_p50, m_p99, merge_lat.size(), Percentile(post_lat, 0.5) * 1e3,
        Percentile(post_lat, 0.99) * 1e3, p50_ratio, wal_docs, wal_threads,
        fsync_probe_us, wal_gated ? "true" : "false", wal_off.docs_per_sec,
        wal_fsync.docs_per_sec, wal_group.docs_per_sec, wal_ratio,
        static_cast<unsigned long long>(wal_group.fsyncs),
        static_cast<unsigned long long>(wal_group.batch_max));
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote %s\n", json_path);
  }

  // Host-independent hard failures; the latency gate itself is CI's awk
  // (and only when interference_gated says the host can judge it).
  if (merges_ok != cycles) {
    std::fprintf(stderr, "FATAL: %u/%u merges committed\n", merges_ok,
                 cycles);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
