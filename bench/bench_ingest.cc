// Live-update interference bench (DESIGN.md §10): what does the segmented
// index cost the read path while it is being written to?
//
//   1. Quiescent baseline — ranked-query p50/p99 against the freshly
//      opened database (one identity-map segment, no delta, no deletes).
//   2. Ingest throughput — acknowledged AddDocument docs/sec from one
//      writer into the delta write buffer, each add logged (group commit)
//      and publishing a new snapshot.
//   3. Merge interference — the gated phase: query latency measured while
//      a background merge compacts the delta into a new compressed
//      segment. Queries run against the sealed delta + old segments the
//      whole time (snapshot pinning; no read ever blocks on the merge).
//
//      Each merge's seconds and its segment's forward store in bytes per
//      posting are recorded too (the posting-list merge, DESIGN.md
//      §10.3).
//
//   4. WAL durability cost (DESIGN.md §13) — ingest docs/sec into an
//      in-memory database (the no-durability baseline) and into on-disk
//      ones logging fsync-per-write and group-committed, concurrent
//      writers in every mode. Group commit's claim is that one
//      fsync amortizes over a batch of acknowledged writes, so its
//      throughput must sit far above fsync-per-write whenever fsync has a
//      real cost. The two on-disk modes run in alternating rounds, so a
//      spell of slow fsyncs lands on both, and the gated ratio is the
//      median of the rounds' ratios.
//
// Gates (bench/gates.txt): all merge cycles commit, during-merge p50
// within 2x of the quiescent p50, the delta-resident p50 within a bound
// of the post-merge p50 (the added documents read from the write buffer,
// then merged into the segment with later ones), and group-commit ingest
// >= 3x fsync-per-write. The comparisons are host-relative, and they
// self-disable where the host can't judge them: the interference and
// delta gates under 4 cores (the merge thread needs a core to hide on and
// 50 merge-overlapped samples), the WAL gate
// under 4 cores (writers must be able to append while the leader's fsync
// is in flight; on one core their wake-ups serialize behind it) or when a
// probe measures fsync below ~100us — on tmpfs/ramdisk CI an fsync is
// nearly free, so serializing one per write costs nothing and the
// amortization ratio is structurally unmeasurable there.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
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
// database under the given WAL mode; an empty `dir` opens it in memory,
// with no WAL. Every add is an acknowledged write: on disk the measured
// docs/sec includes the covering fsync (or the group-commit wait for one).
WalModeResult MeasureWalMode(const std::string& dir,
                             const ir::CorpusOptions& corpus,
                             storage::WalSyncMode mode, uint32_t docs,
                             uint32_t threads, uint64_t seed) {
  if (!dir.empty()) std::filesystem::remove_all(dir);
  core::DatabaseOptions opts;
  opts.dir = dir;
  opts.corpus = corpus;
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
  // A fresh database every run: reopening the last run's directory would
  // start from its merged segment and WAL instead of the base corpus.
  std::filesystem::remove_all(opts.dir);
  opts.corpus = bench::BenchCorpusOptions();
  opts.corpus.num_docs = std::min(opts.corpus.num_docs, 20000u);
  opts.corpus.num_topics = 20;
  opts.corpus.relevant_docs_per_topic = 60;
  // Phases 1-3 run with the WAL group-committing, as every on-disk
  // database does; phase 4 isolates what it costs.
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
  const double q_p50 = bench::Percentile(quiescent, 0.50) * 1e3;

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
  // Per merge: seconds from StartMerge to its commit (read to within one
  // search) and the merged forward store's bytes per posting.
  std::vector<double> merge_seconds, merge_forward_bytes;
  for (uint32_t c = 0; c < cycles; ++c) {
    for (uint32_t i = 0; i < ingest_docs / 4; ++i) {
      bench::CheckOk(db.AddDocument(MakeDoc(&rng, db.corpus().vocab_size()),
                                    nullptr),
                     "add document");
    }
    WallTimer merge_timer;
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
    merge_seconds.push_back(merge_timer.ElapsedSeconds());
    bench::CheckOk(db.WaitMerge(), "merge");
    ++merges_ok;
    const ir::Corpus& forward = db.Acquire()->segments.at(0).seg->forward();
    const ir::Corpus::StoreBytes store = forward.store_bytes();
    merge_forward_bytes.push_back(
        static_cast<double>(store.terms + store.tfs) /
        static_cast<double>(forward.num_postings()));
  }
  const double m_p50 = bench::Percentile(merge_lat, 0.50) * 1e3;
  const double p50_ratio = q_p50 > 0.0 ? m_p50 / q_p50 : 0.0;

  // Post-merge: everything compacted into one segment again, but its docid
  // map is real, so this row shows the steady-state segmented-read
  // overhead.
  std::vector<double> post_lat =
      MeasureLatencies(db, queries, quiescent_samples);
  // What reading the write buffer costs over reading merged documents.
  const double d_p50 = bench::Percentile(delta_lat, 0.50) * 1e3;
  const double pm_p50 = bench::Percentile(post_lat, 0.50) * 1e3;
  const double delta_ratio = pm_p50 > 0.0 ? d_p50 / pm_p50 : 0.0;

  // ---- 4. WAL durability cost: in memory vs fsync vs group commit. ----
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
  const WalModeResult wal_off =
      MeasureWalMode("", wal_corpus, storage::WalSyncMode::kGroupCommit,
                     wal_docs, wal_threads, wal_seed);
  // The on-disk modes in alternating rounds, each round's first mode
  // alternating too; a mode's row holds its median round.
  constexpr uint32_t kWalRounds = 5;
  std::vector<WalModeResult> fsync_rounds, group_rounds;
  std::vector<double> wal_ratios;
  for (uint32_t r = 0; r < kWalRounds; ++r) {
    const auto fsync_round = [&] {
      fsync_rounds.push_back(MeasureWalMode(
          bench::BenchDir() + "/ingest_wal_fsync", wal_corpus,
          storage::WalSyncMode::kFsyncPerWrite, wal_docs, wal_threads,
          wal_seed + r));
    };
    const auto group_round = [&] {
      group_rounds.push_back(MeasureWalMode(
          bench::BenchDir() + "/ingest_wal_group", wal_corpus,
          storage::WalSyncMode::kGroupCommit, wal_docs, wal_threads,
          wal_seed + r));
    };
    if (r % 2 == 0) {
      fsync_round();
      group_round();
    } else {
      group_round();
      fsync_round();
    }
    const double fsync_rate = fsync_rounds.back().docs_per_sec;
    wal_ratios.push_back(
        fsync_rate > 0.0 ? group_rounds.back().docs_per_sec / fsync_rate
                         : 0.0);
  }
  const auto median_round = [](std::vector<WalModeResult> rounds) {
    std::sort(rounds.begin(), rounds.end(),
              [](const WalModeResult& a, const WalModeResult& b) {
                return a.docs_per_sec < b.docs_per_sec;
              });
    WalModeResult median = rounds[rounds.size() / 2];
    for (const WalModeResult& r : rounds) {
      median.batch_max = std::max(median.batch_max, r.batch_max);
    }
    return median;
  };
  const WalModeResult wal_fsync = median_round(fsync_rounds);
  const WalModeResult wal_group = median_round(group_rounds);
  const double wal_ratio = bench::Percentile(wal_ratios, 0.50);

  bench::Record record(
      "ingest",
      "Live-update interference + WAL durability cost: ranked-query "
      "p50/p99 quiescent vs delta-resident vs during a background merge vs "
      "post-merge (WAL group-committing throughout), ingest docs/sec, and "
      "acknowledged-write throughput in memory (no WAL) / fsync-per-write / "
      "group-committed (the on-disk modes in alternating rounds, median "
      "round), each merge's seconds and forward-store bytes per posting. "
      "Gated values: every "
      "merge commits, during-merge p50 within 2x of quiescent and the "
      "delta-resident p50 within a bound of post-merge "
      "(both self-disabled under 4 cores) and the median round's group-commit "
      ">= 3x fsync-per-write (self-disabled under 4 cores -- one core "
      "serializes waiter wake-ups behind the flush leader -- or when an "
      "fsync probe reads < 100us -- tmpfs).");
  TablePrinter table({"phase", "p50 (ms)", "p99 (ms)", "samples"});
  const auto add_phase = [&](const char* label, const char* name,
                             const std::vector<double>& lat) {
    const double p50 = bench::Percentile(lat, 0.50) * 1e3;
    const double p99 = bench::Percentile(lat, 0.99) * 1e3;
    table.AddRow({label, StrFormat("%.4f", p50), StrFormat("%.4f", p99),
                  StrFormat("%zu", lat.size())});
    record.AddRow(name)
        .Set("p50_ms", p50)
        .Set("p99_ms", p99)
        .Set("samples", lat.size());
  };
  add_phase("quiescent (fresh)", "quiescent", quiescent);
  add_phase("delta-resident", "delta_resident", delta_lat);
  add_phase("during merge", "during_merge", merge_lat);
  add_phase("post-merge", "post_merge", post_lat);
  table.Print();
  std::printf(
      "ingest: %u docs in %.2fs (%.0f docs/s), %u/%u merges committed\n\n",
      ingest_docs, ingest_seconds, docs_per_sec, merges_ok, cycles);
  record.AddRow("ingest")
      .Set("docs", ingest_docs)
      .Set("docs_per_sec", docs_per_sec);
  for (size_t m = 0; m < merge_seconds.size(); ++m) {
    std::printf("merge %zu: %.3fs, forward store %.3f B/posting\n", m + 1,
                merge_seconds[m], merge_forward_bytes[m]);
    record.AddRow(StrFormat("merge_%zu", m + 1))
        .Set("seconds", merge_seconds[m])
        .Set("forward_bytes_per_posting", merge_forward_bytes[m]);
  }
  std::printf("\n");

  TablePrinter wal_table({"wal mode", "docs/s", "fsyncs", "max batch"});
  const auto add_wal = [&](const char* label, const char* name,
                           const WalModeResult& r) {
    wal_table.AddRow({label, StrFormat("%.0f", r.docs_per_sec),
                      StrFormat("%llu",
                                static_cast<unsigned long long>(r.fsyncs)),
                      StrFormat("%llu", static_cast<unsigned long long>(
                                            r.batch_max))});
    record.AddRow(name)
        .Set("docs", wal_docs)
        .Set("writer_threads", wal_threads)
        .Set("docs_per_sec", r.docs_per_sec)
        .Set("fsyncs", r.fsyncs)
        .Set("batch_max", r.batch_max);
  };
  add_wal("off (in memory)", "wal_off", wal_off);
  add_wal("fsync-per-write", "wal_fsync_per_write", wal_fsync);
  add_wal("group commit", "wal_group_commit", wal_group);
  wal_table.Print();
  std::string ratios;
  for (const double r : wal_ratios) ratios += StrFormat(" %.2f", r);
  std::printf(
      "wal: %u docs x %u writers per mode and round, fsync probe %.1fus, "
      "group/fsync by round%s, median %.2fx\n\n",
      wal_docs, wal_threads, fsync_probe_us, ratios.c_str(), wal_ratio);
  record.AddRow("wal_rounds")
      .Set("rounds", kWalRounds)
      .Set("group_vs_fsync_min",
           *std::min_element(wal_ratios.begin(), wal_ratios.end()))
      .Set("group_vs_fsync_max",
           *std::max_element(wal_ratios.begin(), wal_ratios.end()));

  // The gate needs a real sample and a core for the merge thread to hide
  // on; otherwise it reports but does not judge.
  const bool gated = cores >= 4 && merge_lat.size() >= 50;
  record.Gate("cores", cores);
  record.Gate("interference_gated", gated ? 1 : 0);
  record.Gate("merge_samples", merge_lat.size());
  record.Gate("quiescent_p50_ms", q_p50);
  record.Gate("merge_p50_ms", m_p50);
  record.Gate("merge_p50_ratio", p50_ratio);
  record.Gate("delta_vs_post_merge_p50", delta_ratio);
  record.Gate("ingest_docs_per_sec", docs_per_sec);
  record.Gate("merges_ok", merges_ok);

  // The WAL gate judges only where the group-commit premise is physically
  // measurable: fsync must cost something real (a volume whose fsync is
  // ~free — tmpfs CI — flattens all three modes together), and the host
  // needs cores for writers to append *while* the leader's fsync is in
  // flight. On one core the waiters' wake-ups serialize behind the leader,
  // so filling a batch costs about the fsync it is meant to hide — the
  // same structural self-disable as interference_gated above.
  const bool wal_gated = cores >= 4 && fsync_probe_us >= 100.0;
  record.Gate("fsync_probe_us", fsync_probe_us);
  record.Gate("wal_gated", wal_gated ? 1 : 0);
  record.Gate("wal_off_docs_per_sec", wal_off.docs_per_sec);
  record.Gate("wal_fsync_docs_per_sec", wal_fsync.docs_per_sec);
  record.Gate("wal_group_docs_per_sec", wal_group.docs_per_sec);
  record.Gate("wal_group_vs_fsync", wal_ratio);
  record.Gate("wal_group_batch_max", wal_group.batch_max);
  return record.Finish();
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
