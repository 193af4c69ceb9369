// Ablations of ColumnBM design choices called out in DESIGN.md §8:
//   1. Page (disk block) size — "the granularity of disk accesses is in
//      blocks of several megabytes, to optimize for fast sequential I/O":
//      cold query cost vs page size. Pages are a read-time knob of the
//      buffer pool, so the sweep reopens the same on-disk index with
//      different page sizes — no rebuild.
//   2. Buffer pool capacity: hit rate / simulated I/O as the pool shrinks
//      below the working set.
//
// Reports through bench::Record: a row per page size and per pool size, and
// GATE lines for the shapes both sweeps claim (bounds in bench/gates.txt):
// as the page grows, I/O requests per cold query never rise and bytes per
// cold query never fall; as the pool grows, the hit rate never falls, and
// the largest pool evicts nothing. Every gated number is a count of the
// deterministic simulated disk or the 1-shard pool, so the gates read the
// same on every run.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"

namespace x100ir {
namespace {

// A smaller private collection: the sweeps run hundreds of cold queries
// per configuration.
core::DatabaseOptions AblationOptions() {
  core::DatabaseOptions opts;
  opts.dir = bench::BenchDir() + "/ablation";
  opts.corpus = bench::BenchCorpusOptions();
  opts.corpus.num_docs = std::min(opts.corpus.num_docs, 20000u);
  opts.corpus.num_topics = 20;
  opts.corpus.relevant_docs_per_topic = 60;
  return opts;
}

int Run() {
  bench::Record record(
      "ablation",
      "ColumnBM ablations: cold BM25TC I/O per query as the page grows, and "
      "hot-loop BM25TC hit rate, simulated I/O and evictions as the pool "
      "grows");
  std::printf("=== ColumnBM ablations: page size & buffer pool ===\n\n");

  core::DatabaseOptions base = AblationOptions();
  ir::QueryGenOptions qopts = bench::BenchQueryOptions();
  qopts.num_efficiency_queries = 200;

  // ---- 1. Page size sweep (cold BM25TC). ------------------------------
  std::printf("-- page size (cold BM25TC, %u queries) --\n",
              qopts.num_efficiency_queries);
  TablePrinter page_table({"page", "cold avg (ms)", "I/O seeks/query",
                           "I/O bytes/query"});
  // Steps from one page size to the next where a cold query's I/O requests
  // rise or its bytes fall.
  uint64_t prev_seeks = std::numeric_limits<uint64_t>::max(), prev_bytes = 0;
  int requests_rises = 0, bytes_falls = 0;
  for (uint32_t page_kb : {16u, 64u, 256u, 1024u}) {
    core::DatabaseOptions opts = base;
    opts.storage.page_bytes = page_kb << 10;
    core::Database db;
    bench::CheckOk(db.Open(opts), "open database");
    ir::QueryGenerator gen(db.corpus(), qopts);
    auto queries = gen.EfficiencyQueries();
    ir::SearchOptions sopts;
    ir::SearchResult result;
    double total = 0.0;
    const uint64_t seeks_before = db.disk()->seeks();
    const uint64_t bytes_before = db.disk()->total_bytes();
    for (const auto& q : queries) {
      // Cold means *this run's* columns are cold: evict exactly the two
      // files BM25TC scans, not the whole pool.
      bench::CheckOk(bench::EvictRunColumns(db, ir::RunType::kBm25TC),
                     "evict");
      bench::CheckOk(db.Search(q, ir::RunType::kBm25TC, sopts, &result),
                     "search");
      total += result.TotalSeconds();
    }
    const double n = static_cast<double>(queries.size());
    const uint64_t seeks = db.disk()->seeks() - seeks_before;
    const uint64_t bytes = db.disk()->total_bytes() - bytes_before;
    page_table.AddRow({StrFormat("%u KB", page_kb),
                       StrFormat("%.3f", total * 1e3 / n),
                       StrFormat("%.1f", static_cast<double>(seeks) / n),
                       HumanBytes(static_cast<uint64_t>(
                           static_cast<double>(bytes) / n))});
    record.AddRow(StrFormat("page %u KB", page_kb))
        .Set("cold_ms", total * 1e3 / n)
        .Set("io_requests_per_query", static_cast<double>(seeks) / n)
        .Set("io_kb_per_query", static_cast<double>(bytes) / 1024.0 / n);
    requests_rises += seeks > prev_seeks ? 1 : 0;
    bytes_falls += bytes < prev_bytes ? 1 : 0;
    prev_seeks = seeks;
    prev_bytes = bytes;
  }
  page_table.Print();
  std::printf(
      "shape: small pages pay a positioning charge per touched page; large "
      "pages read bytes a query never uses. The paper picks multi-MB "
      "blocks because RAID makes transfer cheap relative to positioning.\n"
      "\n");

  // ---- 2. Buffer pool capacity sweep (hot-loop BM25TC). ----------------
  std::printf("-- buffer pool capacity (hot-loop BM25TC, %u queries) --\n",
              qopts.num_efficiency_queries);
  TablePrinter pool_table({"pool", "hit rate", "sim I/O ms/query",
                           "evictions"});
  // Steps from one pool size to the next where the hit rate falls (a pool
  // too small to run reads 0), and the largest pool's evictions (NaN, which
  // fails any bound, when it cannot run).
  double prev_hit_rate = 0.0;
  int hit_rate_falls = 0;
  double largest_evictions = 0.0;
  for (uint64_t pool_kb : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
    core::DatabaseOptions opts = base;
    opts.storage.page_bytes = 64u << 10;
    opts.storage.pool_bytes = pool_kb << 10;
    core::Database db;
    bench::CheckOk(db.Open(opts), "open database");
    ir::QueryGenerator gen(db.corpus(), qopts);
    auto queries = gen.EfficiencyQueries();
    ir::SearchOptions sopts;
    ir::SearchResult result;
    // Two passes: the second measures steady state. A pool smaller than
    // one page's pinned working set cannot run at all — itself an
    // informative row.
    bool too_small = false;
    for (const auto& q : queries) {
      Status s = db.Search(q, ir::RunType::kBm25TC, sopts, &result);
      if (!s.ok()) {
        too_small = true;
        break;
      }
    }
    const std::string name =
        StrFormat("pool %llu KB", static_cast<unsigned long long>(pool_kb));
    if (too_small) {
      pool_table.AddRow({StrFormat("%llu KB",
                                   static_cast<unsigned long long>(pool_kb)),
                         "-", "-", "pool < pinned working set"});
      record.AddRow(name).Set("runs", 0);
      hit_rate_falls += prev_hit_rate > 0.0 ? 1 : 0;
      prev_hit_rate = 0.0;
      largest_evictions = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    db.index()->buffer_manager()->ResetStats();
    double io = 0.0;
    for (const auto& q : queries) {
      bench::CheckOk(db.Search(q, ir::RunType::kBm25TC, sopts, &result),
                     "search");
      io += result.io_seconds;
    }
    const storage::BufferStats stats = db.buffer_stats();
    const double io_ms = io * 1e3 / static_cast<double>(queries.size());
    pool_table.AddRow(
        {StrFormat("%llu KB", static_cast<unsigned long long>(pool_kb)),
         StrFormat("%.1f%%", 100.0 * stats.HitRate()),
         StrFormat("%.3f", io_ms),
         StrFormat("%llu",
                   static_cast<unsigned long long>(stats.evictions))});
    record.AddRow(name)
        .Set("runs", 1)
        .Set("hit_rate", stats.HitRate())
        .Set("sim_io_ms_per_query", io_ms)
        .Set("evictions", static_cast<double>(stats.evictions));
    hit_rate_falls += stats.HitRate() < prev_hit_rate ? 1 : 0;
    prev_hit_rate = stats.HitRate();
    largest_evictions = static_cast<double>(stats.evictions);
  }
  pool_table.Print();
  std::printf(
      "shape: once the pool covers the query working set the hit rate "
      "saturates and simulated I/O vanishes — the paper's hot runs. "
      "Compression moves the saturation point left (the whole compressed "
      "index fits in RAM, §3.4).\n\n");
  record.Gate("page_io_requests_rises", requests_rises);
  record.Gate("page_io_bytes_falls", bytes_falls);
  record.Gate("pool_hit_rate_falls", hit_rate_falls);
  record.Gate("pool_largest_evictions", largest_evictions);
  return record.Finish();
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
