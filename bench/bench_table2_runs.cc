// Reproduces Table 2: "MonetDB/X100 TREC-TB Experiments" — the seven run
// configurations (BoolAND, BoolOR, BM25, +Two-pass, +Compression,
// +Materialization, +Quant.8-bit) with early precision (p@20 over the 50
// judged queries) and average query time on cold and hot data. The
// +Two-pass row keeps the paper's name; its pruning is the Block-Max
// MaxScore executor every ranked row shares (DESIGN.md §8.5).
//
// Substitutions vs. the paper (DESIGN.md §3): synthetic GOV2 stand-in,
// scaled-down query batch, disk I/O charged by ColumnBM's deterministic
// cost model (cold = empty buffer pool per query; hot = fully warmed pool).
// Absolute times differ from the paper's hardware; the row ordering and the
// effect of each optimization are the reproduced result.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "ir/index_meta.h"
#include "ir/metrics.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"
#include "storage/file.h"

namespace x100ir {
namespace {

struct RunRow {
  double p20 = 0.0;
  double cold_ms = 0.0;
  double hot_ms = 0.0;
  double cold_seeks = 0.0;     // simulated I/O requests per cold query
  double cold_kb = 0.0;        // simulated bytes fetched per cold query
};

uint64_t FileBytes(const std::string& path) {
  storage::File f;
  uint64_t size = 0;
  bench::CheckOk(storage::File::OpenReadOnly(path, &f), "open column file");
  bench::CheckOk(f.Size(&size), "size column file");
  return size;
}

int Run() {
  std::printf("=== Table 2: MonetDB/X100 TREC-TB experiments ===\n\n");
  core::Database db;
  bench::CheckOk(bench::OpenBenchDatabase(&db), "open database");

  ir::QueryGenOptions qopts = bench::BenchQueryOptions();
  ir::QueryGenerator gen(db.corpus(), qopts);
  ir::Qrels qrels(db.corpus());
  auto eval_queries = gen.EvalQueries();
  auto efficiency_queries = gen.EfficiencyQueries();
  // Cold runs evict the pool per query; use a subsample to bound runtime.
  size_t cold_n = std::min<size_t>(efficiency_queries.size(), 300);

  double mean_terms = 0;
  for (const auto& q : efficiency_queries) {
    mean_terms += static_cast<double>(q.terms.size());
  }
  mean_terms /= static_cast<double>(efficiency_queries.size());
  std::printf(
      "query batch: %zu efficiency queries (%.2f terms avg; paper: 2.3), "
      "%zu judged queries\n\n",
      efficiency_queries.size(), mean_terms, eval_queries.size());

  std::map<ir::RunType, RunRow> rows;
  for (ir::RunType type : ir::AllRunTypes()) {
    RunRow row;
    ir::SearchOptions opts;
    ir::SearchResult result;

    // Effectiveness: p@20 over the judged queries (hot).
    std::vector<double> p20s;
    for (const auto& q : eval_queries) {
      bench::CheckOk(db.Search(q, type, opts, &result), "search");
      std::vector<int32_t> ranked = result.docids;
      p20s.push_back(ir::PrecisionAtK(ranked, 20, qrels, q.topic));
    }
    row.p20 = ir::Mean(p20s);

    // Cold: empty buffer pool before every query.
    double cold_total = 0.0;
    const bool has_disk = db.disk() != nullptr;
    const uint64_t seeks_before = has_disk ? db.disk()->seeks() : 0;
    const uint64_t bytes_before = has_disk ? db.disk()->total_bytes() : 0;
    for (size_t i = 0; i < cold_n; ++i) {
      // Per-run cold reset: chill only the columns this run reads, so a
      // row's cold cost reflects its own I/O, not refetches of files the
      // previous row's global eviction threw out.
      bench::CheckOk(bench::EvictRunColumns(db, type), "evict");
      bench::CheckOk(db.Search(efficiency_queries[i], type, opts, &result),
                     "search");
      cold_total += result.TotalSeconds();
    }
    row.cold_ms = cold_total * 1e3 / static_cast<double>(cold_n);
    if (has_disk) {
      row.cold_seeks =
          static_cast<double>(db.disk()->seeks() - seeks_before) /
          static_cast<double>(cold_n);
      row.cold_kb =
          static_cast<double>(db.disk()->total_bytes() - bytes_before) /
          1024.0 / static_cast<double>(cold_n);
    }

    // Hot: warm once, then measure the full batch.
    for (const auto& q : efficiency_queries) {
      bench::CheckOk(db.Search(q, type, opts, &result), "warm");
    }
    double hot_total = 0.0;
    for (const auto& q : efficiency_queries) {
      bench::CheckOk(db.Search(q, type, opts, &result), "search");
      hot_total += result.TotalSeconds();
    }
    row.hot_ms =
        hot_total * 1e3 / static_cast<double>(efficiency_queries.size());
    rows[type] = row;
    std::fprintf(stderr, "[bench] %-10s done\n", RunTypeName(type));
  }

  TablePrinter table({"Run name (+ added feature)", "p@20",
                      "cold avg (ms)", "hot avg (ms)", "I/O req/q",
                      "I/O KB/q"});
  const char* features[] = {"",
                            "",
                            "",
                            " (+Two-pass)",
                            " (+Compression)",
                            " (+Materialization)",
                            " (+Quant.8-bit)"};
  size_t fi = 0;
  for (ir::RunType type : ir::AllRunTypes()) {
    const RunRow& r = rows[type];
    table.AddRow({std::string(RunTypeName(type)) + features[fi++],
                  StrFormat("%.4f", r.p20), StrFormat("%.3f", r.cold_ms),
                  StrFormat("%.3f", r.hot_ms),
                  StrFormat("%.1f", r.cold_seeks),
                  StrFormat("%.1f", r.cold_kb)});
  }
  table.Print();

  std::printf(
      "\nPaper's Table 2 (GOV2, 426GB, 3GHz Xeon, 12-disk RAID; reference "
      "only):\n"
      "  BoolAND    0.0130  cold  76ms  hot  12ms\n"
      "  BoolOR     0.0000  cold 133ms  hot  80ms\n"
      "  BM25       0.5460  cold 440ms  hot 342ms\n"
      "  BM25T      0.5470  cold 198ms  hot  72ms   (~15%% needed a 2nd "
      "pass)\n"
      "  BM25TC     0.5470  cold 158ms  hot  73ms\n"
      "  BM25TCM    0.5470  cold 155ms  hot  29ms\n"
      "  BM25TCMQ8  0.5490  cold 118ms  hot  28ms\n");

  // On-disk score-column footprint: quantization is the cheapest way to
  // store materialized scores (the paper's Quant.8-bit row).
  const std::string dir = bench::BenchDir() + "/full";
  const uint64_t f32_bytes = FileBytes(dir + "/" + ir::kScoreF32File);
  const uint64_t q8_bytes = FileBytes(dir + "/" + ir::kScoreQ8File);
  std::printf("\nscore column footprint: f32 %s, q8 %s (%.2fx)\n",
              HumanBytes(f32_bytes).c_str(), HumanBytes(q8_bytes).c_str(),
              static_cast<double>(f32_bytes) /
                  static_cast<double>(q8_bytes));

  // Shape summary against the paper's claims.
  std::printf("\nshape checks:\n");
  std::printf("  boolean precision collapses:    BoolAND p@20 %.3f, BoolOR "
              "%.3f vs BM25 %.3f\n",
              rows[ir::RunType::kBoolAnd].p20, rows[ir::RunType::kBoolOr].p20,
              rows[ir::RunType::kBm25].p20);
  std::printf("  pool reads add to hot time:     %.3f -> %.3f ms (%.1fx)\n",
              rows[ir::RunType::kBm25].hot_ms,
              rows[ir::RunType::kBm25T].hot_ms,
              rows[ir::RunType::kBm25T].hot_ms /
                  rows[ir::RunType::kBm25].hot_ms);
  std::printf("  compression cuts cold time:     %.3f -> %.3f ms\n",
              rows[ir::RunType::kBm25T].cold_ms,
              rows[ir::RunType::kBm25TC].cold_ms);
  std::printf("  materialization cuts hot time:  %.3f -> %.3f ms (cold may "
              "regress: f32 scores are bigger than compressed tf)\n",
              rows[ir::RunType::kBm25TC].hot_ms,
              rows[ir::RunType::kBm25TCM].hot_ms);
  std::printf("  quantization recovers cold I/O: %.3f -> %.3f ms, p@20 "
              "unchanged (%.4f vs %.4f)\n",
              rows[ir::RunType::kBm25TCM].cold_ms,
              rows[ir::RunType::kBm25TCMQ8].cold_ms,
              rows[ir::RunType::kBm25TCM].p20,
              rows[ir::RunType::kBm25TCMQ8].p20);

  // Gates (bounds in bench/gates.txt). Cold times are dominated by the
  // deterministic simulated disk, so these ratios are runner-independent;
  // hot wall-clock is recorded but never gated.
  bench::Record record(
      "table2_runs",
      "Table 2 runs: p@20 + cold/hot avg per query; cold ms include the "
      "deterministic simulated-disk charge (2 ms seek, 200 MB/s), hot ms "
      "are wall-clock over a warm pool.");
  for (ir::RunType type : ir::AllRunTypes()) {
    const RunRow& r = rows[type];
    record.AddRow(RunTypeName(type))
        .Set("p20", r.p20)
        .Set("cold_ms", r.cold_ms)
        .Set("hot_ms", r.hot_ms)
        .Set("cold_io_requests", r.cold_seeks)
        .Set("cold_io_kb", r.cold_kb);
  }
  record.AddRow("score_columns")
      .Set("f32_bytes", f32_bytes)
      .Set("q8_bytes", q8_bytes);
  std::printf("\n");
  record.Gate("tcm_vs_bm25t_cold", rows[ir::RunType::kBm25TCM].cold_ms /
                                       rows[ir::RunType::kBm25T].cold_ms);
  record.Gate("tcmq8_vs_tcm_cold", rows[ir::RunType::kBm25TCMQ8].cold_ms /
                                       rows[ir::RunType::kBm25TCM].cold_ms);
  record.Gate("q8_vs_f32_bytes",
              static_cast<double>(q8_bytes) / static_cast<double>(f32_bytes));
  return record.Finish();
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
