// Reproduces the §4 demonstration knob: "we also run benchmarks using
// varying MonetDB/X100 parameters, such as the vector size used in the
// execution pipeline."
//
// Expected shape (the classic X100 curve): vector size 1 degenerates to
// tuple-at-a-time Volcano execution (interpretation overhead per tuple);
// very large vectors spill the CPU cache (materialization overheads);
// the optimum sits at a few hundred to a few thousand values. The shape is
// gated through bench/gates.txt on the GATE ratios printed last.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "ir/search_engine.h"

namespace x100ir {
namespace {

int Run() {
  std::printf("=== Vector-size sweep (§4 demonstration parameter) ===\n\n");
  core::Database db;
  bench::CheckOk(bench::OpenBenchDatabase(&db), "open database");

  ir::QueryGenOptions qopts = bench::BenchQueryOptions();
  qopts.num_efficiency_queries = 300;
  ir::QueryGenerator gen(db.corpus(), qopts);
  auto queries = gen.EfficiencyQueries();

  // Hot data: warm the pool once with the default vector size.
  {
    ir::SearchOptions opts;
    ir::SearchResult result;
    for (const auto& q : queries) {
      bench::CheckOk(db.Search(q, ir::RunType::kBm25, opts, &result), "warm");
    }
  }

  const uint32_t sizes[] = {1,   4,    16,   64,    256,  1024,
                            4096, 16384, 65536};
  TablePrinter table({"vector size", "BM25 hot avg (ms)", "relative"});
  std::vector<std::pair<uint32_t, double>> rows;
  for (uint32_t vs : sizes) {
    ir::SearchOptions opts;
    opts.vector_size = vs;
    // The §4 figure is about the *interpretation overhead* of the pure
    // vectorized pipeline, so pin the PR 3 score-all union plan: MaxScore
    // pruning (PR 4) deliberately decouples work from vector size, which
    // would flatten exactly the curve this bench demonstrates
    // (bench_table1_systems measures that path instead).
    opts.maxscore_bm25 = false;
    ir::SearchResult result;
    double total = 0.0;
    for (const auto& q : queries) {
      bench::CheckOk(db.Search(q, ir::RunType::kBm25, opts, &result),
                     "search");
      total += result.TotalSeconds();
    }
    rows.emplace_back(vs, total * 1e3 / static_cast<double>(queries.size()));
    std::fprintf(stderr, "[bench] vector size %u done\n", vs);
  }
  size_t best = 0;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].second < rows[best].second) best = i;
  }
  const double best_ms = rows[best].second;
  bench::Record record("vector_size",
                       "Section 4 vector-size sweep: BM25 score-all union "
                       "plan, hot avg ms per query by vector size.");
  for (const auto& [vs, ms] : rows) {
    table.AddRow({StrFormat("%u", vs), StrFormat("%.3f", ms),
                  StrFormat("%.2fx", ms / best_ms)});
    record.AddRow(StrFormat("size_%u", vs)).Set("avg_ms", ms);
  }
  table.Print();

  std::printf(
      "\nshape: per-tuple interpretation overhead should make vector size 1 "
      "an order of magnitude slower than the optimum (~1K values, which "
      "keeps a query's working set in cache).\n\n");
  // Sweep rows between the optimum and the nearer end: 0 means the
  // optimum sits at an end of the sweep rather than inside it.
  record.Gate("optimum_edge_distance", std::min(best, rows.size() - 1 - best));
  record.Gate("size1_vs_best", rows.front().second / best_ms);
  record.Gate("largest_vs_best", rows.back().second / best_ms);
  return record.Finish();
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
