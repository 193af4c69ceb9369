// Table 1 context: "custom-built information retrieval engines have always
// outperformed generic database technology". This bench pits hand-rolled
// custom IR engines (document-at-a-time, term-at-a-time, and MaxScore DAAT
// over raw in-RAM postings — the kind of system Table 1 lists) against the
// DBMS formulation running on the vectorized engine, on identical data and
// the identical BM25 model. The paper's point, reproduced: with vectorized
// in-cache execution + light-weight compression + block skipping, the DBMS
// is competitive.
//
// Three experiments, all recorded in BENCH_table1.json (set
// X100IR_BENCH_JSON=<path> to write it) and gated through bench/gates.txt
// on the "GATE <name> <value>" lines:
//
//   1. ranked bake-off — custom DAAT/TAAT/MaxScore vs the DBMS BM25 runs
//      (PR 3 score-all union vs the streaming Block-Max MaxScore path),
//      p@20 + hot avg ms/query over the efficiency batch. The DBMS row
//      reports the ExecStats counters `windows_blockmax_skipped` (128-tf
//      windows whose persisted (max_tf, min_doclen) bound could not beat
//      the live threshold — never decoded) and `fused_windows` (windows
//      scored by the fused decode→score kernel, DESIGN.md §12.3), proving
//      the Block-Max + fused hot path is actually exercised;
//   2. conjunctive queries — the streaming skip join, checked against
//      std::set_intersection over the decoded posting lists, with the
//      ExecStats window counters proving the skipping is real;
//   3. SIMD unpack — shuffle-table LOOP1 vs scalar, sampling bit widths
//      across the full supported 1..30 range.
#include <cstdio>
#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "compress/pfor.h"
#include "compress/unpack.h"
#include "ir/custom_engine.h"
#include "ir/metrics.h"
#include "ir/search_engine.h"

namespace x100ir {
namespace {

// --- Experiment 3: SIMD vs scalar LOOP1 ------------------------------------

double MeasureDecodeGbps(const compress::BlockDecoder& dec, int32_t* out) {
  // Best-of-3, counting decoded output bytes (the convention of
  // bench_codecs / BENCH_codecs.json).
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    constexpr int kIters = 8;
    for (int i = 0; i < kIters; ++i) dec.DecodeAll(out);
    const double secs = timer.ElapsedSeconds();
    const double gbps = 4.0 * dec.n() * kIters / secs / 1e9;
    if (gbps > best) best = gbps;
  }
  return best;
}

void RunSimdUnpackExperiment(TablePrinter* table, bench::Record* record) {
  using compress::internal::ActiveSimdLevel;
  using compress::internal::SetSimdUnpackEnabled;
  using compress::internal::SimdLevelName;
  using compress::internal::SimdUnpackAvailable;

  constexpr uint32_t kN = 1u << 20;
  std::vector<int32_t> values(kN), out(kN);
  // Samples across the full supported 1..30 range (the AVX2 path covers
  // every width, not just the byte-aligned ones).
  for (int b : {1, 4, 5, 8, 11, 16, 20, 30}) {
    Rng rng(0xb17 + b);
    for (uint32_t i = 0; i < kN; ++i) {
      values[i] = static_cast<int32_t>(rng.Next() & ((1ull << b) - 1));
    }
    // PFOR with forced base 0 and no exceptions: DecodeAll is pure LOOP1.
    compress::EncodeOptions opts;
    opts.bit_width = b;
    opts.force_base = true;
    std::vector<uint8_t> block;
    bench::CheckOk(compress::PforEncode(values.data(), kN, opts, &block,
                                        nullptr),
                   "pfor encode");
    compress::BlockDecoder dec;
    bench::CheckOk(dec.Init(block.data(), block.size()), "decoder init");

    SetSimdUnpackEnabled(false);
    const double scalar = MeasureDecodeGbps(dec, out.data());
    SetSimdUnpackEnabled(true);
    const double simd = MeasureDecodeGbps(dec, out.data());
    const bool available = SimdUnpackAvailable(b);
    const double ratio = simd / scalar;
    table->AddRow({StrFormat("LOOP1 unpack b=%d", b),
                   StrFormat("%.2f GB/s", scalar),
                   available ? StrFormat("%.2f GB/s (%s)", simd,
                                         SimdLevelName(ActiveSimdLevel()))
                             : "n/a (no SIMD on host)",
                   StrFormat("%.2fx", ratio)});
    record->AddRow(StrFormat("simd_unpack_b%d", b))
        .Set("scalar_gbps", scalar)
        .Set("simd_gbps", simd)
        .Set("speedup", ratio)
        .Set("simd_available", available ? 1 : 0);
    record->Gate(StrFormat("simd_speedup_b%d", b), available ? ratio : 1.0);
  }
}

// --- Experiments 1 & 2: query bake-off --------------------------------------

struct RunMeasurement {
  double p20 = 0.0;
  double avg_ms = 0.0;
  vec::ExecStats stats;  // summed over the timed batch (DBMS runs only)
  uint64_t matches = 0;
};

template <typename SearchFn>
RunMeasurement MeasureRun(const std::vector<ir::Query>& eval_queries,
                          const std::vector<ir::Query>& timed_queries,
                          const ir::Qrels& qrels, SearchFn&& run,
                          bool scored) {
  RunMeasurement m;
  std::vector<double> p20s;
  if (scored) {
    for (const auto& q : eval_queries) {
      std::vector<int32_t> docids;
      double secs = 0.0;
      vec::ExecStats stats;
      uint64_t matches = 0;
      run(q, &docids, &secs, &stats, &matches);
      p20s.push_back(ir::PrecisionAtK(docids, 20, qrels, q.topic));
    }
    m.p20 = ir::Mean(p20s);
  }
  // Warm pass (everything is memory-resident, so one pass settles caches
  // and the index's lazily-touched pages), then three timed passes keeping
  // the fastest: min-of-N filters scheduler and frequency noise on a
  // shared host, and every system row gets the same treatment. Stats and
  // match counts are deterministic across passes, so they are folded from
  // the first timed pass only.
  std::vector<int32_t> docids;
  for (const auto& q : timed_queries) {
    double secs = 0.0;
    vec::ExecStats stats;
    uint64_t matches = 0;
    run(q, &docids, &secs, &stats, &matches);
  }
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    double total = 0.0;
    for (const auto& q : timed_queries) {
      double secs = 0.0;
      vec::ExecStats stats;
      uint64_t matches = 0;
      run(q, &docids, &secs, &stats, &matches);
      total += secs;
      if (pass == 0) {
        m.stats += stats;
        m.matches += matches;
      }
    }
    if (pass == 0 || total < best) best = total;
  }
  m.avg_ms = best * 1e3 / static_cast<double>(timed_queries.size());
  return m;
}

// Head-to-head variant for the gate comparison: the two contenders run
// interleaved, query by query, over three timed passes (fastest pass per
// contender wins). Rows measured minutes apart are hostage to frequency
// and scheduler drift on a busy host; pairing the runs makes the reported
// ratio reflect the engines, not the weather.
template <typename FnA, typename FnB>
void MeasureRunPaired(const std::vector<ir::Query>& eval_queries,
                      const std::vector<ir::Query>& timed_queries,
                      const ir::Qrels& qrels, FnA&& run_a, FnB&& run_b,
                      RunMeasurement* out_a, RunMeasurement* out_b) {
  const auto eval_pass = [&](auto&& run) {
    std::vector<double> p20s;
    for (const auto& q : eval_queries) {
      std::vector<int32_t> docids;
      double secs = 0.0;
      vec::ExecStats stats;
      uint64_t matches = 0;
      run(q, &docids, &secs, &stats, &matches);
      p20s.push_back(ir::PrecisionAtK(docids, 20, qrels, q.topic));
    }
    return ir::Mean(p20s);
  };
  out_a->p20 = eval_pass(run_a);
  out_b->p20 = eval_pass(run_b);
  std::vector<int32_t> docids;
  const auto timed = [&](auto&& run, RunMeasurement* out) {
    return [&run, &docids, &timed_queries, out](size_t i, int pass) {
      double secs = 0.0;
      vec::ExecStats stats;
      uint64_t matches = 0;
      run(timed_queries[i], &docids, &secs, &stats, &matches);
      if (pass == 0) {
        out->stats += stats;
        out->matches += matches;
      }
      return secs;
    };
  };
  const bench::PairedPasses best =
      bench::TimePairedPasses(timed_queries.size(), /*passes=*/3,
                              timed(run_a, out_a), timed(run_b, out_b));
  out_a->avg_ms = best.a * 1e3 / static_cast<double>(timed_queries.size());
  out_b->avg_ms = best.b * 1e3 / static_cast<double>(timed_queries.size());
}

int Run() {
  std::printf(
      "=== Table 1 context: custom IR engines vs the DBMS formulation "
      "===\n\n");
  core::Database db;
  bench::CheckOk(bench::OpenBenchDatabase(&db), "open database");
  bench::Record record(
      "table1_systems",
      "Table 1 bake-off: custom IR engines vs the vectorized DBMS, the "
      "streaming conjunctive join with its window counters, and "
      "SIMD-vs-scalar LOOP1 unpack. ms are hot avg per query. The "
      "dbms_bm25_maxscore row is the Block-Max MaxScore hot path: "
      "windows_blockmax_skipped counts 128-posting windows pruned without "
      "decoding by their score bound (the smaller of the (max_tf, "
      "min_doclen) pair bound and the window's exact stored maximum, "
      "against the other terms' ubs, minus those of essential terms with no "
      "posting in the window), windows_decoded_per_query and "
      "candidates_per_query (num_matches) what the survivors cost, "
      "fused_windows counts windows scored by the fused decode-to-score "
      "kernel (DESIGN.md 12).");

  ir::QueryGenOptions qopts = bench::BenchQueryOptions();
  ir::QueryGenerator gen(db.corpus(), qopts);
  ir::Qrels qrels(db.corpus());
  const auto eval_queries = gen.EvalQueries();
  const auto queries = gen.EfficiencyQueries();
  // Conjunctive experiment: multi-term queries only (a 1-term AND is a
  // scan; skipping needs something to intersect against).
  std::vector<ir::Query> conj_queries;
  for (const auto& q : queries) {
    if (q.terms.size() >= 2) conj_queries.push_back(q);
  }

  ir::CustomIrEngine custom;
  bench::CheckOk(custom.Load(db.index()), "load custom engine");
  std::printf(
      "custom engine resident set: %s (raw uncompressed postings)\n\n",
      HumanBytes(custom.resident_bytes()).c_str());

  // ---- Experiment 1: ranked runs ----
  TablePrinter ranked({"system", "p@20", "hot avg ms/query", "notes"});
  auto add_custom = [&](const char* name, const char* jname, auto method,
                        const char* note) {
    const RunMeasurement m = MeasureRun(
        eval_queries, queries, qrels,
        [&](const ir::Query& q, std::vector<int32_t>* docids, double* secs,
            vec::ExecStats* stats, uint64_t* matches) {
          (void)stats;
          ir::CustomSearchResult r;
          bench::CheckOk((custom.*method)(q, 20, &r), "custom search");
          *docids = std::move(r.docids);
          *secs = r.cpu_seconds;
          *matches = r.num_matches;
        },
        /*scored=*/true);
    ranked.AddRow({name, StrFormat("%.4f", m.p20),
                   StrFormat("%.3f", m.avg_ms), note});
    record.AddRow(jname).Set("p20", m.p20).Set("avg_ms", m.avg_ms);
    return m;
  };
  const RunMeasurement daat =
      add_custom("Custom IR engine (DAAT)", "custom_daat",
                 &ir::CustomIrEngine::SearchDaat,
                 "hand-rolled, raw in-RAM postings");
  add_custom("Custom IR engine (TAAT)", "custom_taat",
             &ir::CustomIrEngine::SearchTaat, "accumulator array per query");
  auto run_dbms = [&](ir::RunType type, const ir::SearchOptions& opts) {
    return [&, type, opts](const ir::Query& q, std::vector<int32_t>* docids,
                           double* secs, vec::ExecStats* stats,
                           uint64_t* matches) {
      ir::SearchResult r;
      bench::CheckOk(db.Search(q, type, opts, &r), "dbms search");
      *docids = std::move(r.docids);
      *secs = r.seconds;
      *stats = r.stats;
      *matches = r.num_matches;
    };
  };

  ir::SearchOptions union_opts;
  union_opts.maxscore_bm25 = false;
  ir::SearchOptions stream_opts;  // defaults: Block-Max MaxScore

  // The gate pair — the hand-rolled MaxScore baseline and the DBMS
  // Block-Max MaxScore formulation — is measured head-to-head so the
  // dbms_vs_custom_maxscore_ratio gate compares like conditions. The
  // dispatch level is captured NOW: experiment 3 toggles SIMD for its
  // scalar/SIMD sweep and leaves it enabled, which must not launder a
  // scalar ranked run into a gated one.
  const bool ranked_on_avx2 = compress::internal::ActiveSimdLevel() ==
                              compress::internal::SimdLevel::kAvx2;
  RunMeasurement custom_ms;
  RunMeasurement bm25_ms;
  MeasureRunPaired(
      eval_queries, queries, qrels,
      [&](const ir::Query& q, std::vector<int32_t>* docids, double* secs,
          vec::ExecStats* stats, uint64_t* matches) {
        (void)stats;
        ir::CustomSearchResult r;
        bench::CheckOk(custom.SearchMaxScore(q, 20, &r), "custom search");
        *docids = std::move(r.docids);
        *secs = r.cpu_seconds;
        *matches = r.num_matches;
      },
      run_dbms(ir::RunType::kBm25, stream_opts), &custom_ms, &bm25_ms);
  ranked.AddRow({"Custom IR engine (MaxScore)", StrFormat("%.4f", custom_ms.p20),
                 StrFormat("%.3f", custom_ms.avg_ms),
                 "DAAT + exact top-k pruning"});
  record.AddRow("custom_maxscore")
      .Set("p20", custom_ms.p20)
      .Set("avg_ms", custom_ms.avg_ms);

  const RunMeasurement bm25_pr3 = MeasureRun(
      eval_queries, queries, qrels, run_dbms(ir::RunType::kBm25, union_opts),
      /*scored=*/true);
  ranked.AddRow({"DBMS BM25 (PR 3: score-all union)",
                 StrFormat("%.4f", bm25_pr3.p20),
                 StrFormat("%.3f", bm25_pr3.avg_ms),
                 "relational plans, no pruning"});
  record.AddRow("dbms_bm25_union")
      .Set("p20", bm25_pr3.p20)
      .Set("avg_ms", bm25_pr3.avg_ms);
  ranked.AddRow({"DBMS BM25 (Block-Max MaxScore)",
                 StrFormat("%.4f", bm25_ms.p20),
                 StrFormat("%.3f", bm25_ms.avg_ms),
                 StrFormat("%llu blockmax-skipped, %llu fused wins",
                           static_cast<unsigned long long>(
                               bm25_ms.stats.windows_blockmax_skipped),
                           static_cast<unsigned long long>(
                               bm25_ms.stats.fused_windows))});
  record.AddRow("dbms_bm25_maxscore")
      .Set("p20", bm25_ms.p20)
      .Set("avg_ms", bm25_ms.avg_ms)
      .Set("vectors_pruned", bm25_ms.stats.vectors_pruned)
      .Set("docs_probed", bm25_ms.stats.docs_probed)
      .Set("windows_blockmax_skipped", bm25_ms.stats.windows_blockmax_skipped)
      .Set("fused_windows", bm25_ms.stats.fused_windows)
      .Set("windows_decoded_per_query",
           static_cast<double>(bm25_ms.stats.windows_decoded) /
               static_cast<double>(queries.size()))
      .Set("candidates_per_query", static_cast<double>(bm25_ms.matches) /
                                       static_cast<double>(queries.size()));
  ranked.Print();
  // Block-Max skips must never change what the user sees: p@20 of the
  // Block-Max run has to match the score-all union oracle exactly.
  if (bm25_ms.p20 != bm25_pr3.p20) {
    std::fprintf(stderr, "FATAL Block-Max p@20 drifted: %.6f vs %.6f\n",
                 bm25_ms.p20, bm25_pr3.p20);
    return 1;
  }

  // ---- Experiment 2: conjunctive streaming skip join ----
  std::printf("\n--- Conjunctive (BoolAND) queries: %zu multi-term ---\n",
              conj_queries.size());
  // Full-scale correctness: every query's match count and first k docids
  // equal std::set_intersection over the fully decoded posting lists.
  for (const auto& q : conj_queries) {
    std::vector<int32_t> expect;
    for (size_t i = 0; i < q.terms.size(); ++i) {
      std::vector<int32_t> postings;
      bench::CheckOk(db.index()->DecodePostings(q.terms[i], &postings,
                                                nullptr),
                     "decode postings");
      if (i == 0) {
        expect = std::move(postings);
        continue;
      }
      std::vector<int32_t> both;
      std::set_intersection(expect.begin(), expect.end(), postings.begin(),
                            postings.end(), std::back_inserter(both));
      expect = std::move(both);
    }
    ir::SearchResult r;
    bench::CheckOk(db.Search(q, ir::RunType::kBoolAnd, stream_opts, &r),
                   "dbms search");
    const size_t k = std::min<size_t>(stream_opts.k, expect.size());
    if (r.num_matches != expect.size() ||
        r.docids != std::vector<int32_t>(expect.begin(),
                                         expect.begin() + k)) {
      std::fprintf(stderr,
                   "FATAL streaming AND disagrees with set_intersection: "
                   "%llu vs %zu matches\n",
                   static_cast<unsigned long long>(r.num_matches),
                   expect.size());
      return 1;
    }
  }
  const RunMeasurement and_stream = MeasureRun(
      eval_queries, conj_queries, qrels,
      run_dbms(ir::RunType::kBoolAnd, stream_opts), /*scored=*/false);
  TablePrinter conj({"conjunctive path", "hot avg ms/query",
                     "docid windows decoded", "windows skipped"});
  conj.AddRow({"streaming skip join",
               StrFormat("%.3f", and_stream.avg_ms),
               StrFormat("%llu", static_cast<unsigned long long>(
                                     and_stream.stats.windows_decoded)),
               StrFormat("%llu", static_cast<unsigned long long>(
                                     and_stream.stats.windows_skipped))});
  conj.Print();
  record.AddRow("conjunctive")
      .Set("streaming_avg_ms", and_stream.avg_ms)
      .Set("windows_decoded", and_stream.stats.windows_decoded)
      .Set("windows_skipped", and_stream.stats.windows_skipped);

  // ---- Experiment 3: SIMD unpack ----
  std::printf("\n--- LOOP1 unpack: SIMD shuffle vs scalar ---\n");
  TablePrinter simd({"kernel", "scalar", "simd", "speedup"});
  RunSimdUnpackExperiment(&simd, &record);
  simd.Print();

  // ---- Gates (bounds in bench/gates.txt) ----
  std::printf("\n");
  record.Gate("bm25_vs_daat_ratio", bm25_ms.avg_ms / daat.avg_ms);
  record.Gate("and_skipped_windows", and_stream.stats.windows_skipped);
  record.Gate("bm25_vectors_pruned", bm25_ms.stats.vectors_pruned);
  // Block-Max skipping must actually fire over the efficiency batch (the
  // query log is 25% single- and 40% two-term, where the static other-term
  // bound leaves θ room to clear per-window bounds), and the DBMS
  // Block-Max MaxScore run must stay within 1.1x of the hand-rolled
  // custom MaxScore engine (the Table 1 claim; 0.98-1.01x measured at
  // default scale on a shared 4-core AVX2 host).
  record.Gate("bm25_blockmax_skipped", bm25_ms.stats.windows_blockmax_skipped);
  record.Gate("bm25_fused_windows", bm25_ms.stats.fused_windows);
  record.Gate("dbms_vs_custom_maxscore_ratio",
              bm25_ms.avg_ms / custom_ms.avg_ms);
  // Self-disabling escape hatch (the speedup_gated pattern): the 1.1x
  // ratio claim rides on the AVX2 fused/select kernels AND on full-scale
  // lists long enough to amortize the DBMS's per-query setup — a scalar
  // host or the tiny CI collection reports the ratio but is not held to
  // it. Block-Max skips need full scale too (θ never clears a window
  // bound over 2k-doc lists).
  const bool ratio_gated =
      ranked_on_avx2 && bench::Scale() != bench::BenchScale::kTiny;
  record.Gate("maxscore_ratio_gated", ratio_gated ? 1 : 0);

  std::printf(
      "\nPaper's Table 1 — top TREC-TB 2005 efficiency results (reference "
      "only; different hardware/collection):\n"
      "  MU05TBy3     p@20 0.5550   8 CPUs   24 ms/query\n"
      "  uwmtEwteD10  p@20 0.3900   2 CPUs   27 ms/query\n"
      "  MU05TBy1     p@20 0.5620   8 CPUs   42 ms/query\n"
      "  zetdist      p@20 0.5300   8 CPUs   58 ms/query\n"
      "  pisaEff4     p@20 0.3420  23 CPUs  143 ms/query\n"
      "\nThe paper's MonetDB/X100 runs reach p@20 0.546-0.549 at 28-118 "
      "ms/query on 1 CPU (Table 2) — competitive with the custom engines "
      "above. The reproduction's claim is the same comparison on the "
      "synthetic collection: the DBMS's best run within a small factor of "
      "the hand-rolled engines at equal precision.\n");
  return record.Finish();
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
