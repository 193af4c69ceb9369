// Concurrent query service bench (DESIGN.md §9): a scaling sweep over the
// shared bench collection — QPS and p50/p99 latency vs worker count, for a
// CPU-bound in-memory workload (kBm25 MaxScore) and a buffer-pool workload
// (warm kBm25TCMQ8, exercising the lock-striped pool). The headline gate
// (>= 3x QPS from 1 -> 8 workers, bench/gates.txt) is hardware-gated: it
// only applies when the host actually has >= 8 cores ("GATE cores"
// reports what the run saw).
//
// The service's fault contract (every outcome classified, OK results
// bit-identical to a fault-free oracle) is a unit test:
// ServerTest.FaultSoakEveryOutcomeClassifiedAndOkBitIdentical.
//
// Absolute QPS is runner-dependent and recorded (stdout +
// X100IR_BENCH_JSON), never gated; the gated numbers are counters and
// ratios.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"
#include "server/query_service.h"

namespace x100ir {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SweepRow {
  uint32_t threads = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t errors = 0;
};

// Pushes `num_queries` requests through a fresh service with `threads`
// workers, with submit-side backpressure (a shed request is re-submitted,
// so every query runs and the measured QPS is the service's, not the
// submit loop's).
SweepRow MeasureWorkload(const core::Database& db,
                         const std::vector<ir::Query>& queries,
                         ir::RunType run, uint32_t threads,
                         uint32_t num_queries) {
  server::QueryServiceOptions sopts;
  sopts.num_threads = threads;
  sopts.max_pending = 4 * threads + 8;  // keep workers fed, queue shallow
  server::QueryService service;
  bench::CheckOk(service.Start(&db, sopts), "start service");

  std::vector<double> lat(num_queries, 0.0);
  std::atomic<uint64_t> errors{0};
  const Clock::time_point t0 = Clock::now();
  for (uint32_t i = 0; i < num_queries; ++i) {
    server::QueryRequest req;
    req.query = queries[i % queries.size()];
    req.run = run;
    const Clock::time_point qstart = Clock::now();
    for (;;) {
      Status admitted =
          service.Submit(req, [&lat, &errors, i, qstart](
                                  server::QueryResponse resp) {
            lat[i] = SecondsSince(qstart);
            if (!resp.status.ok()) errors.fetch_add(1);
          });
      if (admitted.ok()) break;
      if (admitted.code() != StatusCode::kResourceExhausted) {
        errors.fetch_add(1);
        break;
      }
      std::this_thread::yield();
    }
  }
  service.Drain();
  const double wall = SecondsSince(t0);
  service.Stop();

  SweepRow row;
  row.threads = threads;
  row.qps = static_cast<double>(num_queries) / wall;
  row.p50_ms = bench::Percentile(lat, 0.50) * 1e3;
  row.p99_ms = bench::Percentile(lat, 0.99) * 1e3;
  row.errors = errors.load();
  return row;
}

int Run() {
  std::printf("=== Concurrent query service: scaling sweep ===\n\n");

  const uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t sweep_queries =
      bench::Scale() == bench::BenchScale::kTiny ? 400 : 2000;

  // Thread counts 1 -> 2x cores (doubling), capped at 16.
  std::vector<uint32_t> counts;
  for (uint32_t t = 1; t <= std::min(2 * cores, 16u); t *= 2) {
    counts.push_back(t);
  }

  // Shared bench index; 8 pool stripes so the pool is never the
  // scalability bottleneck under the sweep's worker counts.
  core::DatabaseOptions dopts;
  dopts.dir = bench::BenchDir() + "/full";
  dopts.corpus = bench::BenchCorpusOptions();
  dopts.storage = bench::BenchStorageOptions();
  dopts.storage.shards = 8;
  core::Database db;
  bench::CheckOk(db.Open(dopts), "open database");

  ir::QueryGenOptions qopts = bench::BenchQueryOptions();
  qopts.num_efficiency_queries = std::min(qopts.num_efficiency_queries, 200u);
  ir::QueryGenerator gen(db.corpus(), qopts);
  const std::vector<ir::Query> queries = gen.EfficiencyQueries();

  // Warm the pool once so the storage sweep measures the striped pool's
  // hit path, not first-touch disk charges.
  {
    ir::SearchOptions sopts;
    ir::SearchResult result;
    for (const auto& q : queries) {
      bench::CheckOk(db.Search(q, ir::RunType::kBm25TCMQ8, sopts, &result),
                     "warmup");
    }
  }

  std::printf("-- scaling sweep (%u queries per point, %u cores) --\n",
              sweep_queries, cores);
  TablePrinter sweep_table({"workload", "threads", "QPS", "p50 (ms)",
                            "p99 (ms)", "errors"});
  std::vector<SweepRow> cpu_rows, pool_rows;
  uint64_t sweep_errors = 0;
  for (uint32_t t : counts) {
    SweepRow row =
        MeasureWorkload(db, queries, ir::RunType::kBm25, t, sweep_queries);
    sweep_table.AddRow({"bm25 (in-memory)", StrFormat("%u", t),
                        StrFormat("%.0f", row.qps),
                        StrFormat("%.3f", row.p50_ms),
                        StrFormat("%.3f", row.p99_ms),
                        StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      row.errors))});
    sweep_errors += row.errors;
    cpu_rows.push_back(row);
  }
  for (uint32_t t : counts) {
    SweepRow row = MeasureWorkload(db, queries, ir::RunType::kBm25TCMQ8, t,
                                   sweep_queries);
    sweep_table.AddRow({"bm25tcmq8 (warm pool)", StrFormat("%u", t),
                        StrFormat("%.0f", row.qps),
                        StrFormat("%.3f", row.p50_ms),
                        StrFormat("%.3f", row.p99_ms),
                        StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      row.errors))});
    sweep_errors += row.errors;
    pool_rows.push_back(row);
  }
  sweep_table.Print();

  double scale_8t = 0.0;
  for (const SweepRow& row : cpu_rows) {
    if (row.threads == 8) scale_8t = row.qps / cpu_rows[0].qps;
  }
  double scale_best = 0.0;
  for (const SweepRow& row : cpu_rows) {
    scale_best = std::max(scale_best, row.qps / cpu_rows[0].qps);
  }
  std::printf(
      "shape: the read path is shared-nothing per query (immutable index, "
      "striped pool), so QPS should track workers until cores saturate.\n\n");

  // -- Gates (bounds in bench/gates.txt) ---------------------------------
  // scale_gated flags whether the 3x gate applies on this host (it needs
  // >= 8 real cores and the 8-worker sweep point).
  bench::Record record(
      "concurrency",
      "Concurrent query service: QPS/p50/p99 vs worker count (in-memory "
      "BM25 and warm-pool BM25TCMQ8). Absolute QPS is host-dependent; the "
      "gated values are the error count and the 1->8 worker QPS ratio.");
  const auto add_rows = [&record](const char* name,
                                  const std::vector<SweepRow>& rows) {
    for (const SweepRow& r : rows) {
      record.AddRow(StrFormat("%s_%ut", name, r.threads))
          .Set("threads", r.threads)
          .Set("qps", r.qps)
          .Set("p50_ms", r.p50_ms)
          .Set("p99_ms", r.p99_ms);
    }
  };
  add_rows("bm25_inmemory", cpu_rows);
  add_rows("bm25tcmq8_warm_pool", pool_rows);
  record.Gate("cores", cores);
  record.Gate("scale_gated", cores >= 8 && scale_8t > 0.0 ? 1 : 0);
  record.Gate("qps_scale_8t", scale_8t);
  record.Gate("qps_scale_best", scale_best);
  record.Gate("sweep_errors", sweep_errors);
  return record.Finish();
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
