// Reproduces Table 3: "Performance of the distributed runs".
//
//   - Full run, hot data: sequential (full collection, one engine) vs 8
//     servers (1/8 of the collection each).
//   - "Using less servers (1 stream, fixed partition size)": clusters of
//     1/2/4/8 nodes where every node always holds 1/8 of the collection —
//     latency *grows* with more servers because it is gated by the slowest
//     of N samples (load imbalance).
//   - "Increasing the concurrency (8 servers)": 1/2/4/8 closed-loop query
//     streams — per-query latency deteriorates sub-linearly while amortized
//     time (throughput) keeps improving.
//   - Shared-θ vs independent top-k-then-merge: deterministic sequential
//     scatter over the same batch in both modes; the gated counters show
//     the global-threshold channel generating strictly fewer candidates,
//     and sequential shared-θ scatter scoring about as many candidates as
//     one engine over the whole collection.
//
// Substitutions (DESIGN.md §11.5): nodes are threads with private buffer
// managers; the heterogeneous-LAN load imbalance is modeled by per-node
// service-time stretch factors (max/min = 2, the spread the paper reports).
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "dist/cluster.h"
#include "ir/search_engine.h"

namespace x100ir {
namespace {

constexpr uint32_t kTotalPartitions = 8;
constexpr ir::RunType kRunType = ir::RunType::kBm25TCMQ8;
// Service times rescaled to the paper's millisecond regime so queueing,
// not thread-dispatch overhead, dominates the closed-loop experiment.
constexpr double kServiceScale = 30.0;

// Heterogeneity profile: slowest node ~2x the fastest (Table 3: 11 vs 5.5).
const std::vector<double> kSpeedFactors = {1.0,  1.05, 1.12, 1.2,
                                           1.32, 1.45, 1.7,  2.0};

struct StreamRow {
  uint32_t streams = 0;
  double latency_ms = 0.0;
  double amortized_ms = 0.0;
};

int Run() {
  std::printf("=== Table 3: performance of the distributed runs ===\n\n");
  core::Database db;
  bench::CheckOk(bench::OpenBenchDatabase(&db), "open database");

  ir::QueryGenOptions qopts = bench::BenchQueryOptions();
  ir::QueryGenerator gen(db.corpus(), qopts);
  auto queries = gen.EfficiencyQueries();
  if (queries.size() > 600 && !bench::LargeScale()) queries.resize(600);
  std::vector<ir::Query> warm_slice(
      queries.begin(),
      queries.begin() + std::min<size_t>(queries.size(), 200));

  // Nodes are dual-core like the paper's Athlon64 X2 machines. The 8-way
  // partition indexes build on first run and fingerprint-reuse after
  // (every cluster size opens a prefix of the same 8 partitions).
  const std::string cluster_dir = bench::BenchDir() + "/cluster8";
  auto open_cluster = [&](uint32_t servers, dist::Cluster* cluster) {
    dist::ClusterOptions copts;
    copts.num_partitions = servers;
    copts.total_partitions = kTotalPartitions;
    copts.network_ms = 0.15;
    copts.service_scale = kServiceScale;
    copts.cores_per_node = 2;
    copts.speed_factors.assign(kSpeedFactors.begin(),
                               kSpeedFactors.begin() + servers);
    copts.storage = bench::BenchStorageOptions();
    bench::CheckOk(cluster->Open(db.corpus(), cluster_dir, copts),
                   "open cluster");
  };

  // --- Full run, hot data: sequential vs 8 servers. --------------------
  // This section uses a heavier workload than the rest of the bench
  // (BM25 on-the-fly scoring, k=100, queries with >=3 terms): the paper's
  // hot full run is in the tens-of-milliseconds regime where per-document
  // work dominates, and at small k / short queries our per-query fixed
  // overhead (plan setup, context allocation) does not shrink 8-way.
  std::vector<ir::Query> heavy;
  for (const auto& q : queries) {
    if (q.terms.size() >= 3) heavy.push_back(q);
  }
  if (heavy.size() > 240) heavy.resize(240);
  if (heavy.size() < 20) heavy = queries;  // tiny vocabularies: short queries
  constexpr ir::RunType kHotRunType = ir::RunType::kBm25;
  constexpr uint32_t kHotK = 100;

  TablePrinter full_table({"config", "avg query time (ms)",
                           "amortized (ms)", "node min (ms)",
                           "node avg (ms)", "node max (ms)"});
  // Sequential: one engine over the full collection. Modeled slowest-of-N
  // latency, free of single-host contention: scatter sequentially on an
  // unstretched cluster (so each shard's measured time is a clean solo
  // run), then charge every shard its heterogeneity factor and take the
  // max — exactly what an 8-machine LAN would gate on. The measured
  // closed-loop row below shares one host's cores across all 8 "nodes", so
  // its shard times include co-scheduling interference that real separate
  // machines would not see. dist_speedup8 divides the two, so they are
  // timed as a pair (bench::TimePairedPasses): query by query, three passes
  // after a shared warm pass, the fastest pass per side.
  double sequential_ms = 0.0;
  double modeled8_ms = 0.0;
  {
    dist::Cluster model;
    dist::ClusterOptions mopts;
    mopts.num_partitions = kTotalPartitions;
    mopts.total_partitions = kTotalPartitions;
    mopts.storage = bench::BenchStorageOptions();
    bench::CheckOk(model.Open(db.corpus(), cluster_dir, mopts),
                   "open model cluster");
    ir::SearchOptions opts;
    opts.k = kHotK;
    dist::DistSearchOptions dopts;
    dopts.sequential = true;
    dopts.search.k = kHotK;
    constexpr int kPasses = 3;
    std::vector<double> modeled_node_ms(kTotalPartitions, 0.0);
    ir::SearchResult result;
    dist::DistResult r;
    const bench::PairedPasses best = bench::TimePairedPasses(
        heavy.size(), kPasses,
        [&](size_t i, int) {
          bench::CheckOk(db.Search(heavy[i], kHotRunType, opts, &result),
                         "search");
          // Same x30 service scaling as the cluster nodes, for
          // comparability.
          return kServiceScale * result.TotalSeconds() * 1e3;
        },
        [&](size_t i, int pass) {
          bench::CheckOk(model.Search(heavy[i], kHotRunType, dopts, &r),
                         "model");
          double slowest = 0.0;
          for (uint32_t n = 0; n < kTotalPartitions; ++n) {
            const double node_ms =
                kServiceScale * r.shard_service_ms[n] * kSpeedFactors[n];
            if (pass >= 0) modeled_node_ms[n] += node_ms;
            slowest = std::max(slowest, node_ms);
          }
          return slowest + 0.15;  // + one network round-trip
        });
    const double queries_run = static_cast<double>(heavy.size());
    sequential_ms = best.a / queries_run;
    modeled8_ms = best.b / queries_run;
    // The node columns average every timed pass.
    for (double& v : modeled_node_ms) v /= kPasses * queries_run;
    full_table.AddRow({"Sequential (full collection)",
                       StrFormat("%.3f", sequential_ms), "-", "-", "-", "-"});
    full_table.AddRow(
        {"8 servers (modeled slowest-of-N)", StrFormat("%.3f", modeled8_ms),
         "-",
         StrFormat("%.3f", *std::min_element(modeled_node_ms.begin(),
                                             modeled_node_ms.end())),
         StrFormat("%.3f", std::accumulate(modeled_node_ms.begin(),
                                           modeled_node_ms.end(), 0.0) /
                               kTotalPartitions),
         StrFormat("%.3f", *std::max_element(modeled_node_ms.begin(),
                                             modeled_node_ms.end()))});
  }

  dist::StreamRunStats eight_one_stream;
  {
    dist::Cluster cluster;
    open_cluster(8, &cluster);
    bench::CheckOk(cluster.WarmUp(heavy, kHotRunType, kHotK), "warmup");
    bench::CheckOk(cluster.RunStreams(heavy, kHotRunType, kHotK, 1,
                                      /*share_theta=*/false,
                                      &eight_one_stream),
                   "streams");
    full_table.AddRow(
        {"8 servers (measured, shared host)",
         StrFormat("%.3f", eight_one_stream.query_latency_ms.Mean()),
         StrFormat("%.3f", eight_one_stream.AmortizedMs()),
         StrFormat("%.3f", eight_one_stream.MinNodeMs()),
         StrFormat("%.3f", eight_one_stream.AvgNodeMs()),
         StrFormat("%.3f", eight_one_stream.MaxNodeMs())});
  }
  std::printf("-- Full run (hot data: BM25, k=%u, >=3-term queries) --\n",
              kHotK);
  full_table.Print();
  const double hot_latency_ms = eight_one_stream.query_latency_ms.Mean();
  const double dist_speedup8 = sequential_ms / std::max(1e-9, modeled8_ms);
  uint64_t stream_errors = eight_one_stream.errors;

  // --- Using fewer servers, fixed partition size. -----------------------
  std::printf("\n-- Using less servers (1 stream, fixed partition size) --\n");
  TablePrinter servers_table({"servers", "avg query time (ms)",
                              "node min (ms)", "node avg (ms)",
                              "node max (ms)"});
  std::vector<std::pair<uint32_t, double>> server_latency;
  for (uint32_t servers : {8u, 4u, 2u, 1u}) {
    dist::Cluster cluster;
    open_cluster(servers, &cluster);
    bench::CheckOk(cluster.WarmUp(warm_slice, kRunType, 20), "warmup");
    dist::StreamRunStats stats;
    bench::CheckOk(cluster.RunStreams(queries, kRunType, 20, 1,
                                      /*share_theta=*/false, &stats),
                   "streams");
    stream_errors += stats.errors;
    server_latency.emplace_back(servers, stats.query_latency_ms.Mean());
    servers_table.AddRow({StrFormat("%u", servers),
                          StrFormat("%.3f", stats.query_latency_ms.Mean()),
                          StrFormat("%.3f", stats.MinNodeMs()),
                          StrFormat("%.3f", stats.AvgNodeMs()),
                          StrFormat("%.3f", stats.MaxNodeMs())});
  }
  servers_table.Print();
  // slowest-of-N: the 8-server cluster includes the 2.0x node, the
  // 1-server cluster only the 1.0x node — same partition size each.
  const double fixed_partition_ratio =
      server_latency.front().second /
      std::max(1e-9, server_latency.back().second);

  // --- Increasing the concurrency (8 servers). --------------------------
  std::printf("\n-- Increasing the concurrency (8 servers) --\n");
  TablePrinter streams_table({"streams", "avg latency (ms)",
                              "amortized (ms)", "node min (ms)",
                              "node avg (ms)", "node max (ms)"});
  std::vector<StreamRow> stream_rows;
  {
    dist::Cluster cluster;
    open_cluster(8, &cluster);
    bench::CheckOk(cluster.WarmUp(warm_slice, kRunType, 20), "warmup");
    for (uint32_t streams : {1u, 2u, 4u, 8u}) {
      dist::StreamRunStats stats;
      bench::CheckOk(cluster.RunStreams(queries, kRunType, 20, streams,
                                        /*share_theta=*/false, &stats),
                     "streams");
      stream_errors += stats.errors;
      streams_table.AddRow({StrFormat("%u", streams),
                            StrFormat("%.3f", stats.query_latency_ms.Mean()),
                            StrFormat("%.3f", stats.AmortizedMs()),
                            StrFormat("%.3f", stats.MinNodeMs()),
                            StrFormat("%.3f", stats.AvgNodeMs()),
                            StrFormat("%.3f", stats.MaxNodeMs())});
      stream_rows.push_back({streams, stats.query_latency_ms.Mean(),
                             stats.AmortizedMs()});
    }
  }
  streams_table.Print();
  const double amortized_gain =
      stream_rows.front().amortized_ms /
      std::max(1e-9, stream_rows.back().amortized_ms);
  const double latency_blowup =
      stream_rows.back().latency_ms /
      std::max(1e-9, stream_rows.front().latency_ms);

  // --- Shared-θ vs independent merge (deterministic, unstretched). ------
  // kBm25 MaxScore over the same 8-way split, sequential scatter so shard
  // i always seeds from the k-th best of shards 0..i-1 merged: the
  // candidate counts are exact counters, not a race. Results merge
  // identically in both modes (dist_test proves it rank-by-rank); what
  // changes is work. The monolithic engine over the same queries is the
  // yardstick: a shard seeded with the merged bound prunes where one
  // engine would, so shared-θ scatter does about one engine's work.
  std::printf("\n-- Shared-theta pruning vs independent top-k merge --\n");
  uint64_t theta_indep_candidates = 0, theta_shared_candidates = 0;
  uint64_t theta_indep_pruned = 0, theta_shared_pruned = 0;
  uint64_t theta_mono_candidates = 0;
  {
    ir::SearchResult r;
    for (const auto& q : queries) {
      bench::CheckOk(db.Search(q, ir::RunType::kBm25, ir::SearchOptions(), &r),
                     "theta monolith search");
      theta_mono_candidates += r.num_matches;
    }
  }
  const auto theta_candidate_ratio = [&] {
    return static_cast<double>(theta_shared_candidates) /
           static_cast<double>(std::max<uint64_t>(1, theta_mono_candidates));
  };
  {
    dist::Cluster cluster;
    dist::ClusterOptions copts;
    copts.num_partitions = kTotalPartitions;
    copts.total_partitions = kTotalPartitions;
    copts.storage = bench::BenchStorageOptions();
    bench::CheckOk(cluster.Open(db.corpus(), cluster_dir, copts),
                   "open theta cluster");
    for (const auto& q : queries) {
      for (bool share : {false, true}) {
        dist::DistSearchOptions dopts;
        dopts.sequential = true;
        dopts.share_theta = share;
        dist::DistResult r;
        bench::CheckOk(cluster.Search(q, ir::RunType::kBm25, dopts, &r),
                       "theta search");
        (share ? theta_shared_candidates : theta_indep_candidates) +=
            r.merged.num_matches;
        (share ? theta_shared_pruned : theta_indep_pruned) +=
            r.merged.stats.vectors_pruned;
      }
    }
  }
  std::printf(
      "  candidates scored: independent %llu, shared-theta %llu (-%.1f%%)\n"
      "  one engine over the whole collection: %llu (shared-theta %.3fx)\n"
      "  posting vectors pruned: independent %llu, shared-theta %llu\n",
      static_cast<unsigned long long>(theta_indep_candidates),
      static_cast<unsigned long long>(theta_shared_candidates),
      100.0 * (1.0 - static_cast<double>(theta_shared_candidates) /
                         std::max<uint64_t>(1, theta_indep_candidates)),
      static_cast<unsigned long long>(theta_mono_candidates),
      theta_candidate_ratio(),
      static_cast<unsigned long long>(theta_indep_pruned),
      static_cast<unsigned long long>(theta_shared_pruned));

  std::printf(
      "\nPaper's Table 3 (8-machine LAN, hot data; reference only):\n"
      "  Sequential 23.1ms; 8 servers 11.26ms (node min/avg/max "
      "5.50/6.39/11.00)\n"
      "  servers 4/2/1: 9.21/7.30/7.41ms\n"
      "  streams 1/2/4/8 (amortized): 11.26/4.86/3.64/3.26ms\n");

  std::printf("\nshape checks:\n");
  std::printf("  load imbalance: slowest node %.2fx the fastest (paper: "
              "~2x)\n",
              eight_one_stream.MaxNodeMs() /
                  std::max(1e-9, eight_one_stream.MinNodeMs()));
  std::printf(
      "  concurrency scales throughput: amortized %.3f -> %.3f ms "
      "(%.2fx) while latency %.3f -> %.3f ms (%.2fx, sub-linear)\n",
      stream_rows.front().amortized_ms, stream_rows.back().amortized_ms,
      amortized_gain, stream_rows.front().latency_ms,
      stream_rows.back().latency_ms, latency_blowup);
  std::printf(
      "  note: at bench scale per-query work is microseconds, so fixed "
      "dispatch overheads dominate the latency columns; run with "
      "X100IR_BENCH_SCALE=large for paper-like latency ratios.\n");

  // -- Gates (bounds in bench/gates.txt) ---------------------------------
  // Ratios and counters only; absolute times are host-dependent and
  // recorded, never gated. dist_speedup8 gates the *modeled* slowest-of-N
  // latency (contention-free solo shard runs x heterogeneity factor), not
  // the shared-host closed-loop row. It still self-disables at tiny scale
  // (speedup_gated=0): a 500-doc partition's query is dominated by fixed
  // per-query engine overhead (plan setup, pool lookups) that does not
  // shrink 8-way, so the distributed run cannot beat sequential until
  // partitions are big enough for scalable work to dominate. The paper
  // reports 2.05x for the hot 8-way run; the modeled stand-in lands ~1.6x
  // at default scale because fixed engine overhead is a larger fraction of
  // a microsecond-regime query than of the paper's 50GB-per-node workload
  // (DESIGN.md §11).
  bench::Record record(
      "table3_distributed",
      StrFormat("Table 3, distributed runs over an in-process 8-way "
                "doc-partitioned cluster (threads as nodes, per-node "
                "service-time stretch modeling the paper's heterogeneous "
                "LAN, x%.0f service scaling). Absolute times are "
                "host-dependent; the gated values are the ratios and the "
                "shared-theta counters.",
                kServiceScale));
  record.AddRow("full_run_hot")
      .Set("sequential_ms", sequential_ms)
      .Set("dist8_modeled_ms", modeled8_ms)
      .Set("dist8_measured_ms", hot_latency_ms)
      .Set("dist8_amortized_ms", eight_one_stream.AmortizedMs())
      .Set("node_min_ms", eight_one_stream.MinNodeMs())
      .Set("node_avg_ms", eight_one_stream.AvgNodeMs())
      .Set("node_max_ms", eight_one_stream.MaxNodeMs())
      .Set("speedup", dist_speedup8);
  for (const auto& [servers, latency_ms] : server_latency) {
    record.AddRow(StrFormat("fixed_partition_%u_servers", servers))
        .Set("servers", servers)
        .Set("latency_ms", latency_ms);
  }
  for (const StreamRow& row : stream_rows) {
    record.AddRow(StrFormat("streams_%u", row.streams))
        .Set("streams", row.streams)
        .Set("latency_ms", row.latency_ms)
        .Set("amortized_ms", row.amortized_ms);
  }
  record.AddRow("shared_theta")
      .Set("queries", queries.size())
      .Set("independent_candidates", theta_indep_candidates)
      .Set("shared_candidates", theta_shared_candidates)
      .Set("mono_candidates", theta_mono_candidates)
      .Set("independent_vectors_pruned", theta_indep_pruned)
      .Set("shared_vectors_pruned", theta_shared_pruned);
  record.Gate("speedup_gated",
              bench::Scale() != bench::BenchScale::kTiny ? 1 : 0);
  record.Gate("dist_speedup8", dist_speedup8);
  record.Gate("fixed_partition_ratio", fixed_partition_ratio);
  record.Gate("streams_amortized_gain", amortized_gain);
  record.Gate("streams_latency_blowup", latency_blowup);
  record.Gate("stream_errors", stream_errors);
  record.Gate("theta_indep_candidates", theta_indep_candidates);
  record.Gate("theta_shared_candidates", theta_shared_candidates);
  record.Gate("theta_mono_candidates", theta_mono_candidates);
  record.Gate("theta_shared_vs_mono_candidates", theta_candidate_ratio());
  return record.Finish();
}

}  // namespace
}  // namespace x100ir

int main() { return x100ir::Run(); }
