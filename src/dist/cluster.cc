// Cluster implementation: partition building, the scatter-gather
// coordinator, the per-shard service-time model, and closed-loop stream
// driving. Design notes in cluster.h and DESIGN.md §11.
#include "dist/cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "common/shared_theta.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "ir/gather.h"

namespace x100ir::dist {
namespace {

// Smallest service-model sleep slice: long stretches stay responsive to
// the query deadline without burning a syscall per microsecond.
constexpr double kSleepSliceSeconds = 250e-6;

// Sleeps out `seconds` of simulated service time in deadline-checked
// slices. Returns DeadlineExceeded (or Unavailable after a cancel) if the
// deadline fires mid-sleep: the modeled service did not finish in time,
// so the shard's answer — however real — arrives too late to count.
Status SleepService(double seconds, const Deadline* deadline) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    if (deadline != nullptr) {
      X100IR_RETURN_IF_ERROR(deadline->Check());
    }
    const Clock::time_point now = Clock::now();
    if (now >= end) return OkStatus();
    const double left = std::chrono::duration<double>(end - now).count();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(left, kSleepSliceSeconds)));
  }
}

}  // namespace

double StreamRunStats::MinNodeMs() const {
  double best = 0.0;
  bool first = true;
  for (const Accum& a : node_service_ms) {
    if (first || a.Mean() < best) best = a.Mean();
    first = false;
  }
  return best;
}

double StreamRunStats::AvgNodeMs() const {
  if (node_service_ms.empty()) return 0.0;
  double total = 0.0;
  for (const Accum& a : node_service_ms) total += a.Mean();
  return total / static_cast<double>(node_service_ms.size());
}

double StreamRunStats::MaxNodeMs() const {
  double worst = 0.0;
  for (const Accum& a : node_service_ms) worst = std::max(worst, a.Mean());
  return worst;
}

Cluster::~Cluster() = default;

Status Cluster::Open(const ir::Corpus& corpus, const std::string& dir,
                     const ClusterOptions& opts) {
  open_ = false;
  nodes_.clear();
  stats_ = ir::CollectionStats();
  if (opts.num_partitions == 0) {
    return InvalidArgument("cluster needs at least one partition");
  }
  if (opts.num_partitions > opts.total_partitions) {
    return InvalidArgument("cannot open more nodes than partitions exist");
  }
  if (opts.num_partitions > 32) {
    return InvalidArgument("at most 32 nodes (32-bit fault/straggle masks)");
  }
  if (!opts.speed_factors.empty() &&
      opts.speed_factors.size() != opts.num_partitions) {
    return InvalidArgument("speed_factors must have one entry per node");
  }
  if (corpus.num_docs() < opts.total_partitions) {
    return InvalidArgument("fewer documents than partitions");
  }
  opts_ = opts;

  // Contiguous equal doc ranges: partition p owns global docids
  // [p*D/T, (p+1)*D/T). Contiguity keeps the local->global docid map a
  // single per-node offset and makes boolean merges a concatenation.
  const uint64_t docs = corpus.num_docs();
  const auto part_begin = [&](uint32_t p) -> uint32_t {
    return static_cast<uint32_t>(docs * p / opts.total_partitions);
  };

  // Scoring model over exactly the opened partitions, computed the way
  // Corpus::Finalize computes it (integer totals, one double division) so
  // a full-coverage cluster's stats — and therefore every Bm25Idf and
  // length normalization — are bit-identical to the single engine's
  // build-time values.
  const uint32_t opened_end = part_begin(opts.num_partitions);
  stats_.num_docs = opened_end;
  stats_.df.assign(corpus.vocab_size(), 0);
  uint64_t total_len = 0;
  for (uint32_t d = 0; d < opened_end; ++d) {
    total_len += static_cast<uint64_t>(corpus.doc_len(d));
    for (const ir::DocTerm& p : corpus.doc(d)) ++stats_.df[p.term];
  }
  stats_.avg_doc_len = opened_end == 0
                           ? 0.0
                           : static_cast<double>(total_len) /
                                 static_cast<double>(opened_end);

  // Stand the nodes up in parallel: slicing the corpus is cheap, but each
  // node's index build (first open) is the full encode pipeline.
  nodes_.resize(opts.num_partitions);
  std::vector<Status> status(opts.num_partitions);
  {
    ThreadPool build_pool(std::min<uint32_t>(
        opts.num_partitions,
        std::max(1u, std::thread::hardware_concurrency())));
    std::mutex mu;
    std::condition_variable cv;
    uint32_t pending = opts.num_partitions;
    for (uint32_t p = 0; p < opts.num_partitions; ++p) {
      build_pool.Submit([&, p] {
        auto node = std::make_unique<Node>();
        node->id = p;
        node->base = static_cast<int32_t>(part_begin(p));
        node->speed_factor =
            opts.speed_factors.empty() ? 1.0 : opts.speed_factors[p];
        const uint32_t begin = part_begin(p);
        const uint32_t end = part_begin(p + 1);
        std::vector<std::vector<ir::DocTerm>> slice(end - begin);
        for (uint32_t d = begin; d < end; ++d) {
          slice[d - begin] = corpus.doc(d);
        }
        ir::Corpus part;
        Status s = ir::Corpus::FromDocTerms(std::move(slice),
                                            corpus.vocab_size(), &part);
        if (s.ok()) {
          const std::string node_dir =
              dir.empty() ? std::string() : StrFormat("%s/part%u", dir.c_str(), p);
          s = node->db.OpenWithCorpus(std::move(part), node_dir,
                                      opts.storage);
        }
        if (s.ok()) {
          node->exec =
              std::make_unique<ThreadPool>(std::max(1u, opts.cores_per_node));
        }
        std::lock_guard<std::mutex> lock(mu);
        status[p] = std::move(s);
        nodes_[p] = std::move(node);
        if (--pending == 0) cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }
  for (uint32_t p = 0; p < opts.num_partitions; ++p) {
    if (!status[p].ok()) {
      nodes_.clear();
      return Status(status[p].code(),
                    StrFormat("node %u: %s", p, status[p].message().c_str()));
    }
  }
  open_ = true;
  return OkStatus();
}

void Cluster::RunShard(const Node& node, const ir::Query& query,
                       ir::RunType type, const DistSearchOptions& opts,
                       const Deadline* deadline, SharedTheta* theta,
                       bool stretch, ir::SearchResult* result, Status* status,
                       double* service_ms) const {
  *service_ms = 0.0;
  if ((opts.fault_mask >> node.id) & 1u) {
    *status = IOError(StrFormat("node %u: injected shard fault", node.id));
    return;
  }
  ir::SearchOptions sopts = opts.search;
  sopts.global_stats = &stats_;
  sopts.shared_theta = theta;
  if (deadline != nullptr) sopts.deadline = deadline;

  WallTimer timer;
  Status s = node.db.Search(query, type, sopts, result);
  const double elapsed = timer.ElapsedSeconds();
  double service_s = elapsed;
  if (s.ok() && stretch && opts_.service_scale > 0.0) {
    // The node's simulated service time; the worker sleeps out the
    // difference so the stretch occupies this node's core for real.
    service_s = result->TotalSeconds() * opts_.service_scale *
                node.speed_factor;
    if (service_s > elapsed) {
      s = SleepService(service_s - elapsed, deadline);
    }
  }
  if (s.ok() && ((opts.straggle_mask >> node.id) & 1u) &&
      opts.straggle_ms > 0.0) {
    service_s += opts.straggle_ms * 1e-3;
    s = SleepService(opts.straggle_ms * 1e-3, deadline);
  }
  *status = std::move(s);
  *service_ms = status->ok() ? service_s * 1e3 : 0.0;
}

Status Cluster::Search(const ir::Query& query, ir::RunType type,
                       const DistSearchOptions& opts, DistResult* out) const {
  if (out == nullptr) return InvalidArgument("null dist result");
  if (!open_) return InvalidArgument("cluster is not open");
  *out = DistResult();
  const uint32_t n = num_nodes();
  out->shard_status.resize(n);
  out->shard_service_ms.assign(n, 0.0);

  WallTimer timer;
  // Coordinator-owned per-query resources: the deadline covers scatter
  // through merge, the θ channel lives exactly as long as its query.
  std::unique_ptr<Deadline> deadline;
  if (opts.deadline_seconds > 0.0) {
    deadline = std::make_unique<Deadline>(opts.deadline_seconds);
  }
  const Deadline* dl =
      deadline != nullptr ? deadline.get() : opts.search.deadline;
  SharedTheta theta;
  SharedTheta* theta_ptr = opts.share_theta ? &theta : nullptr;

  std::vector<ir::SearchResult> shard_results(n);
  if (opts.sequential) {
    for (uint32_t i = 0; i < n; ++i) {
      RunShard(*nodes_[i], query, type, opts, dl, theta_ptr,
               /*stretch=*/true, &shard_results[i], &out->shard_status[i],
               &out->shard_service_ms[i]);
    }
  } else {
    std::mutex mu;
    std::condition_variable cv;
    uint32_t pending = n;
    for (uint32_t i = 0; i < n; ++i) {
      nodes_[i]->exec->Submit([&, i] {
        RunShard(*nodes_[i], query, type, opts, dl, theta_ptr,
                 /*stretch=*/true, &shard_results[i], &out->shard_status[i],
                 &out->shard_service_ms[i]);
        std::lock_guard<std::mutex> lock(mu);
        if (--pending == 0) cv.notify_all();
      });
    }
    // Gather waits for every shard — even expired ones return promptly
    // because the deadline is checked inside the engine and the service
    // sleep, so slowest-of-N is bounded by the deadline when one is set.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }

  Status first_error = OkStatus();
  for (uint32_t i = 0; i < n; ++i) {
    if (out->shard_status[i].ok()) {
      ++out->shards_ok;
    } else {
      ++out->shards_failed;
      if (first_error.ok()) first_error = out->shard_status[i];
    }
  }
  if (out->shards_failed > 0 &&
      (!opts.allow_partial || out->shards_ok == 0)) {
    return first_error;
  }
  out->partial = out->shards_failed > 0;

  // Gather in global docid space, shards at their base offsets: shard
  // scores pass through bit-exact, and the merge does not depend on shard
  // completion order.
  ir::Gather gather(type, opts.search.k, &out->merged);
  for (uint32_t i = 0; i < n; ++i) {
    if (!out->shard_status[i].ok()) continue;
    const int32_t base = nodes_[i]->base;
    gather.Add(std::move(shard_results[i]),
               [base](int32_t d) { return base + d; });
  }
  gather.Finish();
  out->merged.seconds = timer.ElapsedSeconds();
  out->latency_ms = out->merged.seconds * 1e3 + opts_.network_ms;
  return OkStatus();
}

Status Cluster::WarmUp(const std::vector<ir::Query>& queries,
                       ir::RunType type, uint32_t k) {
  if (!open_) return InvalidArgument("cluster is not open");
  DistSearchOptions dopts;
  dopts.search.k = k;
  for (const ir::Query& q : queries) {
    const uint32_t n = num_nodes();
    std::vector<ir::SearchResult> results(n);
    std::vector<Status> status(n);
    std::vector<double> service(n, 0.0);
    std::mutex mu;
    std::condition_variable cv;
    uint32_t pending = n;
    for (uint32_t i = 0; i < n; ++i) {
      nodes_[i]->exec->Submit([&, i] {
        RunShard(*nodes_[i], q, type, dopts, nullptr, nullptr,
                 /*stretch=*/false, &results[i], &status[i], &service[i]);
        std::lock_guard<std::mutex> lock(mu);
        if (--pending == 0) cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
    for (uint32_t i = 0; i < n; ++i) {
      X100IR_RETURN_IF_ERROR(status[i]);
    }
  }
  return OkStatus();
}

Status Cluster::RunStreams(const std::vector<ir::Query>& queries,
                           ir::RunType type, uint32_t k, uint32_t streams,
                           bool share_theta, StreamRunStats* out) const {
  if (out == nullptr) return InvalidArgument("null stream stats");
  if (!open_) return InvalidArgument("cluster is not open");
  if (queries.empty()) return InvalidArgument("no queries to stream");
  *out = StreamRunStats();
  out->node_service_ms.resize(num_nodes());
  out->queries = queries.size();

  std::atomic<size_t> next{0};
  std::mutex agg_mu;
  Status first_error;  // guarded by agg_mu
  WallTimer timer;
  std::vector<std::thread> drivers;
  drivers.reserve(std::max(1u, streams));
  for (uint32_t t = 0; t < std::max(1u, streams); ++t) {
    drivers.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries.size()) return;
        DistSearchOptions dopts;
        dopts.search.k = k;
        dopts.share_theta = share_theta;
        DistResult r;
        Status s = Search(queries[i], type, dopts, &r);
        std::lock_guard<std::mutex> lock(agg_mu);
        if (!s.ok()) {
          ++out->errors;
          if (first_error.ok()) first_error = std::move(s);
          continue;
        }
        out->query_latency_ms.Record(r.latency_ms);
        for (uint32_t node = 0; node < num_nodes(); ++node) {
          out->node_service_ms[node].Record(r.shard_service_ms[node]);
        }
        out->exec += r.merged.stats;
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  out->wall_seconds = timer.ElapsedSeconds();
  return first_error;
}

}  // namespace x100ir::dist
