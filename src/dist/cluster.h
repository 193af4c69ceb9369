// Doc-partitioned scatter-gather search (DESIGN.md §11) — the paper's
// Table 3 distributed runs, in-process: a Cluster doc-partitions the
// corpus into `total_partitions` contiguous global-docid ranges and
// stands up one node per opened partition, each node a full private
// engine stack (its own core::Database over its corpus slice, its own
// lock-striped BufferManager and simulated disk, its own `cores_per_node`
// worker pool standing in for one of the paper's dual-core Athlon64 X2
// servers). A query is scattered to every node, executed against the
// node's partition index with the *cluster-global* CollectionStats
// plumbed in (so every shard scores under one model and the merged
// ranking is the single-engine ranking), and the per-shard top-k are
// merged under the engine's total rank order (score desc, docid asc).
//
// Substitutions vs the paper's 8-machine LAN (DESIGN.md §11.5): nodes are
// threads, the network is a fixed per-query latency charge, and the
// heterogeneous hardware is per-node service-time stretch factors — a
// shard's simulated service time is its measured (real + simulated-I/O)
// query time scaled by `service_scale * speed_factor`, and the node's
// worker actually sleeps out the stretch, so queueing under closed-loop
// concurrency emerges from real contention rather than a formula.
//
// Shared-θ pruning (§11.3): in shared mode the coordinator allocates one
// SharedTheta channel per query; every shard publishes its local
// k-th-best and floors its MaxScore threshold with the channel, so late
// or slow shards skip work that independent top-k-then-merge must do.
// The merged result is unchanged (the channel is a provable lower bound
// on the global k-th best; boundary ties are never pruned) — only the
// probe/candidate work drops, which dist_test proves by counter.
#ifndef X100IR_DIST_CLUSTER_H_
#define X100IR_DIST_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "ir/collection_stats.h"
#include "ir/search_engine.h"

namespace x100ir::dist {

struct ClusterOptions {
  // Nodes this cluster opens: partitions [0, num_partitions) of the fixed
  // `total_partitions`-way split. Opening fewer nodes than partitions is
  // the paper's "using less servers, fixed partition size" configuration:
  // every node always holds a 1/total share, so the served collection
  // shrinks with the cluster. 1 <= num_partitions <= total_partitions;
  // at most 32 nodes (the per-query fault/straggle masks are 32-bit).
  uint32_t num_partitions = 8;
  uint32_t total_partitions = 8;

  // Worker threads per node (the paper's servers are dual-core).
  uint32_t cores_per_node = 2;

  // Fixed per-query network round-trip charge, added to reported query
  // latency (never slept: the LAN is not a node resource).
  double network_ms = 0.0;

  // Service-time model: a shard's simulated service time is
  // measured_total_seconds * service_scale * speed_factor[node], and the
  // node's worker sleeps out the difference so the stretch occupies the
  // node like real work. <= 0 disables the model (tests run at raw
  // speed). speed_factors empty = all 1.0, else one entry per opened
  // node; max/min ~2 reproduces the paper's LAN heterogeneity.
  double service_scale = 0.0;
  std::vector<double> speed_factors;

  // Each node's private buffer pool / simulated disk (storage-era runs).
  storage::StorageOptions storage;
};

// Per-query distributed knobs, wrapping the engine's SearchOptions.
struct DistSearchOptions {
  // Per-shard engine options. deadline/global_stats/shared_theta are
  // coordinator-owned and overwritten; everything else passes through.
  ir::SearchOptions search;

  // Shared-θ pruning across shards (MaxScore ranked runs). Off = the
  // independent top-k-then-merge baseline.
  bool share_theta = false;

  // Scatter shards one at a time on the calling thread instead of
  // through the node pools, gathering each shard as it returns.
  // Deterministic by construction — with share_theta every shard after
  // the first starts from the k-th best of its predecessors' results
  // merged — so the θ-pruning tests and gates are reproducible counter
  // comparisons, not races.
  bool sequential = false;

  // Whole-query deadline, propagated into every shard's engine and
  // enforced across the simulated service stretch; 0 = none (the
  // coordinator then waits out the slowest shard, however slow).
  double deadline_seconds = 0.0;

  // Straggler / fault policy: fail the query on the first shard error, or
  // merge the responsive shards and flag the result partial.
  bool allow_partial = false;

  // Deterministic per-query fault hooks (dist_test's battery): bit i set
  // in fault_mask fails node i with IOError before it searches; bit i in
  // straggle_mask adds straggle_ms of service time to node i.
  uint32_t fault_mask = 0;
  uint32_t straggle_mask = 0;
  double straggle_ms = 0.0;
};

struct DistResult {
  // Merged result in *global* docid space. Rank order (score desc, docid
  // asc) for ranked runs; first-k in docid order for boolean runs.
  // Accounting fields (num_matches, io_seconds, stats) are the sum over
  // every merged shard (SearchResult::MergeAccounting); seconds is the
  // coordinator's scatter-to-merge wall time.
  ir::SearchResult merged;

  // True when allow_partial dropped at least one failed shard from the
  // merge (the result covers only the responsive partitions).
  bool partial = false;
  uint32_t shards_ok = 0;
  uint32_t shards_failed = 0;
  std::vector<Status> shard_status;  // per node, in node order

  // Per shard, in node order, zero for failed shards: the measured engine
  // time (SearchResult::TotalSeconds, what the service model stretches),
  // and the simulated service time (engine time × service_scale × the
  // node's speed factor when the model is on, plus any straggle). Then the
  // query's reported latency: scatter-gather wall time plus the network
  // charge.
  std::vector<double> shard_engine_ms;
  std::vector<double> shard_service_ms;
  double latency_ms = 0.0;
};

// Closed-loop stream run aggregates — what Table 3's rows are made of.
struct StreamRunStats {
  struct Accum {
    double sum = 0.0;
    uint64_t n = 0;
    void Record(double x) {
      sum += x;
      ++n;
    }
    double Mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
  };

  Accum query_latency_ms;
  std::vector<Accum> node_service_ms;  // one per node
  uint64_t queries = 0;
  uint64_t errors = 0;
  double wall_seconds = 0.0;
  // Cluster-wide execution counters, merged with ExecStats::operator+=
  // (the θ-mode comparison reads docs_probed/vectors_pruned from here).
  vec::ExecStats exec;

  // Amortized per-query time: wall clock over the whole closed-loop batch
  // divided by its query count — the paper's throughput-side number.
  double AmortizedMs() const {
    return queries == 0 ? 0.0
                        : wall_seconds * 1e3 / static_cast<double>(queries);
  }
  double MinNodeMs() const;
  double AvgNodeMs() const;
  double MaxNodeMs() const;
};

class Cluster {
 public:
  Cluster() = default;
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Partitions `corpus` and opens the nodes in parallel, each a database
  // under dir/part<i> that builds its partition's seg_0 on the first open
  // and adopts its manifest on a reopen of the same slice. Empty dir =
  // fully in-memory nodes (no storage runs). Each node's corpus is a slice
  // sharing `corpus`'s compressed chunks (Corpus::Slice); the cluster keeps
  // no reference to `corpus` itself.
  Status Open(const ir::Corpus& corpus, const std::string& dir,
              const ClusterOptions& opts);

  // One scatter-gather query. Thread-safe after Open (any number of
  // concurrent streams); see DistSearchOptions for the failure policy.
  Status Search(const ir::Query& query, ir::RunType type,
                const DistSearchOptions& opts, DistResult* out) const;

  // One unstretched pass over `queries` to populate every node's buffer
  // pool — the Table 3 "hot data" precondition.
  Status WarmUp(const std::vector<ir::Query>& queries, ir::RunType type,
                uint32_t k);

  // Closed-loop run: `streams` driver threads share the query list and
  // each drives one query at a time end to end. Fails on the first query
  // error (the batch's remaining queries still drain).
  Status RunStreams(const std::vector<ir::Query>& queries, ir::RunType type,
                    uint32_t k, uint32_t streams, bool share_theta,
                    StreamRunStats* out) const;

  bool is_open() const { return open_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  // First global docid of node i's partition (contiguous ranges: local
  // docid l on node i is global node_base(i) + l).
  int32_t node_base(uint32_t node) const { return nodes_[node]->base; }
  uint32_t node_num_docs(uint32_t node) const {
    return nodes_[node]->db.corpus().num_docs();
  }
  // The scoring model every shard runs under: exact counts over the
  // opened partitions (== the whole corpus when num_partitions ==
  // total_partitions).
  const ir::CollectionStats& collection_stats() const { return stats_; }
  const core::Database& node_db(uint32_t node) const {
    return nodes_[node]->db;
  }

 private:
  struct Node {
    uint32_t id = 0;
    int32_t base = 0;  // first global docid of this partition
    double speed_factor = 1.0;
    core::Database db;
    // Declared after db so shutdown joins in-flight shard tasks before
    // the database they read from dies.
    std::unique_ptr<ThreadPool> exec;
  };

  // One shard's leg of a query: engine call + service-time model.
  // `stretch` disables the model for warm-up passes.
  void RunShard(const Node& node, const ir::Query& query, ir::RunType type,
                const DistSearchOptions& opts, const Deadline* deadline,
                SharedTheta* theta, bool stretch, ir::SearchResult* result,
                Status* status, double* service_ms) const;

  // The parallel scatter: every node runs RunShard on its own executor,
  // node i into (*results)[i], (*status)[i] and (*service_ms)[i], each
  // sized num_nodes(); returns once every shard has.
  void ScatterAndWait(const ir::Query& query, ir::RunType type,
                      const DistSearchOptions& opts, const Deadline* deadline,
                      SharedTheta* theta, bool stretch,
                      std::vector<ir::SearchResult>* results,
                      std::vector<Status>* status,
                      std::vector<double>* service_ms) const;

  bool open_ = false;
  ClusterOptions opts_;
  ir::CollectionStats stats_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace x100ir::dist

#endif  // X100IR_DIST_CLUSTER_H_
